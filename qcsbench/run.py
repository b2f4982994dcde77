"""qcsradar benchmark: one command, three workloads, end-to-end or traced.

Run from the root of a qcsradar source tree:

    python3 qcsbench/run.py --workload pbp_sweep --seed 1 --seconds 20 --trace 0

It imports the package from ``src/`` of the current directory, drives it
in-process through ``qcsradar.cli.main`` (closed loop, one process;
sweeps pass ``--workers`` = the number of usable cores), checks every
output, and prints one JSON object as its last line of standard output.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes the
same untraced measurement, then runs a few rounds serially (spans
recorded in a forked worker would be lost), once plain and once with the
tracer installed, and reports the per-layer metrics.  Scratch files and
the span dump go to ``.qcsbench/`` in the current directory.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import statistics
import sys
import time

import checks
import workloads
from tracer import Tracer

SETUP_REPEATS = 5


def cpu_seconds():
    """User+system CPU of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    """Largest resident set of this process or any child it has waited for (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def import_package(src):
    """Import qcsradar afresh from ``src``, dropping any copy imported before."""
    for name in [m for m in sys.modules if m == "qcsradar" or m.startswith("qcsradar.")]:
        del sys.modules[name]
    import qcsradar.cli
    import qcsradar.io

    origin = os.path.realpath(qcsradar.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"qcsbench: imported qcsradar from {origin}, not from {src}")
    return qcsradar


def measure(workload, seconds, workers, rounds=None):
    """Run whole rounds, at least one, until ``seconds`` have passed (or ``rounds`` are done).

    Only the operations are timed; each round is checked after its clock
    stops.  Returns one record per round.
    """
    records = []
    start = time.perf_counter()
    index = 0
    while index < rounds if rounds is not None else (index == 0 or time.perf_counter() - start < seconds):
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        rnd = workload.run_round(index, workers)
        t1, cpu1 = time.perf_counter(), cpu_seconds()
        workload.check(rnd)
        records.append({"wall": t1 - t0, "cpu": cpu1 - cpu0, "trials": rnd.trials,
                        "ops": rnd.ops, "failed": rnd.failed})
        index += 1
    return records


def clear(directory):
    for name in os.listdir(directory):
        os.remove(os.path.join(directory, name))


def median_of(records, key):
    return statistics.median(key(r) for r in records)


def end_to_end(records, setup_s):
    return {
        "setup_s": (setup_s, "s"),
        "trials_per_s": (median_of(records, lambda r: r["trials"] / r["wall"]), "1/s"),
        "cpu_ms_per_trial": (median_of(records, lambda r: 1e3 * r["cpu"] / r["trials"]), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def trace_targets():
    """The wrapped public functions, with counters taken at their boundaries."""

    def on_qiht(tracer, args, kwargs, result):
        tracer.counters["recovery.qiht.iterations"] += result.iterations_run
        tracer.counters[f"recovery.qiht.stop.{result.stop_reason.value}"] += 1

    def on_sense(tracer, args, kwargs, result):
        tracer.counters["quantization.sense.bytes"] += result.nbytes
        tracer.counters["quantization.sense.meas"] += result.size

    def on_write_capture(tracer, args, kwargs, result):
        path, capture = args[0], args[1]
        tracer.counters["io.capture.bytes"] += os.path.getsize(path) + os.path.getsize(result)
        tracer.counters["io.capture.meas"] += capture.plan.n_meas

    def cli_name(args, kwargs):
        argv = args[0] if args else kwargs["argv"]
        return "cli." + argv[0].replace("-", "_")

    plain = (None, None)
    return {
        "seeding.derive_seed": plain,
        "seeding.generator": plain,
        "signal_model.forward": plain,
        "signal_model.adjoint": plain,
        "signal_model.random_profile": plain,
        "signal_model.make_sampling_plan": plain,
        "signal_model.bin_to_range": plain,
        "quantization.adapted_quantizer": plain,
        "quantization.draw_dither": plain,
        "quantization.quantize_complex": plain,
        "quantization.sense": (on_sense, None),
        "recovery.hard_threshold": plain,
        "recovery.pbp": plain,
        "recovery.consistency": plain,
        "recovery.qiht": (on_qiht, None),
        "evaluation.run_trial": plain,
        "evaluation.run_grid": plain,
        "io.parse_config": plain,
        "io.write_results": plain,
        "io.write_capture": (on_write_capture, None),
        "io.read_capture": plain,
        "ambiguity.ambiguity_report": plain,
        "cli.main": (None, cli_name),
    }


PER_LAYER_UNITS = {"us_per_trial": "us", "calls_per_trial": "count", "ms": "ms", "p50_ms": "ms"}


def per_layer(tracer, trials, overhead, utilization):
    stats = tracer.summary()
    counters = tracer.counters
    metrics = {}

    def stat(name, kind):
        entry = stats.get(name)
        if entry is None:
            return 0.0
        if kind == "us_per_trial":
            return 1e6 * entry["self_s"] / trials
        if kind == "calls_per_trial":
            return entry["calls"] / trials
        if kind == "ms":
            return 1e3 * statistics.fmean(entry["durations"])
        return 1e3 * statistics.median(entry["durations"])

    for name, kinds in (
        ("recovery.qiht", ["us_per_trial"]),
        ("recovery.hard_threshold", ["us_per_trial"]),
        ("recovery.pbp", ["us_per_trial"]),
        ("recovery.consistency", ["us_per_trial"]),
        ("signal_model.forward", ["calls_per_trial", "us_per_trial"]),
        ("signal_model.adjoint", ["calls_per_trial", "us_per_trial"]),
        ("signal_model.random_profile", ["us_per_trial"]),
        ("signal_model.make_sampling_plan", ["us_per_trial"]),
        ("quantization.draw_dither", ["us_per_trial"]),
        ("quantization.quantize_complex", ["us_per_trial"]),
        ("quantization.sense", ["us_per_trial"]),
        ("seeding.derive_seed", ["us_per_trial"]),
        ("seeding.generator", ["us_per_trial"]),
        ("evaluation.run_trial", ["us_per_trial"]),
        ("io.write_capture", ["us_per_trial"]),
        ("io.read_capture", ["us_per_trial"]),
        ("io.parse_config", ["ms"]),
        ("io.write_results", ["ms"]),
        ("cli.gen_capture", ["p50_ms"]),
        ("cli.recover", ["p50_ms"]),
        ("cli.ambiguity", ["ms"]),
        ("ambiguity.ambiguity_report", ["ms"]),
    ):
        for kind in kinds:
            metrics[f"{name}.{kind}"] = (stat(name, kind), PER_LAYER_UNITS[kind])

    def ratio(num, den):
        return counters[num] / counters[den] if counters[den] else 0.0

    metrics["recovery.qiht.iters_per_trial"] = (counters["recovery.qiht.iterations"] / trials, "count")
    for stop, reason in (("target", "consistency_target"), ("drop", "consistency_drop"), ("budget", "budget")):
        metrics[f"recovery.qiht.stops_{stop}"] = (counters[f"recovery.qiht.stop.{reason}"], "count")
    metrics["quantization.sense.bytes_per_meas"] = (ratio("quantization.sense.bytes", "quantization.sense.meas"), "B")
    metrics["io.capture.bytes_per_meas"] = (ratio("io.capture.bytes", "io.capture.meas"), "B")
    metrics["evaluation.run_grid.pool_utilization"] = (utilization, "ratio")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"qcsbench: unknown workload {args.workload!r}; choose from {list(workloads.WORKLOADS)}")
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qcsradar", "__init__.py")):
        raise SystemExit(f"qcsbench: no qcsradar source tree under {src}")
    sys.path.insert(0, src)

    work_dir = os.path.join(root, ".qcsbench", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    devnull = open(os.devnull, "w", encoding="utf-8")
    # The CLI configures INFO logging to stderr on first use; keep the
    # formatting work but send it nowhere.
    logging.basicConfig(level=logging.INFO, stream=devnull, format="%(levelname)s %(name)s: %(message)s")
    try:
        result = run(args, src, work_dir)
    except checks.CheckError as exc:
        print(f"qcsbench: check failed: {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    finally:
        devnull.close()
        shutil.rmtree(work_dir)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run(args, src, work_dir):
    """Set up, measure and (with ``--trace 1``) trace one workload; raises CheckError."""
    workers = len(os.sched_getaffinity(0))
    setups = []
    for _ in range(SETUP_REPEATS):
        clear(work_dir)
        t0 = time.perf_counter()
        qcsradar = import_package(src)
        workload = workloads.WORKLOADS[args.workload](qcsradar, work_dir, args.seed)
        workload.setup()
        workload.warm_up(workers)
        setups.append(time.perf_counter() - t0)

    records = measure(workload, args.seconds, workers)
    if args.trace:
        serial = measure(workload, 0, 1, rounds=workload.traced_rounds)
        tracer = Tracer()
        tracer.install(trace_targets())
        try:
            traced = measure(workload, 0, 1, rounds=workload.traced_rounds)
        finally:
            tracer.restore()
        tracer.write(os.path.join(os.path.dirname(work_dir), f"trace-{args.workload}.json"))
        utilization = 0.0
        if workload.runs_grid:
            utilization = sum(r["cpu"] for r in records) / (workers * sum(r["wall"] for r in records))
        overhead = sum(r["wall"] for r in traced) / sum(r["wall"] for r in serial)
        metrics = per_layer(tracer, sum(r["trials"] for r in traced), overhead, utilization)
        records += serial + traced
    else:
        metrics = end_to_end(records, statistics.median(setups))
    workload.finish(workers)
    return {
        "correct": True,
        "attempted": sum(r["ops"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
