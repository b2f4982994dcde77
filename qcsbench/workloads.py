"""The benchmark's three workloads, driven through qcsradar's public entry points.

Every operation is one in-process ``qcsradar.cli.main(argv)`` call; the
package receives only the generated configs, captures and argv.  A
workload runs in rounds.  Each round attempts the same operations, takes
its inputs from the workload seed and the round index, and is checked
(untimed) right after it ran; ``finish`` applies the checks that need the
pooled results of a whole run.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

import checks

N_BINS = 256
SWEEP_BITRATES = [2**j for j in range(3, 14)]  # the README's default grid


def sub_seed(seed, *parts):
    """A 32-bit seed derived from the workload seed and identifying parts."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little")


@dataclass
class CliResult:
    code: object
    out: str
    err: str
    exc: object


def call_cli(cli, argv):
    """Run ``cli.main(argv)`` with stdout and stderr captured.

    An exception escaping ``main`` is a fault of the program, so it is
    caught and returned rather than ending the benchmark.
    """
    out, err = io.StringIO(), io.StringIO()
    code = exc = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as caught:  # noqa: BLE001 - recorded as a failed operation
            exc = caught
    return CliResult(code, out.getvalue(), err.getvalue(), exc)


def require_ok(result, argv):
    checks.require(
        result.exc is None and result.code == 0,
        f"{' '.join(argv[:1])} failed: code={result.code} exc={result.exc!r} stderr={result.err.strip()!r}",
    )


@dataclass
class Round:
    trials: int
    ops: int
    failed: int
    outputs: object


class Sweep:
    """``simulate`` over one fixed grid, one sweep per round, fresh master seed each."""

    runs_grid = True

    def __init__(self, name, qcsradar, work_dir, seed, grid, trials):
        self.name = name
        self.cli = qcsradar.cli
        self.seed = seed
        self.grid = grid
        self.trials = trials
        self.points = len(grid["bitrates"])
        self.work_dir = work_dir
        self.config_path = os.path.join(work_dir, f"{name}.json")
        self.rows = []

    def setup(self):
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(dict(self.grid, n_bins=N_BINS, trials=self.trials, master_seed=0), fh)

    def simulate(self, master_seed, workers, trials=None, config_path=None):
        # A fresh CSV name per call: rewriting a file in place makes ext4
        # flush it on close, which would time the disk rather than the program.
        csv_path = os.path.join(self.work_dir, f"{self.name}-{master_seed}.csv")
        argv = ["simulate", "--config", config_path or self.config_path, "--out", csv_path,
                "--seed", str(master_seed), "--workers", str(workers)]
        if trials is not None:
            argv += ["--trials", str(trials)]
        result = call_cli(self.cli, argv)
        require_ok(result, argv)
        with open(csv_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        os.remove(csv_path)
        return checks.parse_results_csv(text)

    def warm_up(self, workers):
        rows = self.simulate(sub_seed(self.seed, self.name, "warm-up"), workers, trials=2)
        self.check_rows(rows, 2)

    def run_round(self, index, workers):
        rows = self.simulate(sub_seed(self.seed, self.name, index), workers)
        return Round(trials=self.trials * self.points, ops=1, failed=0, outputs=rows)

    def check_rows(self, rows, trials):
        g = self.grid
        checks.check_sweep_rows(
            rows, sparsity=g["sparsities"][0], bit_depth=g["bit_depths"][0], bitrates=g["bitrates"],
            dithered=g["dithered"], algorithm=g["algorithm"], trials=trials,
        )

    def check(self, rnd):
        self.check_rows(rnd.outputs, self.trials)
        self.rows.append(rnd.outputs)


class PbpSweep(Sweep):
    """Dithered 1-bit PBP at K=2 over bit-rates 2^3..2^13: the headline curve."""

    traced_rounds = 1

    def __init__(self, qcsradar, work_dir, seed):
        grid = {"sparsities": [2], "bit_depths": [1], "bitrates": SWEEP_BITRATES,
                "dithered": True, "algorithm": "pbp"}
        super().__init__("pbp_sweep", qcsradar, work_dir, seed, grid, trials=200)

    def finish(self, workers):
        checks.check_pbp_curve(checks.pooled_tpr(self.rows, 2**13), checks.pooled_tpr(self.rows, 2**9))


class QihtPoint(Sweep):
    """Dithered 1-bit QIHT at K=10, B=2^9 (M=512): one grid point, many iterations."""

    traced_rounds = 2
    PBP_REFERENCE_TRIALS = 1000

    def __init__(self, qcsradar, work_dir, seed):
        grid = {"sparsities": [10], "bit_depths": [1], "bitrates": [2**9],
                "dithered": True, "algorithm": "qiht"}
        super().__init__("qiht_point", qcsradar, work_dir, seed, grid, trials=200)

    def finish(self, workers):
        # Dithered PBP at the same point is the level QIHT must beat.
        reference = os.path.join(self.work_dir, "qiht_point_pbp.json")
        with open(reference, "w", encoding="utf-8") as fh:
            json.dump(dict(self.grid, n_bins=N_BINS, algorithm="pbp", trials=self.PBP_REFERENCE_TRIALS), fh)
        rows = self.simulate(sub_seed(self.seed, self.name, "pbp-reference"), workers, config_path=reference)
        checks.check_qiht_point(checks.pooled_tpr(self.rows, 2**9), rows[0]["tpr"])


# One round trip per entry: (label, M, --bits, dithered, stored dither values, recover algorithm).
CAPTURE_KINDS = (
    ("1bit_dither_seed", 8192, "1", True, False, "qiht"),
    ("1bit_dither_values", 8192, "1", True, True, "pbp"),
    ("3bit_dither_seed", 1024, "3", True, False, "qiht"),
    ("1bit_undithered", 8192, "1", False, False, "pbp"),
    ("unquantized", 128, "unquantized", False, False, "qiht"),
)
CAPTURE_SPARSITY = 2
AMBIGUITY_MEAS = 1024
AMBIGUITY_SEEDS = 100
FAULT_MEAS = 512
# Captures that `recover` must reject with one `error: capture:` line: a
# sidecar without radar.bandwidth, and a payload holding a NaN.
FAULTS = ("fault_no_bandwidth", "fault_nan")


class CaptureReplay:
    """gen-capture -> recover round trips over five capture kinds, one ambiguity report,
    and two malformed captures that the CLI contract says must be rejected."""

    name = "capture_replay"
    runs_grid = False
    traced_rounds = 3

    def __init__(self, qcsradar, work_dir, seed):
        self.cli = qcsradar.cli
        self.read_capture = qcsradar.io.read_capture
        self.work_dir = work_dir
        self.seed = seed
        self.hits = 0
        self.targets = 0

    def path(self, label, index=None):
        # A fresh name per round, for the reason given in Sweep.simulate.
        return os.path.join(self.work_dir, f"{label}.iq" if index is None else f"{label}-{index}.iq")

    def setup(self):
        """Write the two fault captures; their inputs do not depend on the seed."""
        base = self.path("fault_base")
        argv = ["gen-capture", "--out", base, "--n", str(N_BINS), "--meas", str(FAULT_MEAS),
                "--bits", "1", "--sparsity", str(CAPTURE_SPARSITY), "--seed", "1"]
        require_ok(call_cli(self.cli, argv), argv)
        sidecar, payload = checks.read_capture_files(base)
        no_bandwidth = json.loads(json.dumps(sidecar))
        del no_bandwidth["radar"]["bandwidth"]
        with_nan = payload.copy()
        with_nan[0] = complex(math.nan, payload[0].imag)
        for label, side, data in (("fault_no_bandwidth", no_bandwidth, payload), ("fault_nan", sidecar, with_nan)):
            data.tofile(self.path(label))
            with open(self.path(label) + ".json", "w", encoding="utf-8") as fh:
                json.dump(side, fh)

    def warm_up(self, workers):
        self.check(self.run_round("warm-up", workers), tally=False)

    def ambiguity_args(self, index):
        rng = np.random.default_rng(sub_seed(self.seed, self.name, "ambiguity", index))
        bin_base = 32 * int(rng.integers(1, 9))
        bin_extra = bin_base
        while bin_extra == bin_base:
            bin_extra = int(rng.integers(1, N_BINS + 1))
        return {
            "n": N_BINS, "n0": bin_base, "n1": bin_extra,
            "psi0": float(rng.choice([-3, -1, 1, 3])) * math.pi / 4,
            "psi1": float(rng.uniform(-math.pi, math.pi)),
            "gamma": float(rng.uniform(0.1, 0.65)),
            "meas": AMBIGUITY_MEAS, "seeds": AMBIGUITY_SEEDS,
            "seed": sub_seed(self.seed, self.name, "ambiguity-seed", index),
        }

    def run_round(self, index, workers):
        trips = []
        for label, n_meas, bits, dithered, store_values, algorithm in CAPTURE_KINDS:
            path = self.path(label, index)
            bandwidth = 50e6 + 50e6 * (sub_seed(self.seed, self.name, "bandwidth", index, label) % 6)
            gen = ["gen-capture", "--out", path, "--n", str(N_BINS), "--meas", str(n_meas),
                   "--bits", bits, "--sparsity", str(CAPTURE_SPARSITY),
                   "--seed", str(sub_seed(self.seed, self.name, index, label)),
                   "--bandwidth", repr(bandwidth)]
            if not dithered:
                gen.append("--no-dithered")
            if store_values:
                gen.append("--store-dither-values")
            generated = call_cli(self.cli, gen)
            rec = ["recover", "--capture", path, "--algo", algorithm, "--sparsity", str(CAPTURE_SPARSITY)]
            recovered = call_cli(self.cli, rec)
            trips.append((label, dithered, algorithm, gen, generated, rec, recovered))

        amb = self.ambiguity_args(index)
        amb_argv = ["ambiguity"] + [x for key, value in amb.items() for x in (f"--{key}", repr(value))]
        ambiguity = call_cli(self.cli, amb_argv)

        faults = [
            call_cli(self.cli, ["recover", "--capture", self.path(label), "--algo", "qiht",
                                "--sparsity", str(CAPTURE_SPARSITY)])
            for label in FAULTS
        ]
        failed = sum(not checks.rejected_cleanly(f.code, f.err, f.exc) for f in faults)
        return Round(
            trials=len(trips), ops=2 * len(trips) + 1 + len(faults), failed=failed,
            outputs=(trips, (amb, amb_argv, ambiguity)),
        )

    def check(self, rnd, tally=True):
        trips, (amb, amb_argv, ambiguity) = rnd.outputs
        for label, dithered, algorithm, gen, generated, rec, recovered in trips:
            require_ok(generated, gen)
            require_ok(recovered, rec)
            truth, report = json.loads(generated.out), json.loads(recovered.out)
            path = gen[gen.index("--out") + 1]
            sidecar, payload = checks.read_capture_files(path)
            capture = self.read_capture(path)
            stored = sidecar["dither"]
            if stored is not None and "values" in stored:
                dither = np.array([complex(re, im) for re, im in stored["values"]])
                checks.require(np.array_equal(capture.dither.values, dither), f"{label}: dither values not read back")
            else:
                dither = None if capture.dither is None else capture.dither.values
            checks.require((dither is not None) == dithered, f"{label}: dither presence is wrong")
            checks.check_generated(truth, sidecar, payload, capture.samples, dither)
            checks.check_recovered(report, sidecar, payload, dither, algorithm=algorithm, sparsity=CAPTURE_SPARSITY)
            if dithered and tally:
                self.hits += checks.support_hits(truth, report)
                self.targets += CAPTURE_SPARSITY
            os.remove(path)
            os.remove(f"{path}.json")
        require_ok(ambiguity, amb_argv)
        checks.check_ambiguity(
            json.loads(ambiguity.out), n_bins=amb["n"], n_meas=amb["meas"], bin_base=amb["n0"],
            phase_base=amb["psi0"], gamma=amb["gamma"], n_seeds=amb["seeds"],
        )

    def finish(self, workers):
        checks.check_capture_tpr(self.hits, self.targets)


WORKLOADS = {"pbp_sweep": PbpSweep, "qiht_point": QihtPoint, "capture_replay": CaptureReplay}
