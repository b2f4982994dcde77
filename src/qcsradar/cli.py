"""Command-line interface: simulate, ambiguity, recover, gen-capture.

All subcommands are deterministic given an explicit --seed.  Errors exit
nonzero after printing a single ``error: <kind>: <reason>`` line to stderr;
that includes argv the parser rejects (``config:``) and sizes too large to
allocate (``size:``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import logging
import sys

import numpy as np

from .ambiguity import ambiguity_report
from .evaluation import ExperimentConfig, _acquisition_seeds, _profile_seeds, run_grid
from .io import (
    Capture,
    _sidecar_path,
    check_capture_bit_depth,
    check_output_path,
    parse_config,
    read_capture,
    write_capture,
    write_results,
)
from .quantization import acquire, check_bit_depth, decode_bit_depth, encode_bit_depth
from .recovery import ALGORITHMS, STOP_REASONS, RecoveryConfig, consistency, estimate, stack_of_one
from .signal_model import RadarParams, RangeProfile, bin_number, bin_to_range, make_sampling_plan, random_profile

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors take the one-line ``config:`` form.

    Subcommand parsers are built from the same class, so theirs do too.
    ``--help`` still prints the usage and exits 0.
    """

    def error(self, message):
        raise ValueError(f"config: {message}")

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        # Every option takes one value, but argparse turns ``--seeds=--``
        # into an empty list instead of reporting it.
        for name, value in vars(parsed).items():
            if isinstance(value, list):
                self.error(f"argument --{name.replace('_', '-')}: expected one value")
        return parsed


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _bit_depth(text: str):
    """A bit depth from its text: an integer in [1, 32], or None for "unquantized"."""
    try:
        with contextlib.suppress(ValueError):
            text = int(text)
        value = decode_bit_depth(text)
        check_bit_depth(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _add_simulate(subparsers):
    p = subparsers.add_parser("simulate", help="run a Monte Carlo grid and write a results CSV")
    p.add_argument("--config", required=True, help="experiment configuration (JSON)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--trials", type=int, default=None, help="override the trial count")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--workers", type=positive_int, default=None, help="worker process count (default: CPUs this process may run on)")


def _add_ambiguity(subparsers):
    p = subparsers.add_parser("ambiguity", help="demonstrate quantization ambiguity and its removal by dither")
    p.add_argument("--n", type=int, default=ExperimentConfig.n_bins, help="number of range bins")
    p.add_argument("--n0", type=int, default=64, help="range bin of the unit target")
    p.add_argument("--n1", type=int, default=10, help="range bin of the weak second target")
    p.add_argument("--psi0", type=float, default=float(np.pi / 4), help="phase of the unit target")
    p.add_argument("--psi1", type=float, default=0.0, help="phase of the second target")
    p.add_argument("--gamma", type=float, default=0.5, help="amplitude of the second target, in (0, 1)")
    p.add_argument("--meas", type=int, default=1024, help="number of measurements M")
    p.add_argument("--seeds", type=int, default=200, help="number of dither seeds to test")
    p.add_argument("--bits", type=int, default=1, help="bit depth (the b=1 case carries the guarantee)")
    p.add_argument("--seed", type=int, default=0, help="master seed")


def _add_recover(subparsers):
    p = subparsers.add_parser("recover", help="estimate a sparse range profile from a capture file")
    p.add_argument("--capture", required=True, help="capture payload path (sidecar at <path>.json)")
    p.add_argument("--algo", choices=ALGORITHMS, default="qiht")
    p.add_argument("--sparsity", type=int, required=True, help="number of targets K")
    p.add_argument("--mu", type=float, default=RecoveryConfig.step_size, help="QIHT step size")
    p.add_argument("--max-iters", type=int, default=RecoveryConfig.max_iters,
                   help="QIHT iteration budget (default max(20, 100K))")
    p.add_argument("--target", type=float, default=RecoveryConfig.consistency_target, help="QIHT consistency stop target (quantized captures only)")
    p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")


def _add_gen_capture(subparsers):
    p = subparsers.add_parser("gen-capture", help="synthesize a capture file for testing")
    p.add_argument("--out", required=True, help="capture payload path to write")
    p.add_argument("--n", type=int, default=ExperimentConfig.n_bins, help="number of range bins")
    p.add_argument("--meas", type=int, default=8192, help="number of measurements M")
    p.add_argument("--bits", type=_bit_depth, default=1, help="bit depth per component, or 'unquantized'")
    p.add_argument("--dithered", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--sparsity", type=int, default=2, help="number of targets K")
    p.add_argument("--seed", type=int, default=0, help="master seed; the capture is trial 0 of its sweep point")
    p.add_argument("--store-dither-values", dest="dither_values", action="store_true",
                   help="embed dither values instead of the seed")
    p.add_argument("--f0", type=float, default=24.125e9, help="carrier frequency (Hz)")
    p.add_argument("--bandwidth", type=float, default=150e6, help="ramp bandwidth (Hz)")
    p.add_argument("--ramp-duration", type=float, default=1e-3, help="ramp duration (s)")


@contextlib.contextmanager
def _argument_errors():
    """Report a ValueError raised while checking argv as a ``config:`` error."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"config: {exc}") from None


def _emit(payload: dict, out_path) -> None:
    text = json.dumps(payload, sort_keys=True)
    if out_path is None:
        print(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise OSError(f"io: cannot write report to {out_path}: {exc}") from None


def _scene(profile) -> dict:
    """A profile's support, as 0-based indices and 1-based bins, and its [re, im] amplitudes there."""
    indices = sorted(profile.support)
    return {
        "support_indices": indices,
        "support_bins": [bin_number(i, profile.n_bins) for i in indices],
        "amplitudes": [[float(a.real), float(a.imag)] for a in profile.amplitudes[indices]],
    }


def _cmd_simulate(args) -> int:
    config = parse_config(args.config)
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    with _argument_errors():
        config = dataclasses.replace(config, **overrides)
    check_output_path(args.out, "results")
    results = run_grid(config, max_workers=args.workers)
    if not results:
        raise ValueError("config: the grid contains no runnable points")
    write_results(results, args.out)
    print(f"wrote {len(results)} aggregate(s) to {args.out}")
    return 0


def _cmd_ambiguity(args) -> int:
    # ambiguity_report checks every argument before its first dither draw.
    with _argument_errors():
        report = ambiguity_report(
            n_bins=args.n,
            bin_base=args.n0,
            bin_extra=args.n1,
            phase_base=args.psi0,
            phase_extra=args.psi1,
            gamma=args.gamma,
            n_meas=args.meas,
            n_seeds=args.seeds,
            seed=args.seed,
            bit_depth=args.bits,
        )
    print(json.dumps(report, sort_keys=True))
    return 0


def _cmd_recover(args) -> int:
    with _argument_errors():
        recovery = RecoveryConfig(args.sparsity, args.mu, args.max_iters, args.target)
    if args.out is not None:
        check_output_path(args.out, "report")
    capture = read_capture(args.capture)
    if args.sparsity > capture.plan.n_bins:
        raise ValueError(f"config: sparsity must be in [1, {capture.plan.n_bins}] for this capture, got {args.sparsity}")
    plan, dither, y = stack_of_one(capture.plan, capture.dither, capture.samples)
    (amplitudes,), (iterations,), final, codes = estimate(args.algo, plan, capture.quantizer, dither, y, recovery)
    if final is not None:
        final = float(final[0])
    elif capture.quantizer.quantized:  # PBP's, which estimate leaves to the caller
        final = consistency(capture.plan, capture.quantizer, capture.dither, capture.samples, amplitudes)

    scene = _scene(RangeProfile(amplitudes))
    report = {
        **scene,
        "algorithm": args.algo,
        "sparsity": args.sparsity,
        "ranges_m": [bin_to_range(capture.radar, b) for b in scene["support_bins"]],
        "iterations": int(iterations),
        "final_consistency": final,
        "stop_reason": None if codes is None else STOP_REASONS[codes[0]].value,
    }
    _emit(report, args.out)
    return 0


def _cmd_gen_capture(args) -> int:
    with _argument_errors():
        check_capture_bit_depth(args.bits)
        radar = RadarParams(
            f0=args.f0, bandwidth=args.bandwidth, ramp_duration=args.ramp_duration, n_bins=args.n
        )
        for path in (args.out, _sidecar_path(args.out)):  # before the first draw, so that a bad path leaves no file
            check_output_path(path, "capture")
        profile = random_profile(args.n, args.sparsity, _profile_seeds(args.sparsity, [0], args.seed, args.n)[0])
        (plan_seed,), (dither_seed,) = _acquisition_seeds(args.meas, args.bits, [0], args.seed, args.n)
        plan = make_sampling_plan(args.n, args.meas, plan_seed)
    quantizer, dither, samples = acquire(plan, args.bits, args.dithered, dither_seed, profile)
    if args.dither_values or dither is None:  # a dither without its seed is written as its values
        dither_seed = None
    capture = Capture(plan, quantizer, dither, samples, radar, plan_seed, dither_seed)
    sidecar = write_capture(args.out, capture)

    report = {
        **_scene(profile),
        "capture": str(args.out),
        "sidecar": sidecar,
        "n_bins": args.n,
        "n_meas": args.meas,
        "bit_depth": encode_bit_depth(args.bits),
        "dithered": dither is not None,
        "seed": args.seed,
    }
    print(json.dumps(report, sort_keys=True))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "ambiguity": _cmd_ambiguity,
    "recover": _cmd_recover,
    "gen-capture": _cmd_gen_capture,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="qcsradar",
        description="Sparse radar range estimation from dithered, severely quantized compressive measurements.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_simulate(subparsers)
    _add_ambiguity(subparsers)
    _add_recover(subparsers)
    _add_gen_capture(subparsers)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        # numpy reports an array of more than 2**63 bytes as a ValueError.
        kind = "size: " if str(exc).startswith("array is too big") else ""
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 1
    except (MemoryError, OverflowError) as exc:
        # A size argv or a config allows, but no array can hold.
        print(f"error: size: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
