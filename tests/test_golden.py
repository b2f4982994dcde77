"""Golden-CSV regression: fixed sweeps must reproduce committed files byte for byte.

``sweep.csv`` covers PBP and QIHT; dithered 1- and 3-bit, undithered 2-bit
and unquantized acquisition; K in {2, 10}; and, at N=64, measurement counts
below one ramp, at a whole number of ramps and with a partial last ramp.
At the largest M a grid point holds more trials than one work unit of
``run_grid``, so the file also pins how split points are put back together.

``sweep_n256.csv`` pins rows at the paper's size, N=256: dithered 1-bit
QIHT at (K=10, B=2^9) and (K=2, B=2^13), dithered 3-bit QIHT on two ramps
plus a partial one, unquantized QIHT below one ramp and with a remainder,
and undithered 2-bit PBP on whole ramps.  Every point spans several work
units.

``sweep_blocks.csv`` pins both sparsities at N=256 across bit depths and
the whole bit-rate range, the points one trial block shares its profiles
across, with a trial count that splits unevenly into blocks and sub-chunks.

``iterations.csv`` pins how QIHT stops, which no CSV row shows: the
per-trial iteration counts that ``run_block`` reports at each of the 42
QIHT points of the three sweeps, in trial order, one row per point.

``sweep.csv`` was written by the one-trial-at-a-time engine that the
batched engine replaced; ``sweep_n256.csv`` by the engine before QIHT ran
in per-chunk buffers; ``sweep_blocks.csv`` by the (point, chunk) engine
before trial blocks replaced it; ``iterations.csv`` after a zero residual
became a stop of unquantized QIHT.  Regenerate them
(``PYTHONPATH=src python tests/test_golden.py``) only for a change that is
meant to alter results or stopping, and say so in CHANGES.md.
"""

import os
import sys

import pytest

from qcsradar.evaluation import ExperimentConfig, point_is_runnable, run_block, run_grid, sort_key
from qcsradar.io import write_results

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

# b=1 / b=3 (dithered) and b=2 (undithered) give M = 48, a multiple of
# N = 64, and a multiple plus half a ramp; so do the unquantized rates.
_COMMON = dict(n_bins=64, sparsities=(2, 10), trials=12, master_seed=7)
_ACQUISITIONS = (
    dict(bit_depths=(1, 3), bitrates=(48, 6144, 6240), dithered=True),
    dict(bit_depths=(2,), bitrates=(96, 12288, 12480), dithered=False),
    dict(bit_depths=(None,), bitrates=(32 * 48, 32 * 6144, 32 * 6240), dithered=False),
)

# M = 512, 8192, 640 (two ramps and half of a third), 128 and 320 (one ramp
# and a quarter), and 512.
_N256 = dict(n_bins=256, master_seed=11)
_N256_POINTS = (
    dict(algorithm="qiht", sparsities=(10,), bit_depths=(1,), bitrates=(2**9,), dithered=True, trials=200),
    dict(algorithm="qiht", sparsities=(2,), bit_depths=(1,), bitrates=(2**13,), dithered=True, trials=16),
    dict(algorithm="qiht", sparsities=(2, 10), bit_depths=(3,), bitrates=(3 * 640,), dithered=True, trials=100),
    dict(algorithm="qiht", sparsities=(2,), bit_depths=(None,), bitrates=(32 * 128, 32 * 320), dithered=False, trials=150),
    dict(algorithm="pbp", sparsities=(2, 10), bit_depths=(2,), bitrates=(2 * 512,), dithered=False, trials=150),
)


def golden_configs():
    return [
        ExperimentConfig(algorithm=algorithm, **_COMMON, **acquisition)
        for algorithm in ("pbp", "qiht")
        for acquisition in _ACQUISITIONS
    ]


def golden_configs_n256():
    return [ExperimentConfig(**_N256, **point) for point in _N256_POINTS]


# Every sparsity's points at N=256, as one trial block runs them: dithered
# 1- and 2-bit PBP over the whole bit-rate range (2-bit B=8 gives M=4 and is
# skipped) and QIHT on one to eight whole ramps.  37 trials split unevenly
# into blocks and into the sub-chunks of the large-M points.
_BLOCKS = dict(n_bins=256, sparsities=(2, 10), bit_depths=(1, 2), dithered=True, trials=37, master_seed=13)


def golden_configs_blocks():
    return [
        ExperimentConfig(algorithm="pbp", bitrates=tuple(2**j for j in range(3, 14)), **_BLOCKS),
        ExperimentConfig(algorithm="qiht", bitrates=(2**9, 2**10, 2**11), **_BLOCKS),
    ]


SWEEPS = {
    "sweep.csv": golden_configs,
    "sweep_n256.csv": golden_configs_n256,
    "sweep_blocks.csv": golden_configs_blocks,
}


def write_sweep(path, max_workers, configs=golden_configs):
    results = [r for config in configs() for r in run_grid(config, max_workers=max_workers)]
    write_results(results, path)


ITERATIONS = "iterations.csv"


def iteration_rows() -> str:
    """``iterations.csv``: each QIHT point of the sweeps, then its trials' iteration counts, space-separated."""
    lines = ["sweep,K,b,M,dithered,iterations"]
    for name, configs in SWEEPS.items():
        for config in configs():
            if config.algorithm != "qiht":
                continue
            points = sorted((p for p in config.grid_points() if point_is_runnable(p)[0]), key=sort_key)
            for point in points:
                # Trial outcomes do not depend on the block, so each point runs as one.
                (outcomes,) = run_block((point,), range(config.trials), config.master_seed, config.n_bins,
                                        config.recovery(point.sparsity))
                counts = " ".join(map(str, outcomes.iterations.tolist()))
                lines.append(f"{name},{point.sparsity},{point.depth_label},{point.n_meas},"
                             f"{str(point.effective_dithered).lower()},{counts}")
    return "\n".join(lines) + "\n"


def _check(tmp_path, name, workers):
    out = tmp_path / name
    write_sweep(out, max_workers=workers, configs=SWEEPS[name])
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        expected = fh.read()
    assert out.read_bytes() == expected


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_matches_golden_csv(tmp_path, workers):
    _check(tmp_path, "sweep.csv", workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_n256_sweep_matches_golden_csv(tmp_path, workers):
    _check(tmp_path, "sweep_n256.csv", workers)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_block_sweep_matches_golden_csv(tmp_path, workers):
    _check(tmp_path, "sweep_blocks.csv", workers)


def test_qiht_iteration_counts_match_golden():
    with open(os.path.join(GOLDEN_DIR, ITERATIONS), encoding="utf-8") as fh:
        assert iteration_rows() == fh.read()


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else None
    for name, configs in SWEEPS.items():
        write_sweep(os.path.join(GOLDEN_DIR, name), max_workers=workers, configs=configs)
        print(f"wrote {name}")
    with open(os.path.join(GOLDEN_DIR, ITERATIONS), "w", encoding="utf-8") as fh:
        fh.write(iteration_rows())
    print(f"wrote {ITERATIONS}")
