"""Golden-CSV regression: a fixed sweep must reproduce a committed file byte for byte.

The sweep covers PBP and QIHT; dithered 1- and 3-bit, undithered 2-bit and
unquantized acquisition; K in {2, 10}; and, at N=64, measurement counts
below one ramp, at a whole number of ramps and with a partial last ramp.
At the largest M a grid point holds more trials than one work unit of
``run_grid``, so the file also pins how split points are put back together.

``tests/golden/sweep.csv`` was written by the one-trial-at-a-time engine
that the batched engine replaced.  Regenerate it
(``PYTHONPATH=src python tests/test_golden.py``) only for a change that is
meant to alter results, and say so in CHANGES.md.
"""

import os
import sys

import pytest

from qcsradar.evaluation import ExperimentConfig, run_grid
from qcsradar.io import write_results

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "sweep.csv")

# b=1 / b=3 (dithered) and b=2 (undithered) give M = 48, a multiple of
# N = 64, and a multiple plus half a ramp; so do the unquantized rates.
_COMMON = dict(n_bins=64, sparsities=(2, 10), trials=12, master_seed=7)
_ACQUISITIONS = (
    dict(bit_depths=(1, 3), bitrates=(48, 6144, 6240), dithered=True),
    dict(bit_depths=(2,), bitrates=(96, 12288, 12480), dithered=False),
    dict(bit_depths=(None,), bitrates=(32 * 48, 32 * 6144, 32 * 6240), dithered=False),
)


def golden_configs():
    return [
        ExperimentConfig(algorithm=algorithm, **_COMMON, **acquisition)
        for algorithm in ("pbp", "qiht")
        for acquisition in _ACQUISITIONS
    ]


def write_sweep(path, max_workers):
    results = [r for config in golden_configs() for r in run_grid(config, max_workers=max_workers)]
    write_results(results, path)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_matches_golden_csv(tmp_path, workers):
    out = tmp_path / "sweep.csv"
    write_sweep(out, max_workers=workers)
    with open(GOLDEN, "rb") as fh:
        expected = fh.read()
    assert out.read_bytes() == expected


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    write_sweep(GOLDEN, max_workers=int(sys.argv[1]) if len(sys.argv) > 1 else None)
    print(f"wrote {GOLDEN}")
