"""Capture files and recover reports pinned byte for byte, and the stored dither values codec.

The files under ``tests/golden/captures/`` were written by ``gen-capture``
with N=64, M=200 (three full ramps and a partial fourth), K=2 and seed 11,
before the sidecar writer was rewritten; the writer must keep producing
them exactly.  ``tests/golden/reports/<kind>.<algo>.json`` is the stdout of
``recover --capture <kind>.iq --algo <algo> --sparsity 2`` on each of them,
written before sweeps and the CLI shared one acquisition and one
estimation path.
"""

import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from qcsradar.cli import main
from qcsradar.io import read_capture, write_capture

GOLDEN = Path(__file__).parent / "golden" / "captures"
REPORTS = Path(__file__).parent / "golden" / "reports"

KINDS = [
    ("1bit_dither_seed", ["--bits", "1"]),
    ("1bit_dither_values", ["--bits", "1", "--store-dither-values"]),
    ("3bit_dither_seed", ["--bits", "3"]),
    ("1bit_undithered", ["--bits", "1", "--no-dithered"]),
    ("unquantized", ["--bits", "unquantized", "--no-dithered"]),
]


def gen_capture(path, flags):
    argv = ["gen-capture", "--out", str(path), "--n", "64", "--meas", "200", "--sparsity", "2", "--seed", "11"]
    return main(argv + flags)


def assert_same_files(path, stem):
    assert Path(path).read_bytes() == (GOLDEN / f"{stem}.iq").read_bytes()
    assert Path(f"{path}.json").read_bytes() == (GOLDEN / f"{stem}.iq.json").read_bytes()


@pytest.mark.parametrize("stem, flags", KINDS, ids=[k[0] for k in KINDS])
def test_gen_capture_writes_golden_bytes(tmp_path, capsys, stem, flags):
    out = tmp_path / f"{stem}.iq"
    assert gen_capture(out, flags) == 0
    assert_same_files(out, stem)


@pytest.mark.parametrize("stem", [k[0] for k in KINDS])
def test_read_then_write_reproduces_golden_bytes(tmp_path, stem):
    capture = read_capture(GOLDEN / f"{stem}.iq")
    out = tmp_path / f"{stem}.iq"
    write_capture(out, capture, store_dither_values=stem == "1bit_dither_values")
    assert_same_files(out, stem)


@pytest.mark.parametrize("algo", ["pbp", "qiht"])
@pytest.mark.parametrize("stem", [k[0] for k in KINDS])
def test_recover_writes_golden_report(capsys, stem, algo):
    assert main(["recover", "--capture", str(GOLDEN / f"{stem}.iq"), "--algo", algo, "--sparsity", "2"]) == 0
    assert capsys.readouterr().out.encode() == (REPORTS / f"{stem}.{algo}.json").read_bytes()


def copy_golden_values_capture(tmp_path):
    out = tmp_path / "cap.iq"
    shutil.copyfile(GOLDEN / "1bit_dither_values.iq", out)
    sidecar = json.loads((GOLDEN / "1bit_dither_values.iq.json").read_text())
    return out, sidecar


def test_stored_values_keep_every_bit(tmp_path):
    out, sidecar = copy_golden_values_capture(tmp_path)
    smallest = 5e-324  # the least subnormal
    odd = [[-0.0, smallest], [2.2250738585072014e-308 / 3, -0.0], [0.0, -smallest], [-smallest, 0.0]]
    sidecar["dither"]["values"][: len(odd)] = odd
    text = json.dumps(sidecar, sort_keys=True) + "\n"
    (tmp_path / "cap.iq.json").write_text(text)

    capture = read_capture(out)
    expected = np.array(sidecar["dither"]["values"], dtype=np.float64)
    got = np.stack([capture.dither.values.real, capture.dither.values.imag], axis=1)
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert math.copysign(1.0, capture.dither.values[0].real) == -1.0
    assert math.copysign(1.0, capture.dither.values[1].imag) == -1.0

    again = tmp_path / "again.iq"
    write_capture(again, capture, store_dither_values=True)
    assert (tmp_path / "again.iq.json").read_text() == text


def _set_entry(entry):
    def mutate(values):
        values[5] = entry
        return values

    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        _set_entry([0.25]),
        _set_entry([0.25, -0.25, 0.125]),
        _set_entry(["0.25", -0.25]),
        _set_entry("x"),
        _set_entry([None, -0.25]),
        _set_entry([0.25, {"im": -0.25}]),
        _set_entry({"re": 0.25, "im": -0.25}),
        _set_entry(0.25),
        lambda values: values[:-1],
        lambda values: values + [[0.25, -0.25]],
        lambda values: "values",
    ],
    ids=[
        "ragged", "triple", "string-number", "string", "null", "object-in-pair", "object", "number",
        "one-too-few", "one-too-many", "not-a-list",
    ],
)
def test_malformed_values_rejected_before_recovery(tmp_path, capsys, mutate):
    out, sidecar = copy_golden_values_capture(tmp_path)
    sidecar["dither"]["values"] = mutate(sidecar["dither"]["values"])
    (tmp_path / "cap.iq.json").write_text(json.dumps(sidecar, sort_keys=True))
    code = main(["recover", "--capture", str(out), "--sparsity", "2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: capture:") and captured.err.count("\n") == 1
