"""Tests of the benchmark's own checks and tracer.

Each check must pass on a real output of the package and reject the same
output once corrupted.  Run from the repository root:

    python3 -m pytest -q qcsbench
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import qcsradar.cli  # noqa: E402
import qcsradar.io  # noqa: E402
import qcsradar.quantization  # noqa: E402
import qcsradar.signal_model  # noqa: E402

SWEEP = {"sparsity": 2, "bit_depth": 1, "bitrates": [8, 512, 8192], "dithered": True,
         "algorithm": "pbp", "trials": 4}


def cli(argv):
    result = workloads.call_cli(qcsradar.cli, argv)
    workloads.require_ok(result, argv)
    return json.loads(result.out) if result.out.startswith("{") else result.out


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    config = tmp / "c.json"
    config.write_text(json.dumps({"bitrates": SWEEP["bitrates"], "trials": SWEEP["trials"]}))
    cli(["simulate", "--config", str(config), "--out", str(tmp / "r.csv"), "--workers", "1"])
    return (tmp / "r.csv").read_text()


def rejects(check, *args, **kwargs):
    with pytest.raises(checks.CheckError):
        check(*args, **kwargs)


# --- sweeps ---------------------------------------------------------------


def test_sweep_rows_accept_real_output(sweep_csv):
    checks.check_sweep_rows(checks.parse_results_csv(sweep_csv), **SWEEP)


@pytest.mark.parametrize("field,value", [("trials", 5), ("M", 511), ("K", 3), ("algorithm", "qiht")])
def test_sweep_rows_reject_a_wrong_field(sweep_csv, field, value):
    rows = checks.parse_results_csv(sweep_csv)
    rows[1][field] = value
    rejects(checks.check_sweep_rows, rows, **SWEEP)


def test_sweep_rows_reject_a_missing_point(sweep_csv):
    rejects(checks.check_sweep_rows, checks.parse_results_csv(sweep_csv)[:-1], **SWEEP)


def test_results_header_is_checked(sweep_csv):
    rejects(checks.parse_results_csv, sweep_csv.replace("mean_tpr_pct", "tpr"))


def test_pbp_curve_levels():
    checks.check_pbp_curve(98.9, 93.0)
    rejects(checks.check_pbp_curve, 96.0, 93.0)  # off the pinned band
    rejects(checks.check_pbp_curve, 97.5, 97.5)  # saturated


def test_qiht_point_levels():
    checks.check_qiht_point(85.35, 55.29)
    rejects(checks.check_qiht_point, 81.0, 55.29)
    rejects(checks.check_qiht_point, 85.35, 59.0)
    rejects(checks.check_qiht_point, 85.35, 86.0)


def test_pooled_tpr_weights_by_trials():
    rows = [[{"bitrate": 8, "tpr": 100.0, "trials": 3}], [{"bitrate": 8, "tpr": 0.0, "trials": 1}]]
    assert checks.pooled_tpr(rows, 8) == 75.0


# --- captures -------------------------------------------------------------


def capture(tmp, *extra, algo="qiht", meas=512):
    path = str(tmp / "cap.iq")
    truth = cli(["gen-capture", "--out", path, "--meas", str(meas), "--sparsity", "2", "--seed", "3", *extra])
    report = cli(["recover", "--capture", path, "--algo", algo, "--sparsity", "2"])
    sidecar, payload = checks.read_capture_files(path)
    read = qcsradar.io.read_capture(path)
    dither = None if read.dither is None else read.dither.values
    return path, truth, report, sidecar, payload, read.samples, dither


KINDS = [((), "qiht"), (("--store-dither-values",), "pbp"), (("--bits", "3"), "qiht"),
         (("--no-dithered",), "pbp"), (("--bits", "unquantized"), "qiht")]


@pytest.mark.parametrize("extra,algo", KINDS)
def test_capture_checks_accept_real_round_trips(tmp_path, extra, algo):
    _, truth, report, sidecar, payload, samples, dither = capture(tmp_path, *extra, algo=algo)
    checks.check_generated(truth, sidecar, payload, samples, dither)
    checks.check_recovered(report, sidecar, payload, dither, algorithm=algo, sparsity=2)


def test_flipped_measurement_cell_is_rejected(tmp_path):
    _, truth, report, sidecar, payload, samples, dither = capture(tmp_path)
    flipped = payload.copy()
    flipped[7] = complex(-flipped[7].real, flipped[7].imag)
    rejects(checks.check_generated, truth, sidecar, flipped, samples, dither)
    rejects(checks.check_recovered, report, sidecar, flipped, dither, algorithm="qiht", sparsity=2)


def test_off_grid_read_back_is_rejected(tmp_path):
    _, truth, _, sidecar, payload, samples, dither = capture(tmp_path)
    rejects(checks.check_generated, truth, sidecar, payload, samples + 1e-9, dither)


def test_wrong_dither_is_rejected(tmp_path):
    _, truth, _, sidecar, payload, samples, dither = capture(tmp_path)
    rejects(checks.check_generated, truth, sidecar, payload, samples, np.roll(dither, 1))


def test_shuffled_support_is_rejected(tmp_path):
    _, truth, report, sidecar, payload, _, dither = capture(tmp_path)
    unsorted = dict(report, support_indices=report["support_indices"][::-1])
    rejects(checks.check_recovered, unsorted, sidecar, payload, dither, algorithm="qiht", sparsity=2)
    moved = [(i + 17) % 256 for i in report["support_indices"]]
    moved = dict(report, support_indices=sorted(moved), support_bins=[i or 256 for i in sorted(moved)])
    moved["ranges_m"] = [b * checks.SPEED_OF_LIGHT / 300e6 for b in moved["support_bins"]]
    rejects(checks.check_recovered, moved, sidecar, payload, dither, algorithm="qiht", sparsity=2)
    truth_moved = dict(truth, support_indices=moved["support_indices"], support_bins=moved["support_bins"])
    rejects(checks.check_generated, truth_moved, sidecar, payload, payload.astype(complex), dither)


def test_wrong_range_and_consistency_are_rejected(tmp_path):
    _, _, report, sidecar, payload, _, dither = capture(tmp_path)
    kwargs = {"algorithm": "qiht", "sparsity": 2}
    far = dict(report, ranges_m=[r * 1.001 for r in report["ranges_m"]])
    rejects(checks.check_recovered, far, sidecar, payload, dither, **kwargs)
    off = dict(report, final_consistency=report["final_consistency"] - 1 / payload.size)
    rejects(checks.check_recovered, off, sidecar, payload, dither, **kwargs)


def test_capture_tpr_floor():
    checks.check_capture_tpr(95, 100)
    rejects(checks.check_capture_tpr, 94, 100)


def test_boundary_values_may_land_in_either_cell():
    step = 2.0
    held = (np.array([0.0, -1.0]), np.array([0.0, 0.0]))
    values = np.array([1e-17 + 0.5j, -1e-17 + 0.5j])  # real parts on the boundary at 0
    sure, possible = checks.matches(values, step, held)
    assert not sure.any() and possible.all()


# --- ambiguity ------------------------------------------------------------


def test_ambiguity_check():
    args = {"n_bins": 256, "n_meas": 1024, "bin_base": 64, "phase_base": math.pi / 4, "gamma": 0.5, "n_seeds": 20}
    report = cli(["ambiguity", "--n0", "64", "--psi0", repr(math.pi / 4), "--gamma", "0.5", "--seeds", "20"])
    checks.check_ambiguity(report, **args)
    rejects(checks.check_ambiguity, dict(report, undithered_AC=False), **args)
    rejects(checks.check_ambiguity, dict(report, margin=0.4), **args)
    rejects(checks.check_ambiguity, dict(report, condition_holds=False), **args)
    assert checks.unit_target_margin(256, 1024, 64, math.pi / 4) == pytest.approx(math.sqrt(0.5))


# --- faults ---------------------------------------------------------------


def test_rejected_cleanly():
    assert checks.rejected_cleanly(1, "error: capture: bad sidecar\n", None)
    assert not checks.rejected_cleanly(0, "", None)
    assert not checks.rejected_cleanly(None, "", KeyError("bandwidth"))
    assert not checks.rejected_cleanly(1, "error: bad\n", None)
    assert not checks.rejected_cleanly(1, "error: capture: a\nerror: capture: b\n", None)


# --- tracer ---------------------------------------------------------------


def test_tracer_self_time_and_restore():
    tracer = Tracer()
    original = qcsradar.signal_model.forward
    tracer.install({"signal_model.forward": (None, None), "quantization.sense": (None, None)})
    try:
        assert qcsradar.quantization.forward is not original  # the importing module's binding
        plan = qcsradar.signal_model.make_sampling_plan(16, 8, seed=1)
        quantizer = qcsradar.quantization.QuantizerConfig(1, 4.0)
        qcsradar.quantization.sense(plan, quantizer, None, np.ones(16, dtype=complex))
    finally:
        tracer.restore()
    assert qcsradar.quantization.forward is original and qcsradar.signal_model.forward is original
    (sense_name, s0, s1, s_parent), (fwd_name, f0, f1, f_parent) = tracer.spans
    assert (sense_name, s_parent, fwd_name, f_parent) == ("quantization.sense", -1, "signal_model.forward", 0)
    stats = tracer.summary()
    assert stats["quantization.sense"]["self_s"] == pytest.approx((s1 - s0) - (f1 - f0))
    assert stats["signal_model.forward"]["self_s"] == pytest.approx(f1 - f0)
