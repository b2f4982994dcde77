"""End-to-end tests of the command-line surface."""

import json

import numpy as np
import pytest

from qcsradar import cli
from qcsradar.cli import main
from qcsradar.evaluation import GridPoint, run_trial


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv", [[], ["bogus"], ["recover"], ["gen-capture", "--meas", "abc"], ["ambiguity", "--seeds=--"]]
    )
    def test_parser_errors_are_one_config_line(self, capsys, argv):
        code, stdout, stderr = run_cli(capsys, *argv)
        assert code == 1 and stdout == ""
        assert stderr.startswith("error: config:") and stderr.count("\n") == 1

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qcsradar")


class TestGenCapture:
    def test_writes_files_and_reports_scene(self, tmp_path, capsys):
        out = tmp_path / "cap.iq"
        code, stdout, _ = run_cli(
            capsys, "gen-capture", "--out", str(out), "--n", "64", "--meas", "256",
            "--sparsity", "2", "--seed", "11",
        )
        assert code == 0
        report = json.loads(stdout)
        assert out.exists() and (tmp_path / "cap.iq.json").exists()
        assert len(report["support_indices"]) == 2
        assert report["n_meas"] == 256

    def test_deterministic(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.iq", tmp_path / "b.iq"
        code, stdout1, _ = run_cli(capsys, "gen-capture", "--out", str(out1), "--seed", "3", "--meas", "512")
        assert code == 0
        code, stdout2, _ = run_cli(capsys, "gen-capture", "--out", str(out2), "--seed", "3", "--meas", "512")
        assert code == 0
        assert json.loads(stdout1)["support_indices"] == json.loads(stdout2)["support_indices"]
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_bits_rejected(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "gen-capture", "--out", str(tmp_path / "c.iq"), "--bits", "one"
        )
        assert code == 1
        assert stderr.startswith("error: config:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--bits", "0"],
            ["--bits", "40"],
            ["--bits", "none"],
            ["--meas", "0"],
            ["--n", "0"],
            ["--sparsity", "0"],
            ["--sparsity", "300"],
            ["--bandwidth", "-1"],
            ["--f0", "nan"],
            ["--bits", "23"],  # finer than a float32 payload holds
            ["--bits", "32"],
            ["--bits", "true"],
            ["--bits", "1.0"],
            ["--bits", '"1"'],
        ],
    )
    def test_bad_arguments_rejected_before_writing(self, tmp_path, capsys, argv):
        out = tmp_path / "c.iq"
        code, stdout, stderr = run_cli(capsys, "gen-capture", "--out", str(out), "--meas", "64", *argv)
        assert code == 1 and stdout == ""
        assert stderr.startswith("error: config:") and stderr.count("\n") == 1
        assert not out.exists()


class TestRecover:
    def test_round_trip_recovers_programmed_scene(self, tmp_path, capsys):
        out = tmp_path / "cap.iq"
        code, stdout, _ = run_cli(
            capsys, "gen-capture", "--out", str(out), "--n", "256", "--meas", "4096",
            "--sparsity", "2", "--seed", "21",
        )
        assert code == 0
        truth = json.loads(stdout)
        code, stdout, _ = run_cli(
            capsys, "recover", "--capture", str(out), "--algo", "qiht", "--sparsity", "2"
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["support_indices"] == truth["support_indices"]
        assert report["support_bins"] == truth["support_bins"]
        assert len(report["ranges_m"]) == 2
        assert report["stop_reason"] in ("budget", "consistency_target", "consistency_drop")

    @pytest.mark.parametrize("bits", ["16", "22"])
    def test_fine_grid_capture_replays_consistently(self, tmp_path, capsys, bits):
        out = tmp_path / "fine.iq"
        run_cli(
            capsys, "gen-capture", "--out", str(out), "--n", "64", "--meas", "256",
            "--sparsity", "2", "--seed", "3", "--bits", bits,
        )
        code, stdout, stderr = run_cli(capsys, "recover", "--capture", str(out), "--algo", "qiht", "--sparsity", "2")
        report = json.loads(stdout)
        assert code == 0 and "off the quantization grid" not in stderr
        assert report["final_consistency"] == 1.0 and report["stop_reason"] == "consistency_target"

    def test_pbp_path_and_out_file(self, tmp_path, capsys):
        out = tmp_path / "cap.iq"
        run_cli(capsys, "gen-capture", "--out", str(out), "--seed", "5", "--meas", "1024")
        report_path = tmp_path / "rec.json"
        code, stdout, _ = run_cli(
            capsys, "recover", "--capture", str(out), "--algo", "pbp", "--sparsity", "2",
            "--out", str(report_path),
        )
        assert code == 0
        assert stdout == ""
        report = json.loads(report_path.read_text())
        assert report["iterations"] == 0
        assert report["algorithm"] == "pbp"
        assert 0.0 <= report["final_consistency"] <= 1.0

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda side, payload: ([side], payload),  # not a JSON object
            lambda side, payload: (dict(side, radar=None), payload),
            lambda side, payload: (dict(side, radar={k: v for k, v in side["radar"].items() if k != "bandwidth"}), payload),
            lambda side, payload: (dict(side, bit_depth="x"), payload),
            lambda side, payload: (dict(side, bit_depth=1.5), payload),
            lambda side, payload: (dict(side, bit_depth=True), payload),
            lambda side, payload: (dict(side, bit_depth=1.0), payload),
            lambda side, payload: (dict(side, bit_depth="1"), payload),
            # Draw seeds must be integers in [0, 2**64): the dither's, and a plan_seed that regenerates omega.
            lambda side, payload: (dict(side, dither=dict(side["dither"], seed=2**64 + 7)), payload),
            lambda side, payload: (dict(side, dither=dict(side["dither"], seed=-1)), payload),
            lambda side, payload: ({k: v for k, v in side.items() if k != "omega"} | {"plan_seed": 2**64 + 7}, payload),
            lambda side, payload: (dict(side, plan_seed=2**64 + 7), payload),  # stored beside omega
            lambda side, payload: (dict(side, radar=dict(side["radar"], n_bins=128)), payload),
            lambda side, payload: (side, np.concatenate([[complex(np.nan, 0.0)], payload[1:]])),
            lambda side, payload: (side, np.concatenate([payload[:-1], [complex(0.0, np.inf)]])),
            # A signaling NaN, whose float64 cast warns unless told not to.
            lambda side, payload: (side, np.concatenate([np.uint32([0x7F800001, 0]).view(np.complex64), payload[1:]])),
            # omega entries are JSON integers, never truncated into another plan.
            lambda side, payload: (dict(side, omega=[x + 0.5 for x in side["omega"]]), payload),
            lambda side, payload: (dict(side, omega=[True] * len(side["omega"])), payload),
            lambda side, payload: ({k: v for k, v in side.items() if k != "bit_depth"}, payload),
            lambda side, payload: ({k: v for k, v in side.items() if k not in ("omega", "plan_seed")}, payload),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would print a second line
    def test_malformed_capture_rejected_before_recovery(self, tmp_path, capsys, mutate):
        out = tmp_path / "cap.iq"
        run_cli(capsys, "gen-capture", "--out", str(out), "--meas", "512", "--seed", "1")
        sidecar = json.loads((tmp_path / "cap.iq.json").read_text())
        sidecar, payload = mutate(sidecar, np.fromfile(out, dtype="<c8"))
        (tmp_path / "cap.iq.json").write_text(json.dumps(sidecar))
        payload.astype("<c8").tofile(out)
        code, stdout, stderr = run_cli(capsys, "recover", "--capture", str(out), "--sparsity", "2")
        assert code == 1 and stdout == ""
        assert stderr.startswith("error: capture:") and stderr.count("\n") == 1

    def test_plan_seed_that_does_not_draw_omega_rejected(self, tmp_path, capsys):
        # Read back, it would be written out again with the wrong seed.
        out = tmp_path / "cap.iq"
        run_cli(capsys, "gen-capture", "--out", str(out), "--n", "64", "--meas", "200", "--seed", "3")
        sidecar = json.loads((tmp_path / "cap.iq.json").read_text())
        wrong = sidecar["plan_seed"] + 1
        (tmp_path / "cap.iq.json").write_text(json.dumps(dict(sidecar, plan_seed=wrong)))
        code, stdout, stderr = run_cli(capsys, "recover", "--capture", str(out), "--sparsity", "2")
        assert code == 1 and stdout == ""
        assert stderr == f"error: capture: omega is not what its plan seed {wrong} draws\n"

    def test_unquantized_sidecar_with_an_out_of_range_dither_seed_rejected(self, tmp_path, capsys):
        # Without a grid the seed is never drawn, so the dither is refused, not the seed's range.
        out = tmp_path / "cap.iq"
        run_cli(capsys, "gen-capture", "--out", str(out), "--n", "64", "--meas", "256", "--seed", "3")
        sidecar = json.loads((tmp_path / "cap.iq.json").read_text())
        dither = dict(sidecar["dither"], seed=2**64 + 7)
        (tmp_path / "cap.iq.json").write_text(json.dumps(dict(sidecar, bit_depth="unquantized", dither=dither)))
        code, stdout, stderr = run_cli(capsys, "recover", "--capture", str(out), "--sparsity", "2")
        assert code == 1 and stdout == ""
        assert stderr == "error: capture: unquantized capture cannot carry a dither\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--mu", "-1"],
            ["--mu", "nan"],
            ["--target", "7"],
            ["--max-iters", "0"],
            ["--sparsity", "0"],
            ["--algo", "pbp", "--mu", "inf"],
        ],
    )
    def test_bad_arguments_rejected_before_reading_the_capture(self, tmp_path, capsys, argv):
        # The capture does not exist: only an argument check made first reports config.
        code, stdout, stderr = run_cli(
            capsys, "recover", "--capture", str(tmp_path / "nope.iq"), "--sparsity", "2", *argv
        )
        assert code == 1 and stdout == ""
        assert stderr.startswith("error: config:") and stderr.count("\n") == 1

    @pytest.mark.parametrize("algo", ["pbp", "qiht"])
    def test_sparsity_above_the_capture_bins_rejected(self, tmp_path, capsys, algo, monkeypatch):
        out = tmp_path / "cap.iq"
        run_cli(capsys, "gen-capture", "--out", str(out), "--n", "64", "--meas", "256", "--seed", "1")

        def no_recovery(*args, **kwargs):
            raise AssertionError("recovery ran")

        monkeypatch.setattr(cli, "estimate", no_recovery)
        code, stdout, stderr = run_cli(
            capsys, "recover", "--capture", str(out), "--algo", algo, "--sparsity", "100"
        )
        assert code == 1 and stdout == ""
        assert stderr.startswith("error: config:") and stderr.count("\n") == 1

    def test_missing_capture_fails_cleanly(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "recover", "--capture", str(tmp_path / "nope.iq"), "--sparsity", "2"
        )
        assert code == 1
        assert stderr.startswith("error: capture:")


    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would print more lines
    @pytest.mark.parametrize("algo", ["pbp", "qiht"])
    def test_range_too_small_for_the_samples_rejected_on_read(self, tmp_path, capsys, algo):
        # The samples' cell indices overflow, so snapping them would give non-finite samples.
        out = tmp_path / "cap.iq"
        run_cli(capsys, "gen-capture", "--out", str(out), "--n", "64", "--meas", "256", "--seed", "3")
        sidecar = json.loads((tmp_path / "cap.iq.json").read_text())
        del sidecar["dither"]["delta"]
        (tmp_path / "cap.iq.json").write_text(json.dumps(dict(sidecar, dynamic_range=1e-320)))
        code, stdout, stderr = run_cli(capsys, "recover", "--capture", str(out), "--algo", algo, "--sparsity", "2")
        assert code == 1 and stdout == ""
        assert stderr.startswith("error: capture:") and stderr.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would print more lines
    @pytest.mark.parametrize("algo", ["pbp", "qiht"])
    @pytest.mark.parametrize("bits", [["--bits", "1"], ["--bits", "unquantized", "--no-dithered"]])
    def test_zero_measurement_capture_rejected_on_read(self, tmp_path, capsys, bits, algo):
        # A plan needs n_meas >= 1, however it was made; recovery would reduce over no samples.
        out = tmp_path / "cap.iq"
        run_cli(capsys, "gen-capture", "--out", str(out), "--n", "64", "--meas", "256", "--seed", "3", *bits)
        sidecar = json.loads((tmp_path / "cap.iq.json").read_text())
        (tmp_path / "cap.iq.json").write_text(json.dumps(dict(sidecar, n_meas=0, omega=[])))
        out.write_bytes(b"")
        code, stdout, stderr = run_cli(capsys, "recover", "--capture", str(out), "--algo", algo, "--sparsity", "2")
        assert code == 1 and stdout == ""
        assert stderr == "error: capture: n_meas must be >= 1\n"

    @pytest.mark.parametrize("bits", [23, 26])
    def test_grid_finer_than_float32_rejected_on_read(self, tmp_path, capsys, monkeypatch, bits):
        # From b = 25 a float32 payload snaps into wrong cells without a warning.
        out = tmp_path / "cap.iq"
        run_cli(capsys, "gen-capture", "--out", str(out), "--n", "64", "--meas", "256", "--seed", "3")
        sidecar = json.loads((tmp_path / "cap.iq.json").read_text())
        (tmp_path / "cap.iq.json").write_text(json.dumps(dict(sidecar, bit_depth=bits)))

        def no_recovery(*args, **kwargs):
            raise AssertionError("recovery ran")

        monkeypatch.setattr(cli, "estimate", no_recovery)
        code, stdout, stderr = run_cli(capsys, "recover", "--capture", str(out), "--sparsity", "2")
        assert code == 1 and stdout == ""
        assert stderr.startswith(f"error: capture: bit depth {bits} is finer") and stderr.count("\n") == 1


def _profile(scene, n_bins):
    """The length-N profile of a gen-capture or recover report: its amplitudes on its support."""
    profile = np.zeros(n_bins, dtype=complex)
    profile[scene["support_indices"]] = [complex(re, im) for re, im in scene["amplitudes"]]
    return profile


# The K=10, M=32 QIHT rows (below one ramp, so a step above 1) diverge until
# they overflow and run their whole budget; they return their best finite iterate.
diverging_qiht_rows = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning"
)


@pytest.mark.parametrize(
    "n_bins, n_meas, bits, dithered, sparsity",
    [
        (256, 256, 1, True, 2),
        (256, 256, 2, False, 10),
        pytest.param(256, 32, 1, True, 10, marks=diverging_qiht_rows),
        (256, 2048, 3, True, 2),
        (64, 200, 1, True, 2),  # three whole ramps and part of a fourth
        (64, 200, 3, False, 2),
        (64, 48, 2, True, 1),
        (256, 8192, 1, True, 2),
    ],
)
def test_quantized_capture_replays_its_sweep_trial(tmp_path, capsys, n_bins, n_meas, bits, dithered, sparsity):
    """``gen-capture --seed s`` then ``recover`` is trial 0 of the point's sweep under master seed s.

    Hits, l2 error bytes and iteration count must all match ``run_trial``.
    """
    out = tmp_path / "cap.iq"
    for seed in (5, 17, 1234):
        code, stdout, _ = run_cli(
            capsys, "gen-capture", "--out", str(out), "--n", str(n_bins), "--meas", str(n_meas), "--bits", str(bits),
            "--dithered" if dithered else "--no-dithered", "--sparsity", str(sparsity), "--seed", str(seed),
        )
        assert code == 0
        truth = json.loads(stdout)
        for algo in ("pbp", "qiht"):
            code, stdout, _ = run_cli(capsys, "recover", "--capture", str(out), "--algo", algo, "--sparsity", str(sparsity))
            assert code == 0
            report = json.loads(stdout)
            hits = len(set(truth["support_indices"]) & set(report["support_indices"]))
            l2 = np.linalg.norm(_profile(truth, n_bins) - _profile(report, n_bins))
            trial = run_trial(GridPoint(sparsity, bits, bits * n_meas, dithered, algo), 0, seed, n_bins=n_bins)
            got = (hits, l2.tobytes(), report["iterations"])
            assert got == (trial.hits[0], trial.l2_error[0].tobytes(), trial.iterations[0]), (seed, algo)


class TestBitDepthSpellings:
    """argv, config files and capture sidecars accept the same unquantized spellings.

    The spellings all three reject (true, 1.0, "1") are inputs of the
    malformed argv, sidecar and config tests.
    """

    @pytest.mark.parametrize("spelling", [None, "unquantized"])
    def test_unquantized_spellings_accepted(self, tmp_path, capsys, spelling):
        out = tmp_path / "cap.iq"
        code, stdout, _ = run_cli(
            capsys, "gen-capture", "--out", str(out), "--n", "64", "--meas", "256", "--bits", "unquantized",
            "--no-dithered", "--seed", "4",
        )
        assert code == 0 and json.loads(stdout)["bit_depth"] == "unquantized"
        sidecar = json.loads((tmp_path / "cap.iq.json").read_text())
        assert sidecar["bit_depth"] == "unquantized"
        (tmp_path / "cap.iq.json").write_text(json.dumps(dict(sidecar, bit_depth=spelling)))
        code, stdout, _ = run_cli(capsys, "recover", "--capture", str(out), "--algo", "pbp", "--sparsity", "2")
        assert code == 0 and json.loads(stdout)["final_consistency"] is None
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n_bins": 64, "bit_depths": [spelling], "bitrates": [512], "trials": 3}))
        code, _, _ = run_cli(capsys, "simulate", "--config", str(config), "--out", str(tmp_path / "r.csv"))
        assert code == 0 and (tmp_path / "r.csv").read_text().splitlines()[1].split(",")[1] == "unquantized"


class TestFileErrors:
    """A file that cannot be read or written ends in one ``<kind>:`` line."""

    def _capture(self, tmp_path, capsys):
        out = tmp_path / "cap.iq"
        run_cli(capsys, "gen-capture", "--out", str(out), "--n", "64", "--meas", "256", "--seed", "1")
        return out

    def _one_line(self, code, stdout, stderr, kind):
        assert code == 1 and stdout == ""
        assert stderr.startswith(f"error: {kind}: ") and stderr.count("\n") == 1

    def test_config_that_is_a_directory(self, tmp_path, capsys):
        result = run_cli(capsys, "simulate", "--config", str(tmp_path), "--out", str(tmp_path / "r.csv"))
        self._one_line(*result, "config")
        assert not (tmp_path / "r.csv").exists()

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"trials": 2, "master_seed": "\xff"}')
        result = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv"))
        self._one_line(*result, "config")

    @pytest.mark.parametrize("part", ["cap.iq", "cap.iq.json"])
    def test_capture_file_that_is_a_directory(self, tmp_path, capsys, part):
        out = self._capture(tmp_path, capsys)
        (tmp_path / part).unlink()
        (tmp_path / part).mkdir()
        result = run_cli(capsys, "recover", "--capture", str(out), "--sparsity", "2")
        self._one_line(*result, "capture")

    @pytest.mark.parametrize("part, fault", [("cap.iq", "missing payload"), ("cap.iq.json", "invalid sidecar JSON")])
    def test_capture_file_missing_or_not_json(self, tmp_path, capsys, part, fault):
        out = self._capture(tmp_path, capsys)
        if part == "cap.iq":
            (tmp_path / part).unlink()
        else:
            (tmp_path / part).write_text('{"schema_version": 1,')
        result = run_cli(capsys, "recover", "--capture", str(out), "--sparsity", "2")
        self._one_line(*result, "capture")
        assert result[2].startswith(f"error: capture: {fault} ")

    def test_sidecar_that_is_not_utf8(self, tmp_path, capsys):
        out = self._capture(tmp_path, capsys)
        sidecar = tmp_path / "cap.iq.json"
        sidecar.write_bytes(sidecar.read_bytes().replace(b'"radar"', b'"\xffradar"'))
        result = run_cli(capsys, "recover", "--capture", str(out), "--sparsity", "2")
        self._one_line(*result, "capture")

    def test_report_that_cannot_be_written(self, tmp_path, capsys):
        out = self._capture(tmp_path, capsys)
        report = tmp_path / "missing" / "r.json"
        code, stdout, stderr = run_cli(
            capsys, "recover", "--capture", str(out), "--sparsity", "2", "--algo", "pbp", "--out", str(report)
        )
        self._one_line(code, stdout, stderr, "io")
        assert stderr.startswith(f"error: io: cannot write report to {report}: ")


    @staticmethod
    def _no_call(name):
        def spy(*args, **kwargs):
            raise AssertionError(f"{name} ran")

        return spy

    @pytest.mark.parametrize("target", ["missing/r.csv", "."])
    def test_results_path_rejected_before_any_trial(self, tmp_path, capsys, monkeypatch, target):
        monkeypatch.setattr(cli, "run_grid", self._no_call("the grid"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 400, "bitrates": [8192]}))
        out = tmp_path / target
        result = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        self._one_line(*result, "io")
        assert result[2].startswith(f"error: io: cannot write results to {out}: ")

    def test_report_path_rejected_before_recovery(self, tmp_path, capsys, monkeypatch):
        out = self._capture(tmp_path, capsys)
        monkeypatch.setattr(cli, "read_capture", self._no_call("reading the capture"))
        monkeypatch.setattr(cli, "estimate", self._no_call("recovery"))
        report = tmp_path / "missing" / "r.json"
        result = run_cli(capsys, "recover", "--capture", str(out), "--sparsity", "2", "--out", str(report))
        self._one_line(*result, "io")
        assert result[2].startswith(f"error: io: cannot write report to {report}: ")

    @pytest.mark.parametrize("target, rejected", [("missing/x.iq", "missing/x.iq"), ("x.iq", "x.iq.json")])
    def test_capture_paths_rejected_before_the_first_draw(self, tmp_path, capsys, monkeypatch, target, rejected):
        # Checked before any draw or write: neither an orphan payload nor a sidecar is left behind.
        (tmp_path / "x.iq.json").mkdir()
        monkeypatch.setattr(cli, "random_profile", self._no_call("the profile draw"))
        out = tmp_path / target
        result = run_cli(capsys, "gen-capture", "--out", str(out), "--meas", "512", "--seed", "1")
        self._one_line(*result, "io")
        assert result[2].startswith(f"error: io: cannot write capture to {tmp_path / rejected}: ")
        assert sorted(path.name for path in tmp_path.rglob("*")) == ["x.iq.json"]

    def test_results_path_lost_after_the_check_still_fails_cleanly(self, tmp_path, capsys, monkeypatch):
        # The directory can go away between the check and the write.
        monkeypatch.setattr(cli, "check_output_path", lambda path, what: None)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 2, "bitrates": [64]}))
        out = tmp_path / "missing" / "r.csv"
        result = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        self._one_line(*result, "io")
        assert result[2].startswith(f"error: io: cannot write results to {out}: ")

    def test_capture_path_lost_after_the_check_still_fails_cleanly(self, tmp_path, capsys, monkeypatch):
        # The sidecar path can become a directory between the check and the write: no orphan payload stays.
        monkeypatch.setattr(cli, "check_output_path", lambda path, what: None)
        (tmp_path / "x.iq.json").mkdir()
        result = run_cli(capsys, "gen-capture", "--out", str(tmp_path / "x.iq"), "--meas", "512", "--seed", "1")
        self._one_line(*result, "io")
        assert result[2].startswith(f"error: io: cannot write capture to {tmp_path / 'x.iq.json'}: ")
        assert sorted(path.name for path in tmp_path.rglob("*")) == ["x.iq.json"]


class TestParserReuse:
    def test_back_to_back_calls_do_not_leak_options(self, tmp_path, capsys):
        # The parser is built once per process; each call starts from the defaults.
        first, second = tmp_path / "a.iq", tmp_path / "b.iq"
        code, stdout, _ = run_cli(
            capsys, "gen-capture", "--out", str(first), "--meas", "64", "--no-dithered", "--store-dither-values"
        )
        assert code == 0 and json.loads(stdout)["dithered"] is False
        code, stdout, _ = run_cli(capsys, "gen-capture", "--out", str(second), "--meas", "64")
        assert code == 0 and json.loads(stdout)["dithered"] is True
        dither = json.loads((tmp_path / "b.iq.json").read_text())["dither"]
        assert set(dither) == {"seed", "delta"}


class TestAmbiguityCommand:
    def test_report_shape(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "ambiguity", "--n", "256", "--n0", "64", "--n1", "10",
            "--psi0", str(np.pi / 4), "--gamma", "0.5", "--meas", "512", "--seeds", "40",
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["condition_holds"] is True
        assert report["undithered_AC"] is True
        assert report["dithered_AC_rate"] < 0.05
        assert report["n_seeds"] == 40

    def test_invalid_gamma(self, capsys):
        code, _, stderr = run_cli(capsys, "ambiguity", "--gamma", "1.5")
        assert code == 1
        assert stderr.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [["--seeds", "-1"], ["--seeds", "0"], ["--n", "0"], ["--gamma", "2"], ["--bits", "0"], ["--meas", "0"]],
    )
    def test_bad_arguments_rejected(self, capsys, argv):
        code, stdout, stderr = run_cli(capsys, "ambiguity", "--meas", "64", "--seeds", "2", *argv)
        assert code == 1 and stdout == ""
        assert stderr.startswith("error: config:") and stderr.count("\n") == 1


class TestSizeErrors:
    """Sizes that parse but that no array can hold end in one ``size:`` line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-capture", "--n", "64", "--meas", str(2**40)],
            ["gen-capture", "--n", str(2**70)],
            ["ambiguity", "--n", str(2**40), "--meas", "64", "--seeds", "2"],
        ],
    )
    def test_huge_argv_sizes(self, tmp_path, capsys, argv):
        if argv[0] == "gen-capture":
            argv = argv + ["--out", str(tmp_path / "c.iq")]
        code, stdout, stderr = run_cli(capsys, *argv)
        assert code == 1 and stdout == ""
        assert stderr.startswith("error: size:") and stderr.count("\n") == 1

    # numpy raises MemoryError at 2^40, ValueError ("array is too big") from
    # 2^59 on, and OverflowError at 2^70.
    @pytest.mark.parametrize("n_bins", [2**40, 2**62, 2**70])
    def test_huge_config_bins(self, tmp_path, capsys, n_bins):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_bins": n_bins, "bitrates": [64], "trials": 1}))
        out = tmp_path / "r.csv"
        code, stdout, stderr = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out), "--workers", "1")
        assert code == 1 and stdout == ""
        assert stderr.startswith("error: size:") and stderr.count("\n") == 1
        assert not out.exists()


class TestSimulateCommand:
    def _write_config(self, tmp_path, **overrides):
        config = {
            "sparsities": [2],
            "bit_depths": [1],
            "bitrates": [64, 128],
            "trials": 5,
            "master_seed": 7,
        }
        config.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        return path

    def test_writes_csv(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "res.csv"
        code, stdout, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("K,b,log2_bitrate")

    def test_reproducible_output(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out1))[0] == 0
        assert run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_results(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out1))
        run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out2), "--seed", "8", "--trials", "6")
        assert out1.read_bytes() != out2.read_bytes()

    def test_bad_config_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"bit_depths": [3], "bitrates": [10]}')
        code, _, stderr = run_cli(
            capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "r.csv")
        )
        assert code == 1
        assert stderr.startswith("error: config:")

    @pytest.mark.parametrize(
        "overrides, argv",
        [
            ({"algorithm": "qiht", "mu": -1}, []),
            ({"mu": float("nan")}, []),
            ({"consistency_target": 7}, []),
            ({"algorithm": "qiht", "consistency_target": 0}, []),
            ({"max_iters": 0}, []),
            ({}, ["--trials", "0"]),
            ({}, ["--seed", "3", "--trials", "-2"]),
        ],
    )
    def test_bad_values_rejected_before_any_trial(self, tmp_path, capsys, overrides, argv):
        cfg = self._write_config(tmp_path, **overrides)
        code, _, stderr = run_cli(
            capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv"), *argv
        )
        assert code == 1
        assert stderr.startswith("error: config:") and stderr.count("\n") == 1
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("field", ["mu", "consistency_target"])
    def test_integer_too_large_for_a_float_names_its_field(self, tmp_path, capsys, field):
        cfg = self._write_config(tmp_path, algorithm="qiht", **{field: 10**400})
        code, _, stderr = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv"))
        assert code == 1 and stderr.startswith(f"error: config: {field} ") and stderr.count("\n") == 1
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected_before_any_trial(self, tmp_path, capsys, monkeypatch, workers):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(cli, "run_grid", no_grid)
        cfg = self._write_config(tmp_path)
        code, stdout, stderr = run_cli(
            capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv"), "--workers", workers
        )
        assert code == 1 and stdout == ""
        assert stderr.startswith("error: config: argument --workers") and stderr.count("\n") == 1

    def test_all_points_out_of_range_fails_cleanly(self, tmp_path, capsys):
        # every (b, bitrate) pair lands outside the admissible M range
        cfg = self._write_config(tmp_path, bit_depths=[2], bitrates=[8])
        code, _, stderr = run_cli(
            capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")
        )
        assert code == 1
        assert stderr.startswith("error: config:")
        assert not (tmp_path / "r.csv").exists()
