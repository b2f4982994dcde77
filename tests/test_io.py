"""Tests for config parsing, results CSV, and capture files."""

import dataclasses
import json
import logging
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcsradar.io
import qcsradar.quantization
from qcsradar.cli import main
from qcsradar.evaluation import AggregateResult, ExperimentConfig, GridPoint
from qcsradar.io import (
    CAPTURE_MAX_BITS,
    Capture,
    config_to_json,
    parse_config,
    read_capture,
    write_capture,
    write_results,
)
from qcsradar.quantization import Dither, QuantizerConfig, adapted_quantizer, draw_dither, sense
from qcsradar.seeding import derive_seed
from qcsradar.signal_model import RadarParams, SamplingPlan, forward, make_sampling_plan, random_profile

RADAR = RadarParams(f0=24.125e9, bandwidth=150e6, ramp_duration=1e-3, n_bins=32)


class TestParseConfig:
    def test_minimal_config_gets_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"sparsities": [2]}')
        config = parse_config(path)
        assert config.n_bins == 256
        assert config.sparsities == (2,)
        assert config.trials == 2000
        assert config.mu == 1.0
        assert config.consistency_target == 0.95
        assert config.bitrates == tuple(2**j for j in range(3, 14))

    def test_round_trip(self, tmp_path):
        config = ExperimentConfig(
            sparsities=(2, 10), bit_depths=(1, None), bitrates=(256, 8192),
            dithered=False, algorithm="qiht", trials=7, master_seed=99,
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_json(config)))
        assert parse_config(path) == config

    def test_non_integer_measurement_pair_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"bit_depths": [3], "bitrates": [10]}')
        with pytest.raises(ValueError, match="config: .*10/3"):
            parse_config(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"sparsities": [2], "sparsity": 2}')
        with pytest.raises(ValueError, match="config: unknown field"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="config: no such file"):
            parse_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{")
        with pytest.raises(ValueError, match="config: invalid JSON"):
            parse_config(path)

    def test_unquantized_spelling(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"sparsities": [2], "bit_depths": ["unquantized"], "bitrates": [256]}')
        config = parse_config(path)
        assert config.bit_depths == (None,)

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ('{"dithered": "yes"}', "dithered must be a boolean"),
            ('{"sparsities": [2.5]}', "sparsities must be a list of integers"),
            ('{"trials": "many"}', "trials must be an integer"),
            ('{"bit_depths": [1.5]}', "bit_depths entries"),
            ('{"bit_depths": [true]}', "bit_depths entries"),
            ('{"bit_depths": [1.0]}', "bit_depths entries"),
            ('{"bit_depths": ["1"]}', "bit_depths entries"),
            ('{"bit_depths": {"unquantized": 1}}', "bit_depths must be a list"),
            ('{"mu": "fast"}', "mu must be a number"),
            ('{"max_iters": true}', "max_iters must be an integer"),
            ('{"trials": 2.5}', "trials must be an integer"),
            ('{"n_bins": 256.0}', "n_bins must be an integer"),
            ('{"master_seed": "7"}', "master_seed must be an integer"),
            ('{"master_seed": 1.5}', "master_seed must be an integer"),
            ('{"consistency_target": true}', "consistency_target must be a number"),
            ('{"max_iters": 2.5}', "max_iters must be an integer or null"),
        ],
    )
    def test_field_type_validation(self, tmp_path, body, fragment):
        # A config file and a Python caller meet the same check, with the same message.
        path = tmp_path / "cfg.json"
        path.write_text(body)
        with pytest.raises(ValueError, match=f"config: {fragment}") as from_file:
            parse_config(path)
        with pytest.raises(ValueError, match=fragment) as from_python:
            ExperimentConfig(**json.loads(body))
        assert str(from_file.value) == f"config: {from_python.value}"


def _aggregate(point, mean, stderr=1.0, l2=0.5, trials=10):
    return AggregateResult(point=point, trials=trials, mean_tpr_pct=mean, stderr_pct=stderr, mean_l2_error=l2)


class TestWriteResults:
    def test_single_row(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results([_aggregate(GridPoint(2, 1, 256, True, "pbp"), 98.5)], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("K,b,log2_bitrate,M,dithered,algorithm,trials")
        assert lines[1].startswith("2,1,8,256,true,pbp,10,98.5")

    def test_rows_sorted_regardless_of_input_order(self, tmp_path):
        a = _aggregate(GridPoint(2, 1, 512, True, "pbp"), 1.0)
        b = _aggregate(GridPoint(2, 1, 256, True, "pbp"), 2.0)
        c = _aggregate(GridPoint(2, None, 512, False, "pbp"), 3.0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results([a, b, c], p1)
        write_results([c, a, b], p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()[1:]
        # undithered sorts first, then the two dithered rows by bitrate
        assert lines[0].split(",")[1] == "unquantized"
        assert lines[1].split(",")[3] == "256"
        assert lines[2].split(",")[3] == "512"

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_results([], tmp_path / "e.csv")


def _make_capture(seed=0, bit_depth=1, dithered=True, n=32, m=64, stored_values=False):
    plan_seed, dither_seed = derive_seed(seed, "plan"), derive_seed(seed, "dith")
    plan = make_sampling_plan(n, m, seed=plan_seed)
    profile = random_profile(n, 2, rng=derive_seed(seed, "prof"))
    raw = forward(plan, profile)
    quantizer = adapted_quantizer(raw, bit_depth, dithered and bit_depth is not None)
    dither = draw_dither(quantizer, m, dither_seed) if dithered and bit_depth is not None else None
    samples = sense(plan, quantizer, dither, profile)
    if stored_values or dither is None:  # without its seed, as a recorded dither is: written as its values
        dither_seed = None
    capture = Capture(plan, quantizer, dither, samples, RADAR, plan_seed=plan_seed, dither_seed=dither_seed)
    return capture, profile


class TestCaptureRoundTrip:
    def test_quantized_round_trip_is_bit_exact(self, tmp_path):
        capture, _ = _make_capture(seed=1)
        path = tmp_path / "c.iq"
        write_capture(path, capture)
        back = read_capture(path)
        np.testing.assert_array_equal(back.plan.omega, capture.plan.omega)
        assert back.quantizer == capture.quantizer
        np.testing.assert_array_equal(back.dither.values, capture.dither.values)
        # float32 payload plus grid snapping reproduces the exact samples
        np.testing.assert_array_equal(back.samples, capture.samples)
        assert back.radar == capture.radar

    def test_dither_values_form_round_trip(self, tmp_path):
        capture, _ = _make_capture(seed=2, stored_values=True)
        path = tmp_path / "c.iq"
        write_capture(path, capture)
        back = read_capture(path)
        np.testing.assert_array_equal(back.dither.values, capture.dither.values)
        assert back.dither_seed is None

    def test_unquantized_round_trip_is_float32_faithful(self, tmp_path):
        capture, _ = _make_capture(seed=3, bit_depth=None, dithered=False)
        path = tmp_path / "c.iq"
        write_capture(path, capture)
        back = read_capture(path)
        np.testing.assert_array_equal(back.samples, capture.samples.astype(np.complex64).astype(np.complex128))
        # writing the read-back capture again reproduces identical bytes
        write_capture(tmp_path / "c2.iq", back)
        assert (tmp_path / "c.iq").read_bytes() == (tmp_path / "c2.iq").read_bytes()

    def test_truncated_payload_rejected(self, tmp_path):
        capture, _ = _make_capture(seed=4)
        path = tmp_path / "c.iq"
        write_capture(path, capture)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="capture: payload holds"):
            read_capture(path)

    def test_missing_sidecar(self, tmp_path):
        capture, _ = _make_capture(seed=5)
        path = tmp_path / "c.iq"
        write_capture(path, capture)
        (tmp_path / "c.iq.json").unlink()
        with pytest.raises(ValueError, match="capture: missing sidecar"):
            read_capture(path)

    def test_unknown_schema_version(self, tmp_path):
        capture, _ = _make_capture(seed=6)
        path = tmp_path / "c.iq"
        write_capture(path, capture)
        sidecar = json.loads((tmp_path / "c.iq.json").read_text())
        sidecar["schema_version"] = 99
        (tmp_path / "c.iq.json").write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match="capture: unknown schema version"):
            read_capture(path)

    def test_dither_delta_mismatch(self, tmp_path):
        capture, _ = _make_capture(seed=7)
        path = tmp_path / "c.iq"
        write_capture(path, capture)
        sidecar = json.loads((tmp_path / "c.iq.json").read_text())
        sidecar["dither"]["delta"] *= 2.0
        (tmp_path / "c.iq.json").write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match="capture: dither delta"):
            read_capture(path)

    @pytest.mark.parametrize("store_values", [False, True])
    def test_dither_on_unquantized_sidecar_rejected(self, tmp_path, store_values):
        # A seed is not drawn without a grid: Capture's message, not the draw's, is reported.
        capture, _ = _make_capture(seed=16, stored_values=store_values)
        path = tmp_path / "c.iq"
        write_capture(path, capture)
        sidecar = json.loads((tmp_path / "c.iq.json").read_text())
        (tmp_path / "c.iq.json").write_text(json.dumps(dict(sidecar, bit_depth="unquantized")))
        with pytest.raises(ValueError, match="^capture: unquantized capture cannot carry a dither$"):
            read_capture(path)

    def test_off_grid_samples_warn_but_load(self, tmp_path, caplog):
        capture, _ = _make_capture(seed=8)
        path = tmp_path / "c.iq"
        write_capture(path, capture)
        scaled = (capture.samples * 1.37).astype("<c8")
        path.write_bytes(scaled.tobytes())
        with caplog.at_level(logging.WARNING):
            back = read_capture(path)
        assert any("off the quantization grid" in rec.message for rec in caplog.records)
        np.testing.assert_array_equal(back.samples, scaled.astype(np.complex128))

    @pytest.mark.parametrize("bit_depth", [16, 18, 20, CAPTURE_MAX_BITS])
    def test_fine_grids_snap_back_exactly(self, tmp_path, caplog, bit_depth):
        # float32 storage moves a part by up to 2**(b-25) steps: from b = 16
        # that is more than the 1e-3 steps the snap allows beyond it.
        capture, _ = _make_capture(seed=11, bit_depth=bit_depth, m=256)
        path = tmp_path / "c.iq"
        write_capture(path, capture)
        with caplog.at_level(logging.WARNING):
            back = read_capture(path)
        assert not caplog.records
        assert back.samples.tobytes() == capture.samples.tobytes()

    def test_grids_finer_than_float32_rejected_at_write(self, tmp_path):
        # Capture checks the bit depth when it is built, so no such capture reaches the writer.
        with pytest.raises(ValueError, match=f"bit depth {CAPTURE_MAX_BITS + 1} is finer"):
            _make_capture(seed=12, bit_depth=CAPTURE_MAX_BITS + 1)
        assert not (tmp_path / "c.iq").exists()

    def test_plan_seed_only_sidecar(self, tmp_path):
        capture, _ = _make_capture(seed=9)
        path = tmp_path / "c.iq"
        write_capture(path, capture)
        sidecar = json.loads((tmp_path / "c.iq.json").read_text())
        del sidecar["omega"]
        (tmp_path / "c.iq.json").write_text(json.dumps(sidecar))
        back = read_capture(path)
        np.testing.assert_array_equal(back.plan.omega, capture.plan.omega)

    def test_omega_only_sidecar_keeps_no_plan_seed(self, tmp_path):
        # No seed draws the stored omega, so none is made up on read or written back.
        capture, _ = _make_capture(seed=14, m=45)
        path = tmp_path / "c.iq"
        write_capture(path, capture)
        sidecar = json.loads((tmp_path / "c.iq.json").read_text())
        del sidecar["plan_seed"]
        text = json.dumps(sidecar, sort_keys=True) + "\n"
        (tmp_path / "c.iq.json").write_text(text)
        back = read_capture(path)
        assert back.plan_seed is None
        np.testing.assert_array_equal(back.plan.omega, capture.plan.omega)
        write_capture(tmp_path / "again.iq", back)
        assert (tmp_path / "again.iq.json").read_text() == text

    def test_a_seeded_dither_is_drawn_once_more_to_check_it(self, tmp_path, monkeypatch, capsys):
        # gen-capture and read_capture each draw it once, and Capture once to check it.
        draws = []

        def counted(*args):
            draws.append(args[-1])
            return draw_dither(*args)

        for module in (qcsradar.quantization, qcsradar.io):
            monkeypatch.setattr(module, "draw_dither", counted)
        assert main(["gen-capture", "--out", str(tmp_path / "c.iq"), "--n", "64", "--meas", "256"]) == 0
        assert len(draws) == 2 and len(set(draws)) == 1
        read_capture(tmp_path / "c.iq")
        assert len(draws) == 4 and len(set(draws)) == 1

    def test_samples_stay_as_checked(self, tmp_path):
        capture, _ = _make_capture(seed=11)
        write_capture(tmp_path / "c.iq", capture)
        back = read_capture(tmp_path / "c.iq")
        for held in (capture, back):
            with pytest.raises(ValueError, match="read-only"):
                held.samples[0] = np.nan
        samples = np.array(back.samples)
        copy = dataclasses.replace(back, samples=samples)
        samples[0] = np.nan
        assert np.isfinite(copy.samples).all()

    def test_sample_count_validated_at_write(self, tmp_path):
        # Capture checks the sample count when it is built, so no such capture reaches the writer.
        capture, _ = _make_capture(seed=10)
        with pytest.raises(ValueError, match="sample count"):
            Capture(
                plan=capture.plan,
                quantizer=capture.quantizer,
                dither=capture.dither,
                samples=capture.samples[:-1],
                radar=capture.radar,
            )


def test_round_trip_property(tmp_path):
    """write -> read gives the capture back, and writing what was read gives the same bytes."""
    first, second = tmp_path / "first.iq", tmp_path / "second.iq"

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        bit_depth=st.sampled_from([1, 2, 3, CAPTURE_MAX_BITS, None]),
        dithered=st.booleans(),
        store_values=st.booleans(),
        seeded_plan=st.booleans(),
        m=st.sampled_from([20, 32, 45]),  # below, at and above one ramp of N=32
        seed=st.integers(0, 1000),
    )
    def check(bit_depth, dithered, store_values, seeded_plan, m, seed):
        capture, _ = _make_capture(seed=seed, bit_depth=bit_depth, dithered=dithered, m=m, stored_values=store_values)
        if not seeded_plan:
            capture = dataclasses.replace(capture, plan_seed=None)
        write_capture(first, capture)
        back = read_capture(first)
        np.testing.assert_array_equal(back.plan.omega, capture.plan.omega)
        assert back.plan_seed == capture.plan_seed
        assert back.quantizer == capture.quantizer
        if capture.dither is None:
            assert back.dither is None
        else:
            assert back.dither.values.tobytes() == capture.dither.values.tobytes()
            assert back.dither_seed == capture.dither_seed
        stored = capture.samples if bit_depth is not None else capture.samples.astype(np.complex64)
        assert back.samples.tobytes() == stored.astype(np.complex128).tobytes()
        assert back.radar == capture.radar
        write_capture(second, back)
        for suffix in ("", ".json"):
            assert Path(f"{first}{suffix}").read_bytes() == Path(f"{second}{suffix}").read_bytes()

    check()


@pytest.mark.parametrize(
    "fields, fragment",
    [
        (lambda c: {"samples": np.concatenate([[complex(np.nan, 0.0)], c.samples[1:]])}, "non-finite samples"),
        (lambda c: {"radar": dataclasses.replace(c.radar, n_bins=64)}, "radar n_bins=64 differs"),
        (lambda c: {"dither": Dither(c.dither.values[:-1])}, "dither must hold 64 finite values"),
        (lambda c: {"quantizer": QuantizerConfig(None, c.quantizer.dynamic_range)}, "unquantized capture cannot carry"),
        (lambda c: {"samples": c.samples[:-1]}, "sample count"),
        (lambda c: {"quantizer": QuantizerConfig(CAPTURE_MAX_BITS + 1, c.quantizer.dynamic_range)}, "bit depth 23"),
        (lambda c: {"plan": SamplingPlan(32, 64, np.stack([c.plan.omega] * 2))}, "one sampling plan"),
        # Written as its seed alone, it would read back with the seed's values.
        (lambda c: {"dither": Dither(c.dither.values[::-1])}, "not those its seed"),
        (lambda c: {"quantizer": QuantizerConfig(1, 2 * c.quantizer.dynamic_range)}, "not those its seed"),
        # A dither seed is written in place of values, so it needs the values it draws, and a grid to draw on.
        (lambda c: {"dither": None}, "dither must hold 64 finite values"),
        (lambda c: {"quantizer": QuantizerConfig(None, c.quantizer.dynamic_range), "dither": None},
         "unquantized capture cannot carry"),
        (lambda c: {"dither": Dither(c.dither.values[None])}, "dither must hold 64 finite values"),
    ],
    ids=[
        "nan-sample", "radar-bins", "short-dither", "unquantized-dither", "sample-count", "b23", "stacked-plan",
        "seeded-values-reversed", "seeded-values-of-another-step", "seed-without-dither",
        "unquantized-dither-seed", "stacked-dither",
    ],
)
def test_invalid_capture_rejected_at_construction(fields, fragment):
    capture, _ = _make_capture(seed=15)
    with pytest.raises(ValueError, match=fragment):
        dataclasses.replace(capture, **fields(capture))


@pytest.mark.parametrize("seed", [-1, 2**64 + 7, 2.5])
@pytest.mark.parametrize("field", ["plan_seed", "dither_seed"])
def test_seed_must_be_a_draw_seed(field, seed):
    # A capture writes its seeds, and reading draws from them again; m=45 draws a plan, as a whole ramp would not.
    capture, profile = _make_capture(seed=18, m=45)
    with pytest.raises(ValueError, match="draw seeds must be integers"):
        dataclasses.replace(capture, **{field: seed})
    top = 2**64 - 1
    plan, dither = make_sampling_plan(32, 45, top), draw_dither(capture.quantizer, 45, top)
    edge = Capture(plan, capture.quantizer, dither, sense(plan, capture.quantizer, dither, profile), RADAR, top, top)
    assert (edge.plan_seed, edge.dither_seed) == (top, top)
