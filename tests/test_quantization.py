"""Tests for the mid-rise quantizer, dither, and sensing operator."""

import numpy as np
import pytest

import brute
from qcsradar.quantization import (
    Dither,
    QuantizerConfig,
    adapted_quantizer,
    decode_bit_depth,
    draw_dither,
    dynamic_range_for,
    encode_bit_depth,
    quantize_complex,
    sense,
)
from qcsradar.signal_model import RangeProfile, forward, make_sampling_plan


class TestBitDepthCodec:
    @pytest.mark.parametrize("spelling, bit_depth", [(None, None), ("unquantized", None), (1, 1), (22, 22), (99, 99)])
    def test_decode(self, spelling, bit_depth):
        # Spelling and type only: the range is check_bit_depth's.
        assert decode_bit_depth(spelling) == bit_depth

    @pytest.mark.parametrize("spelling", [True, False, 1.0, "1", "None", "", [1], np.float64(2.0)])
    def test_decode_rejects(self, spelling):
        with pytest.raises(ValueError, match="must be an integer or"):
            decode_bit_depth(spelling)

    @pytest.mark.parametrize("bit_depth", [None, 1, 3, 32])
    def test_encode_round_trips(self, bit_depth):
        spelling = encode_bit_depth(bit_depth)
        assert spelling == ("unquantized" if bit_depth is None else bit_depth)
        assert decode_bit_depth(spelling) == bit_depth


class TestScalarQuantizer:
    # One real sample is a 0-d input to quantize_complex; its real part is the sample's cell.
    def test_two_bit_examples(self):
        cfg = QuantizerConfig(bit_depth=2, dynamic_range=1.0)
        assert cfg.step == 0.5
        assert quantize_complex(cfg, 0.0).real == 0.25
        assert quantize_complex(cfg, 0.3).real == 0.25
        assert quantize_complex(cfg, -0.3).real == -0.25
        assert quantize_complex(cfg, np.float64(0.3)).shape == ()

    def test_one_bit_comparator(self):
        cfg = QuantizerConfig(bit_depth=1, dynamic_range=1.0)
        assert quantize_complex(cfg, 0.7).real == 0.5
        assert 2 * quantize_complex(cfg, [0.7]).real[0] / cfg.dynamic_range == 1.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        for b in (1, 2, 3, 5, 8):
            cfg = QuantizerConfig(bit_depth=b, dynamic_range=1.7)
            for lam in rng.uniform(-3.0, 3.0, size=200):
                assert quantize_complex(cfg, lam).real == brute.midrise_scalar(lam, cfg.step)

    def test_sign_identity_inside_range(self):
        # 2 Q1(x) / Delta == sign(x) on (-Delta, Delta) \ {0}; the formula
        # has no saturation, so the identity is asserted on the open range.
        delta_range = 1.3
        cfg = QuantizerConfig(bit_depth=1, dynamic_range=delta_range)
        lams = np.linspace(-delta_range, delta_range, 1001)[1:-1]
        lams = lams[lams != 0.0]
        quantized = quantize_complex(cfg, lams + 0j).real
        np.testing.assert_array_equal(2 * quantized / delta_range, np.sign(lams))

    def test_monotone(self):
        cfg = QuantizerConfig(bit_depth=3, dynamic_range=2.0)
        lams = np.sort(np.random.default_rng(1).uniform(-5, 5, size=500))
        q = quantize_complex(cfg, lams + 0j).real
        assert np.all(np.diff(q) >= 0)

    def test_bounded_distortion(self):
        rng = np.random.default_rng(2)
        cfg = QuantizerConfig(bit_depth=2, dynamic_range=1.0)
        delta = cfg.step
        lams = rng.uniform(-0.9, 0.9, size=1000)
        q = quantize_complex(cfg, lams + 0j).real
        assert np.max(np.abs(q - lams)) <= delta / 2 + 1e-12
        # with dither the error stays below one full step
        xi = rng.uniform(-delta / 2, delta / 2, size=1000)
        lams_safe = rng.uniform(-(1.0 - delta / 2), 1.0 - delta / 2, size=1000)
        q = quantize_complex(cfg, (lams_safe + xi) + 0j).real
        assert np.max(np.abs(q - lams_safe)) <= delta + 1e-12

    @pytest.mark.parametrize("dynamic_range", [0.0, -1.0, np.array([[1.0], [0.0]])])
    def test_range_not_above_zero_rejected(self, dynamic_range):
        with pytest.raises(ValueError, match="dynamic_range must be > 0"):
            QuantizerConfig(bit_depth=1, dynamic_range=dynamic_range)

    def test_unquantized_config_has_no_step(self):
        cfg = QuantizerConfig(bit_depth=None, dynamic_range=1.0)
        assert not cfg.quantized
        with pytest.raises(ValueError):
            _ = cfg.step
        with pytest.raises(ValueError):
            quantize_complex(cfg, 0.2)


class TestComplexQuantizer:
    def test_componentwise_example(self):
        cfg = QuantizerConfig(bit_depth=1, dynamic_range=1.0)
        out = quantize_complex(cfg, np.array([0.7 - 0.2j]))
        assert out[0] == 0.5 - 0.5j

    def test_real_input_gets_half_step_imag(self):
        cfg = QuantizerConfig(bit_depth=2, dynamic_range=1.0)
        out = quantize_complex(cfg, np.array([0.3 + 0j, -0.6 + 0j]))
        np.testing.assert_array_equal(out.imag, [cfg.step / 2, cfg.step / 2])

    def test_idempotent_on_grid(self):
        rng = np.random.default_rng(3)
        cfg = QuantizerConfig(bit_depth=3, dynamic_range=1.4)
        v = rng.normal(size=256) + 1j * rng.normal(size=256)
        once = quantize_complex(cfg, v)
        np.testing.assert_array_equal(quantize_complex(cfg, once), once)

    def test_grid_membership(self):
        rng = np.random.default_rng(4)
        for b in (1, 2, 4, 8):
            cfg = QuantizerConfig(bit_depth=b, dynamic_range=0.9)
            v = rng.normal(size=500) + 1j * rng.normal(size=500)
            q = quantize_complex(cfg, v)
            for part in (q.real, q.imag):
                cells = (part - cfg.step / 2) / cfg.step
                assert np.all(np.abs(cells - np.round(cells)) <= 1e-12 * (1 + np.abs(cells)))


class TestDynamicRange:
    def test_one_bit_dithered(self):
        r = np.array([1.0 + 0j])
        delta_range = dynamic_range_for(r, 1, dithered=True)
        assert delta_range == pytest.approx(2.0, rel=1e-12)
        # headroom is exactly half a step: Delta - delta/2 == ||r||_inf
        cfg = QuantizerConfig(1, delta_range)
        assert delta_range - cfg.step / 2 == pytest.approx(1.0, rel=1e-12)

    def test_two_bit_dithered(self):
        assert dynamic_range_for(np.array([1.0 + 0j]), 2, True) == pytest.approx(4 / 3, rel=1e-12)

    def test_undithered_is_peak_modulus(self):
        r = np.array([0.3 + 0.4j, -0.2 + 0j])
        assert dynamic_range_for(r, 1, False) == pytest.approx(0.5, rel=1e-12)

    def test_unquantized_returns_peak(self):
        r = np.array([0.3 + 0.4j])
        assert dynamic_range_for(r, None, False) == pytest.approx(0.5, rel=1e-12)

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            dynamic_range_for(np.zeros(4, complex), 1, True)


class TestDither:
    def test_bounds_and_determinism(self):
        cfg = QuantizerConfig(bit_depth=1, dynamic_range=2.0)
        dither = draw_dither(cfg, 10_000, seed=5)
        half = cfg.step / 2
        assert np.all(np.abs(dither.values.real) < half)
        assert np.all(np.abs(dither.values.imag) < half)
        again = draw_dither(cfg, 10_000, seed=5)
        np.testing.assert_array_equal(dither.values, again.values)

    def test_mean_is_centered(self):
        cfg = QuantizerConfig(bit_depth=2, dynamic_range=1.0)
        dither = draw_dither(cfg, 500_000, seed=6)
        pooled = np.concatenate([dither.values.real, dither.values.imag])
        bound = 3 * (cfg.step / np.sqrt(12)) / np.sqrt(pooled.size)
        assert abs(pooled.mean()) < bound

    def test_unbiased_quantization(self):
        # dithered quantization is unbiased: |mean - lam| <= 4 delta / sqrt(n)
        cfg = QuantizerConfig(bit_depth=1, dynamic_range=2.0)
        delta = cfg.step
        n = 10_000
        rng = np.random.default_rng(7)
        lams = np.linspace(-0.9, 0.9, 21)
        xi = rng.uniform(-delta / 2, delta / 2, size=(lams.size, n))
        q = quantize_complex(cfg, lams[:, None] + xi + 0j).real
        assert np.all(np.abs(q.mean(axis=1) - lams) <= 4 * delta / np.sqrt(n))

    def test_requires_quantized_config(self):
        with pytest.raises(ValueError):
            draw_dither(QuantizerConfig(None, 1.0), 8, seed=0)


class TestSense:
    def test_one_bit_grid_has_four_cells(self):
        n = 16
        plan = make_sampling_plan(n, n, seed=0)
        amps = np.zeros(n, complex)
        amps[3] = np.exp(0.3j)  # generic phase keeps components off the axes
        profile = RangeProfile(amps)
        cfg = QuantizerConfig(bit_depth=1, dynamic_range=1.0)
        y = sense(plan, cfg, None, profile)
        assert set(np.round(y.real, 12)) <= {0.5, -0.5}
        assert set(np.round(y.imag, 12)) <= {0.5, -0.5}

    def test_dither_average_recovers_measurements(self):
        n, m = 8, 8
        plan = make_sampling_plan(n, m, seed=1)
        profile = random_profile_like(n, seed=2)
        raw = forward(plan, profile)
        cfg = adapted_quantizer(raw, 1, dithered=True)
        acc = np.zeros(m, complex)
        draws = 10_000
        for s in range(draws):
            dither = draw_dither(cfg, m, seed=100 + s)
            acc += sense(plan, cfg, dither, profile)
        mean = acc / draws
        tol = 5 * cfg.step / np.sqrt(draws)
        assert np.max(np.abs(mean.real - raw.real)) < tol
        assert np.max(np.abs(mean.imag - raw.imag)) < tol

    def test_unquantized_passthrough(self):
        n, m = 8, 5
        plan = make_sampling_plan(n, m, seed=3)
        profile = random_profile_like(n, seed=4)
        cfg = QuantizerConfig(bit_depth=None, dynamic_range=1.0)
        np.testing.assert_array_equal(sense(plan, cfg, None, profile), forward(plan, profile))

    def test_unquantized_rejects_dither(self):
        plan = make_sampling_plan(8, 5, seed=3)
        profile = random_profile_like(8, seed=4)
        quantized = QuantizerConfig(bit_depth=1, dynamic_range=2.0)
        dither = draw_dither(quantized, 5, seed=0)
        with pytest.raises(ValueError):
            sense(plan, QuantizerConfig(None, 1.0), dither, profile)

    def test_dither_length_mismatch(self):
        plan = make_sampling_plan(8, 5, seed=3)
        profile = random_profile_like(8, seed=4)
        cfg = QuantizerConfig(bit_depth=1, dynamic_range=2.0)
        with pytest.raises(ValueError):
            sense(plan, cfg, draw_dither(cfg, 4, seed=0), profile)


def random_profile_like(n_bins, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n_bins) + 1j * rng.normal(size=n_bins)
    return RangeProfile(amps / np.max(np.abs(amps)))


class TestDitherType:
    def test_values_readonly(self):
        dither = Dither(values=np.array([0.1 + 0.1j]))
        with pytest.raises(ValueError):
            dither.values[0] = 0.0

    def test_rejects_more_than_a_stack(self):
        # A (T, M) stack is T trials' dithers; a capture takes only one (test_io's stacked-dither case).
        with pytest.raises(ValueError, match="1-D complex vector"):
            Dither(values=np.zeros((2, 2, 2), complex))
        with pytest.raises(ValueError, match="1-D complex vector"):
            Dither(values=np.complex128(1.0))
        assert Dither(values=np.zeros((2, 3), complex)).n_meas == 3
