"""Tests for the range-domain sensing model."""

import numpy as np
import pytest
from scipy.stats import chi2

import brute
from qcsradar.signal_model import (
    RadarParams,
    RangeProfile,
    SamplingPlan,
    adjoint,
    bin_number,
    bin_to_range,
    forward,
    make_sampling_plan,
    random_profile,
)


class TestSamplingPlan:
    def test_full_ramp_is_forced(self):
        plan = make_sampling_plan(4, 4, seed=99)
        np.testing.assert_array_equal(plan.omega, [0, 1, 2, 3])

    def test_oversampled_structure(self):
        # floor(9/4) = 2 full ramps plus one extra distinct index
        plan = make_sampling_plan(4, 9, seed=5)
        np.testing.assert_array_equal(plan.omega[:8], [0, 1, 2, 3, 0, 1, 2, 3])
        assert plan.omega[8] in {0, 1, 2, 3}

    def test_subsampled_distinct_and_deterministic(self):
        plan = make_sampling_plan(256, 64, seed=7)
        assert len(set(plan.omega.tolist())) == 64
        assert plan.omega.min() >= 0 and plan.omega.max() < 256
        again = make_sampling_plan(256, 64, seed=7)
        np.testing.assert_array_equal(plan.omega, again.omega)
        other = make_sampling_plan(256, 64, seed=8)
        assert not np.array_equal(plan.omega, other.omega)

    def test_subset_uniformity_chi_square(self):
        # Inclusion counts over 1e4 draws of 64-of-256 subsets.  Without
        # replacement the Pearson statistic concentrates below the chi2
        # reference, so the upper bound is conservative.
        n_bins, n_meas, draws = 256, 64, 10_000
        counts = np.zeros(n_bins)
        for i in range(draws):
            counts[make_sampling_plan(n_bins, n_meas, seed=1000 + i).omega] += 1
        expected = draws * n_meas / n_bins
        stat = float(np.sum((counts - expected) ** 2 / expected))
        assert stat < chi2.isf(1e-9, df=n_bins - 1)
        assert stat > 30.0  # a degenerate (non-random) subset would be far too even

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_sampling_plan(0, 4, seed=0)
        with pytest.raises(ValueError):
            make_sampling_plan(4, 0, seed=0)

    def test_validates_omega(self):
        with pytest.raises(ValueError):
            SamplingPlan(n_bins=4, n_meas=2, omega=np.array([0, 4]), seed=0)
        with pytest.raises(ValueError):
            SamplingPlan(n_bins=4, n_meas=3, omega=np.array([0, 1]), seed=0)
        with pytest.raises(ValueError, match="n_meas must be >= 1"):  # as make_sampling_plan requires
            SamplingPlan(n_bins=4, n_meas=0, omega=np.array([], dtype=np.int64), seed=None)
        with pytest.raises(ValueError, match="n_bins must be >= 1"):
            SamplingPlan(n_bins=0, n_meas=2, omega=np.array([0, 0]), seed=None)


class TestForwardAdjoint:
    def test_forward_unit_target(self):
        plan = make_sampling_plan(4, 4, seed=0)
        e1 = np.zeros(4, complex)
        e1[1] = 1.0
        np.testing.assert_allclose(forward(plan, e1), [1, -1j, -1, 1j], atol=1e-14)

    def test_forward_zero(self):
        plan = make_sampling_plan(8, 5, seed=1)
        np.testing.assert_array_equal(forward(plan, np.zeros(8, complex)), np.zeros(5))

    def test_forward_repeated_frequency(self):
        plan = SamplingPlan(n_bins=4, n_meas=2, omega=np.array([2, 2]), seed=0)
        e1 = np.zeros(4, complex)
        e1[1] = 1.0
        np.testing.assert_allclose(forward(plan, e1), [-1, -1], atol=1e-14)

    def test_adjoint_repeated_frequency(self):
        plan = SamplingPlan(n_bins=4, n_meas=2, omega=np.array([2, 2]), seed=0)
        np.testing.assert_allclose(adjoint(plan, np.ones(2, complex)), [2, -2, 2, -2], atol=1e-13)

    def test_adjoint_zero(self):
        plan = make_sampling_plan(8, 3, seed=1)
        np.testing.assert_array_equal(adjoint(plan, np.zeros(3, complex)), np.zeros(8))

    def test_full_sampling_inversion(self):
        rng = np.random.default_rng(0)
        n = 16
        plan = make_sampling_plan(n, n, seed=0)
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        recovered = adjoint(plan, forward(plan, a)) / n
        np.testing.assert_allclose(recovered, a, atol=1e-10)

    def test_adjoint_identity(self):
        # <forward(a), y> == <a, adjoint(y)> for random vectors
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            m = int(rng.integers(1, 70))
            plan = make_sampling_plan(n, m, seed=int(rng.integers(1 << 31)))
            a = rng.normal(size=n) + 1j * rng.normal(size=n)
            y = rng.normal(size=m) + 1j * rng.normal(size=m)
            lhs = np.vdot(forward(plan, a), y)
            rhs = np.vdot(a, adjoint(plan, y))
            assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(y)

    def test_unit_modulus_rows(self):
        plan = make_sampling_plan(16, 11, seed=2)
        for i in range(16):
            e = np.zeros(16, complex)
            e[i] = 1.0
            np.testing.assert_allclose(np.abs(forward(plan, e)), 1.0, atol=1e-12)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 17))
            m = int(rng.integers(1, 33))
            plan = make_sampling_plan(n, m, seed=int(rng.integers(1 << 31)))
            a = rng.normal(size=n) + 1j * rng.normal(size=n)
            y = rng.normal(size=m) + 1j * rng.normal(size=m)
            np.testing.assert_allclose(
                forward(plan, a), brute.forward_loop(plan.omega, a, n), atol=1e-12 * n
            )
            np.testing.assert_allclose(
                adjoint(plan, y), brute.adjoint_loop(plan.omega, y, n), atol=1e-12 * m
            )

    def test_dimension_mismatch(self):
        plan = make_sampling_plan(8, 4, seed=0)
        with pytest.raises(ValueError):
            forward(plan, np.zeros(7, complex))
        with pytest.raises(ValueError):
            adjoint(plan, np.zeros(5, complex))


class TestRandomProfile:
    def test_contract(self):
        profile = random_profile(256, 2, rng=11)
        assert profile.sparsity == 2
        assert np.max(np.abs(profile.amplitudes)) == pytest.approx(1.0, abs=1e-14)
        again = random_profile(256, 2, rng=11)
        np.testing.assert_array_equal(profile.amplitudes, again.amplitudes)

    def test_dense_profile(self):
        profile = random_profile(16, 16, rng=3)
        assert profile.sparsity == 16
        assert np.max(np.abs(profile.amplitudes)) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_bad_sparsity(self):
        with pytest.raises(ValueError):
            random_profile(8, 9, rng=0)
        with pytest.raises(ValueError):
            random_profile(8, 0, rng=0)

    def test_support_inclusion_frequency(self):
        # Each of 8 bins should appear in ~K/N = 25% of supports.
        n_bins, sparsity, draws = 8, 2, 100_000
        # One stacked draw: row i is the profile of seed 50_000 + i.
        amps = random_profile(n_bins, sparsity, range(50_000, 50_000 + draws))
        freq = np.count_nonzero(amps, axis=0) / draws
        sigma = np.sqrt(0.25 * 0.75 / draws)
        assert np.all(np.abs(freq - 0.25) < 5 * sigma)


class TestRadarGeometry:
    def test_bin_to_range_one_meter_grid(self):
        params = RadarParams(f0=24.125e9, bandwidth=150e6, ramp_duration=1e-3, n_bins=64)
        assert bin_to_range(params, 1) == pytest.approx(0.9993, abs=1e-4)
        assert bin_to_range(params, 64) == pytest.approx(63.96, abs=0.01)
        assert params.max_range == pytest.approx(63.955, abs=1e-2)

    def test_bin_to_range_rejects_out_of_range(self):
        params = RadarParams(f0=24.125e9, bandwidth=150e6, ramp_duration=1e-3, n_bins=64)
        with pytest.raises(ValueError):
            bin_to_range(params, 0)
        with pytest.raises(ValueError):
            bin_to_range(params, 65)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            RadarParams(f0=-1.0, bandwidth=150e6, ramp_duration=1e-3, n_bins=64)
        with pytest.raises(ValueError):
            RadarParams(f0=24e9, bandwidth=150e6, ramp_duration=1e-3, n_bins=0)

    def test_bin_number_aliases_dc_to_last_bin(self):
        assert bin_number(0, 256) == 256
        assert bin_number(5, 256) == 5
        with pytest.raises(ValueError):
            bin_number(256, 256)


class TestRangeProfileType:
    def test_support_and_sparsity(self):
        profile = RangeProfile(np.array([0, 1 + 1j, 0, -2j], complex))
        assert profile.support == frozenset({1, 3})
        assert profile.sparsity == 2
        assert profile.n_bins == 4

    @pytest.mark.parametrize("amplitudes", [np.zeros(0, complex), np.ones((2, 3), complex)])
    def test_rejects_empty_or_stacked_amplitudes(self, amplitudes):
        with pytest.raises(ValueError, match="nonempty 1-D"):
            RangeProfile(amplitudes)

    def test_amplitudes_are_readonly(self):
        profile = RangeProfile(np.array([1.0 + 0j, 0]))
        with pytest.raises(ValueError):
            profile.amplitudes[0] = 0.0
