"""Tests for hard thresholding, PBP, consistency, and QIHT."""

import numpy as np
import pytest

import brute
import qcsradar.recovery as recovery_module
from qcsradar.quantization import Dither, acquire, adapted_quantizer, draw_dither, sense, QuantizerConfig
from qcsradar.recovery import (
    MIN_STOP_ITERS,
    RecoveryConfig,
    StopReason,
    consistency,
    hard_threshold,
    pbp,
    qiht,
    stack_of_one,
)
from qcsradar.recovery import estimate as estimate_rows
from qcsradar.seeding import derive_seed
from qcsradar.signal_model import (
    RangeProfile,
    SamplingPlan,
    adjoint,
    forward,
    make_sampling_plan,
    random_profile,
)


class TestHardThreshold:
    def test_example(self):
        v = np.array([3, 1 + 1j, 0.5j, -2], dtype=complex)
        np.testing.assert_array_equal(hard_threshold(v, 2), [3, 0, 0, -2])

    def test_identity_at_full_sparsity(self):
        v = np.array([1j, 2, -3, 0.1], dtype=complex)
        np.testing.assert_array_equal(hard_threshold(v, 4), v)

    def test_tie_keeps_lowest_index(self):
        v = np.array([1.0, 1j, 0.5], dtype=complex)
        np.testing.assert_array_equal(hard_threshold(v, 1), [1.0, 0, 0])

    def test_matches_sort_oracle_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, n + 1))
            # integer moduli force frequent ties
            v = rng.integers(0, 3, size=n) * np.exp(1j * rng.integers(0, 4, size=n) * np.pi / 2)
            v = v.astype(complex)
            np.testing.assert_array_equal(hard_threshold(v, k), brute.hard_threshold_sorted(list(v), k))

    def test_rejects_bad_sparsity(self):
        with pytest.raises(ValueError):
            hard_threshold(np.ones(3, complex), 4)
        with pytest.raises(ValueError):
            hard_threshold(np.ones(3, complex), 0)


def threshold_rows(kind, t, n, rng):
    """(t, n) rows of one kind: the edge cases of a K-th largest modulus."""
    if kind == "tied":
        return rng.integers(-2, 3, size=(t, n)) + 1j * rng.integers(-2, 3, size=(t, n))
    if kind == "all_equal":
        return np.full((t, n), 1 - 1j)
    if kind == "all_zero":
        return np.zeros((t, n), complex) * np.where(rng.random((t, n)) < 0.5, -1, 1)  # signed zeros
    rows = rng.normal(size=(t, n)) + 1j * rng.normal(size=(t, n))
    if kind == "nan_heavy":  # fewer than K non-NaN bins in most rows
        rows[rng.random((t, n)) < 0.9] = complex(np.nan, 0.0)
        rows[rng.random((t, n)) < 0.05] = complex(0.0, np.nan)
        rows[rng.random((t, n)) < 0.05] = complex(np.inf, np.nan)  # modulus inf, not NaN
    elif kind == "infinite":
        rows[rng.random((t, n)) < 0.2] = complex(np.inf, 0.0)
        rows[rng.random((t, n)) < 0.2] = complex(0.0, -np.inf)
        rows[rng.random((t, n)) < 0.2] = complex(-np.inf, np.inf)
    return rows


class TestHardThresholdByPartition:
    """The partition threshold equals a stable argsort, bit for bit, on every kind of row."""

    @pytest.mark.parametrize("kind", ["tied", "all_equal", "all_zero", "nan_heavy", "infinite", "random"])
    @pytest.mark.parametrize("t", [1, 7, 64])
    def test_rows_equal_the_argsort_oracle(self, kind, t):
        rng = np.random.default_rng(t)
        for n, k in [(32, 1), (32, 2), (64, 10), (16, 16)]:
            rows = threshold_rows(kind, t, n, rng)
            got, want = hard_threshold(rows, k), brute.hard_threshold_argsort(rows, k)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            if t == 1:
                assert hard_threshold(rows[0], k).tobytes() == want[0].tobytes()

    def test_mixed_rows_and_out_equal_the_oracle(self):
        # One call mixes rows with a unique K-th modulus, ties at it and too
        # few numbers, so rows of both rules share a batch; ``out`` may be the input.
        rng = np.random.default_rng(5)
        kinds = ("random", "tied", "nan_heavy", "infinite", "all_zero")
        rows = np.concatenate([threshold_rows(kind, 5, 32, rng) for kind in kinds])
        rows = rows[rng.permutation(len(rows))]
        for k in (1, 3, 10):
            want = brute.hard_threshold_argsort(rows, k).tobytes()
            assert hard_threshold(rows, k).tobytes() == want
            out = np.full_like(rows, 7.0)
            assert hard_threshold(rows, k, out=out) is out and out.tobytes() == want
            inplace = rows.copy()
            assert hard_threshold(inplace, k, out=inplace).tobytes() == want
            inplace = rows.copy()
            hard_threshold(inplace[2], k, out=inplace[2])  # one row of a stack, written over itself
            assert inplace[2].tobytes() == want[2 * 32 * 16 : 3 * 32 * 16]

    def test_nan_row_keeps_its_numbers_then_its_lowest_nans(self):
        nan = complex(np.nan, 0.0)
        row = np.array([nan, 0.5, nan, nan, 2.0, nan])
        kept = hard_threshold(row, 4)
        assert kept[[1, 4]].tolist() == [0.5, 2.0] and np.isnan(kept[[0, 2]]).all()
        assert kept[3] == 0 and kept[5] == 0


class TestPBP:
    def test_exact_inversion_full_sampling(self):
        n = 64
        plan = make_sampling_plan(n, n, seed=0)
        profile = random_profile(n, 3, rng=1)
        estimate = pbp(plan, forward(plan, profile), 3)
        np.testing.assert_allclose(estimate.amplitudes, profile.amplitudes, atol=1e-12)

    def test_zero_measurements_give_zero_profile(self):
        plan = make_sampling_plan(16, 8, seed=0)
        estimate = pbp(plan, np.zeros(8, complex), 2)
        np.testing.assert_array_equal(estimate.amplitudes, np.zeros(16))
        assert estimate.support == frozenset()


class TestConsistency:
    def _setup(self, seed, n=12, m=18, k=2, dithered=True):
        plan = make_sampling_plan(n, m, seed=derive_seed(seed, "plan"))
        profile = random_profile(n, k, rng=derive_seed(seed, "prof"))
        raw = forward(plan, profile)
        quantizer = adapted_quantizer(raw, 1, dithered)
        dither = draw_dither(quantizer, m, derive_seed(seed, "dith")) if dithered else None
        y = sense(plan, quantizer, dither, profile)
        return plan, profile, quantizer, dither, y

    def test_truth_is_fully_consistent(self):
        plan, profile, quantizer, dither, y = self._setup(0)
        assert consistency(plan, quantizer, dither, y, profile) == 1.0

    def test_requires_quantized_mode(self):
        plan, profile, _, _, y = self._setup(1)
        with pytest.raises(ValueError):
            consistency(plan, QuantizerConfig(None, 1.0), None, y, profile)

    def test_measurement_length_checked(self):
        plan, profile, quantizer, dither, y = self._setup(1)
        with pytest.raises(ValueError, match=f"measurement length \\({plan.n_meas - 1},\\) does not match"):
            consistency(plan, quantizer, dither, y[:-1], profile)

    def test_matches_enumeration_oracle(self):
        for seed in range(30):
            dithered = seed % 2 == 0
            plan, profile, quantizer, dither, y = self._setup(seed, dithered=dithered)
            estimate = random_profile(plan.n_bins, 2, rng=derive_seed(seed, "est"))
            got = consistency(plan, quantizer, dither, y, estimate)
            want = brute.consistency_loop(
                plan.omega,
                plan.n_bins,
                quantizer.step,
                None if dither is None else dither.values,
                y,
                estimate.amplitudes,
            )
            assert got == want

    def test_zero_estimate_on_tiny_instance(self):
        # M=4: the zero scene plus dither must land in the observed cells
        plan, profile, quantizer, dither, y = self._setup(7, n=4, m=4, k=1)
        zero = RangeProfile(np.zeros(4, complex))
        got = consistency(plan, quantizer, dither, y, zero)
        want = brute.consistency_loop(
            plan.omega, 4, quantizer.step, dither.values, y, zero.amplitudes
        )
        assert got == want


def _quantized_instance(seed, n=8, k=1, m=16, dithered=True):
    plan = make_sampling_plan(n, m, seed=derive_seed(seed, "plan"))
    profile = random_profile(n, k, rng=derive_seed(seed, "prof"))
    raw = forward(plan, profile)
    quantizer = adapted_quantizer(raw, 1, dithered)
    dither = draw_dither(quantizer, m, derive_seed(seed, "dith")) if dithered else None
    y = sense(plan, quantizer, dither, profile)
    return plan, profile, quantizer, dither, y


class TestQIHT:
    def test_already_consistent_start_returns_immediately(self):
        found = False
        for seed in range(200):
            plan, profile, quantizer, dither, y = _quantized_instance(seed)
            start = pbp(plan, y, 1)
            if consistency(plan, quantizer, dither, y, start) == 1.0:
                found = True
                result = qiht(plan, quantizer, dither, y, RecoveryConfig(sparsity=1))
                assert result.iterations_run == 0
                assert result.stop_reason is StopReason.CONSISTENCY_TARGET
                assert result.final_consistency == 1.0
                np.testing.assert_array_equal(result.estimate.amplitudes, start.amplitudes)
                # fixed point: the update term vanishes identically
                residual = y - sense(plan, quantizer, dither, result.estimate)
                np.testing.assert_array_equal(residual, np.zeros_like(y))
                break
        assert found, "no seed produced an already-consistent back projection"

    def test_zero_residual_stops_at_once(self):
        # Unquantized, a zero residual is the perfect score: a fixed point, which
        # stops at the iteration that reaches it instead of waiting for MIN_STOP_ITERS.
        n, m, k = 32, 64, 2
        stopped_early = []
        for seed in range(12):
            plan = make_sampling_plan(n, m, seed=derive_seed(seed, "plan"))
            y = forward(plan, random_profile(n, k, rng=derive_seed(seed, "prof")))
            result = qiht(plan, QuantizerConfig(None, 1.0), None, y, RecoveryConfig(sparsity=k))
            current = pbp(plan, y, k).amplitudes
            for j in range(MIN_STOP_ITERS):
                if j:
                    current = hard_threshold(current + 1.0 / m * adjoint(plan, y - forward(plan, current)), k)
                if not np.any(y - forward(plan, current)):
                    break
            else:
                assert result.iterations_run >= MIN_STOP_ITERS
                continue
            stopped_early.append(j)
            assert (result.iterations_run, result.stop_reason, result.final_consistency) == (
                j, StopReason.CONSISTENCY_TARGET, 1.0)
            assert result.estimate.amplitudes.tobytes() == current.tobytes()
        assert max(stopped_early) > 0 and len(stopped_early) >= 6

    def test_a_repeating_iterate_skips_the_rest_of_the_budget(self, monkeypatch):
        # Unquantized rows that never reach a zero residual settle on an iterate
        # that repeats its bytes.  Each returns at once what running out its
        # budget returns: the best iterate seen, counted as the whole budget.
        n, m, k = 32, 64, 2
        budget = RecoveryConfig(sparsity=k).resolved_max_iters()
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return adjoint(*args, **kwargs)

        budget_rows = 0
        for seed in range(12):
            plan = make_sampling_plan(n, m, seed=derive_seed(seed, "plan"))
            y = forward(plan, random_profile(n, k, rng=derive_seed(seed, "prof")))
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(recovery_module, "adjoint", counted)
                result = qiht(plan, QuantizerConfig(None, 1.0), None, y, RecoveryConfig(sparsity=k))
            if result.stop_reason is not StopReason.BUDGET:
                continue
            budget_rows += 1
            assert result.iterations_run == budget and len(calls) < 2 * MIN_STOP_ITERS
            current = best = pbp(plan, y, k).amplitudes
            best_score = -np.linalg.norm(y - forward(plan, current))
            for _ in range(budget):
                current = hard_threshold(current + 1.0 / m * adjoint(plan, y - forward(plan, current)), k)
                score = -np.linalg.norm(y - forward(plan, current))
                if score > best_score:
                    best, best_score = current, score
            assert result.estimate.amplitudes.tobytes() == best.tobytes()
            assert result.final_consistency == np.count_nonzero(y == forward(plan, best)) / m
        assert budget_rows >= 3

    def test_iterates_stay_sparse(self):
        for seed in range(10):
            plan, profile, quantizer, dither, y = _quantized_instance(seed, n=16, k=3, m=64)
            result = qiht(plan, quantizer, dither, y, RecoveryConfig(sparsity=3))
            assert result.estimate.sparsity <= 3

    def test_budget_and_floor(self):
        assert RecoveryConfig(sparsity=2).resolved_max_iters() == 200
        assert RecoveryConfig(sparsity=1, max_iters=35).resolved_max_iters() == 35
        assert MIN_STOP_ITERS == 20

    def test_beats_pbp_on_small_instances(self):
        # paired trials: QIHT support recovery should not fall below PBP's
        n, k, m = 8, 1, 64
        pbp_hits = 0
        qiht_hits = 0
        trials = 500
        for t in range(trials):
            plan, profile, quantizer, dither, y = _quantized_instance(t)
            pbp_hits += pbp(plan, y, k).support == profile.support
            result = qiht(plan, quantizer, dither, y, RecoveryConfig(sparsity=k))
            qiht_hits += result.estimate.support == profile.support
        assert qiht_hits >= pbp_hits

    def test_unquantized_reduction_is_iht(self):
        # with quantization disabled the recursion is plain IHT
        n, m, k, iters = 16, 12, 2, 6
        plan = make_sampling_plan(n, m, seed=5)
        profile = random_profile(n, k, rng=6)
        y = forward(plan, profile)
        quantizer = QuantizerConfig(None, dynamic_range=1.0)

        start = hard_threshold(adjoint(plan, y) / m, k)
        oracle = brute.iht_loop(plan.omega, list(y), n, k, 1.0, iters, list(start))
        # precondition for comparing against the last oracle iterate: the
        # residual must shrink monotonically over the run
        resids = []
        est = list(start)
        for j in range(iters):
            est = brute.iht_loop(plan.omega, list(y), n, k, 1.0, 1, est)
            resids.append(np.linalg.norm(np.array(brute.forward_loop(plan.omega, est, n)) - y))
        assert all(b < a for a, b in zip(resids, resids[1:]))

        result = qiht(plan, quantizer, None, y, RecoveryConfig(sparsity=k, max_iters=iters))
        assert result.stop_reason is StopReason.BUDGET
        np.testing.assert_allclose(result.estimate.amplitudes, oracle, atol=1e-10)

    def test_unquantized_rejects_dither(self):
        plan, profile, quantizer, dither, y = _quantized_instance(0)
        with pytest.raises(ValueError):
            qiht(plan, QuantizerConfig(None, 1.0), dither, forward(plan, profile), RecoveryConfig(sparsity=1))

    def test_measurement_length_checked(self):
        plan, profile, quantizer, dither, y = _quantized_instance(0)
        with pytest.raises(ValueError, match=f"measurement length .*{plan.n_meas - 1}.*n_meas={plan.n_meas}"):
            qiht(plan, quantizer, dither, y[:-1], RecoveryConfig(sparsity=1))

    def test_dither_length_checked(self):
        plan, profile, quantizer, dither, y = _quantized_instance(0)
        short = Dither(dither.values[:-1])
        with pytest.raises(ValueError, match=f"dither length {plan.n_meas - 1} does not match n_meas={plan.n_meas}"):
            qiht(plan, quantizer, short, y, RecoveryConfig(sparsity=1))


class TestEstimate:
    @pytest.mark.parametrize("algorithm", ["pbp", "qiht"])
    def test_single_trial_input_asks_for_a_trial_axis(self, algorithm):
        plan = make_sampling_plan(64, 128, 3)
        quantizer, dither, y = acquire(plan, 1, True, 4, random_profile(64, 2, 5))
        recovery = RecoveryConfig(2, max_iters=20)
        stacked_plan, stacked_dither, rows = stack_of_one(plan, dither, y)
        for one_plan, one_dither, meas in ((plan, dither, y), (stacked_plan, stacked_dither, y), (plan, dither, rows)):
            with pytest.raises(ValueError, match="trial axis is missing.*stack_of_one"):
                estimate_rows(algorithm, one_plan, quantizer, one_dither, meas, recovery)
        (estimate,), *_ = estimate_rows(algorithm, stacked_plan, quantizer, stacked_dither, rows, recovery)
        assert np.count_nonzero(estimate) == 2

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="algorithm must be one of .*'omp'"):  # checked before the inputs
            estimate_rows("omp", None, None, None, None, RecoveryConfig(2))

    def test_wrong_trial_axes_are_named(self):
        # estimate takes stacks (above); consistency, qiht and stack_of_one one trial, and say the axis is extra.
        plan = make_sampling_plan(64, 128, 3)
        quantizer, dither, y = acquire(plan, 1, True, 4, random_profile(64, 2, 5))
        stacked_plan, stacked_dither, rows = stack_of_one(plan, dither, y)
        for two_plan, meas in ((stacked_plan, rows), (plan, rows), (stacked_plan, y)):
            with pytest.raises(ValueError, match="consistency takes one trial and a trial axis is extra"):
                consistency(two_plan, quantizer, dither, meas, np.zeros(64))
        for meas in (rows, y):
            with pytest.raises(ValueError, match="a single trial takes a 1-D plan and a trial axis is extra"):
                qiht(stacked_plan, quantizer, None, meas, RecoveryConfig(2))
            with pytest.raises(ValueError, match="a single trial takes a 1-D plan and a trial axis is extra"):
                stack_of_one(stacked_plan, None, meas)
        (estimate,), *_ = estimate_rows("qiht", stacked_plan, quantizer, stacked_dither, rows, RecoveryConfig(2, max_iters=20))
        assert 0.0 <= consistency(plan, quantizer, dither, y, estimate) <= 1.0


class TestSupportRecoveryScaling:
    def test_rate_non_decreasing_in_measurements(self):
        # profiles with min nonzero modulus >= 0.5: the exact-support rate
        # must not degrade as the bit budget grows
        n, k, trials = 256, 2, 300
        rates = []
        for m in (256, 1024, 4096):
            hits = 0
            for t in range(trials):
                rng = np.random.default_rng(derive_seed(17, "eta", t))
                support = rng.choice(n, size=k, replace=False)
                moduli = rng.uniform(0.5, 1.0, size=k)
                phases = rng.uniform(0, 2 * np.pi, size=k)
                amps = np.zeros(n, complex)
                amps[support] = moduli * np.exp(1j * phases)
                amps /= np.max(np.abs(amps))
                profile = RangeProfile(amps)
                plan = make_sampling_plan(n, m, seed=derive_seed(17, "plan", m, t))
                raw = forward(plan, profile)
                quantizer = adapted_quantizer(raw, 1, dithered=True)
                dither = draw_dither(quantizer, m, derive_seed(17, "dith", m, t))
                y = sense(plan, quantizer, dither, profile)
                hits += pbp(plan, y, k).support == profile.support
            rates.append(hits / trials)
        assert rates[0] <= rates[1] <= rates[2]


class TestRecoveryConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryConfig(sparsity=0)
        with pytest.raises(ValueError):
            RecoveryConfig(sparsity=1, step_size=0.0)
        with pytest.raises(ValueError):
            RecoveryConfig(sparsity=1, max_iters=0)
        with pytest.raises(ValueError):
            RecoveryConfig(sparsity=1, consistency_target=0.0)


class TestStridedAndAliasedInput:
    """Strided measurements, and an adjoint written over its measurements, give the bytes of contiguous, separate arrays."""

    def test_strided_measurements(self):
        plan, _, quantizer, dither, y = _quantized_instance(4, n=16, k=2, m=40)
        big = np.empty(2 * len(y), complex)
        big[::2], big[1::2] = y, np.nan
        strided = big[::2]
        assert not strided.flags.c_contiguous
        estimate = pbp(plan, y, 2)
        assert consistency(plan, quantizer, dither, strided, estimate) == consistency(plan, quantizer, dither, y, estimate)
        recovery = RecoveryConfig(2, max_iters=30)
        got, want = qiht(plan, quantizer, dither, strided, recovery), qiht(plan, quantizer, dither, y, recovery)
        assert got.estimate.amplitudes.tobytes() == want.estimate.amplitudes.tobytes()
        assert (got.iterations_run, got.final_consistency, got.stop_reason) == (
            want.iterations_run, want.final_consistency, want.stop_reason)
        stacked_plan, stacked_dither, rows = stack_of_one(plan, dither, y)
        wide = np.empty((1, 2 * len(y)), complex)
        wide[:, ::2] = rows
        got, want = (estimate_rows("qiht", stacked_plan, quantizer, stacked_dither, meas, recovery)
                     for meas in (wide[:, ::2], rows))
        assert got[0].tobytes() == want[0].tobytes()
        assert (got[1].tolist(), got[2].tolist(), got[3]) == (want[1].tolist(), want[2].tolist(), want[3])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("ramp", ["whole", "permuted"])
    def test_adjoint_out_may_be_the_measurements(self, ramp):
        # M == N: one whole ramp, or a permutation of the bins that holds none.
        rng = np.random.default_rng(9)
        n, t = 16, 5
        omega = np.stack([np.arange(n) if ramp == "whole" else rng.permutation(n) for _ in range(t)])
        plan = SamplingPlan(n, n, omega, None)
        y = rng.normal(size=(t, n)) + 1j * rng.normal(size=(t, n))
        y[0, ::3] = complex(1.0, np.inf)
        y[1, 1::4] = complex(np.nan, -2.0)
        want = adjoint(plan, y).tobytes()
        inplace = y.copy()
        assert adjoint(plan, inplace, out=inplace) is inplace and inplace.tobytes() == want
