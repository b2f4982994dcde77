"""Stacked draws: T seeds in one call must give, row by row, the single-seed draws.

Rows are compared bit for bit (signed zeros included), since the trial
engine draws whole chunks this way and the golden sweep pins its results.
"""

import numpy as np
import pytest

import brute
from qcsradar import seeding
from qcsradar.quantization import (
    Dither,
    QuantizerConfig,
    _acquire,
    _row_passes,
    acquire,
    adapted_quantizer,
    draw_dither,
    dynamic_range_for,
    quantize_complex,
    sense,
)
from qcsradar.seeding import seed_rows
from qcsradar.signal_model import RangeProfile, SamplingPlan, make_sampling_plan, random_profile

SEEDS = [3, 2**63 + 5, 0, 17, 2**64 - 1]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_omega(n_bins, n_meas, seed):
    """One plan drawn as a single trial did before draws took T seeds."""
    rng = np.random.Generator(np.random.Philox(seed))
    if n_meas < n_bins:
        return np.sort(rng.choice(n_bins, size=n_meas, replace=False))
    full = np.tile(np.arange(n_bins, dtype=np.int64), n_meas // n_bins)
    return np.concatenate([full, np.sort(rng.choice(n_bins, size=n_meas % n_bins, replace=False))])


def old_quantize(config, values):
    """The two-part mid-rise formula the quantizer used before it worked in one buffer."""
    def midrise(x, step):
        return step * np.floor(x / step) + 0.5 * step

    v = np.asarray(values, dtype=np.complex128)
    return midrise(v.real, config.step) + 1j * midrise(v.imag, config.step)


def drawn_rows(bit_depth, n_meas):
    """A (T, M) dither stack drawn with a column of steps, and each of its rows drawn alone."""
    ranges = np.array([[0.1], [1.0], [3.7], [1e-9], [250.0]])
    stack = draw_dither(QuantizerConfig(bit_depth, ranges), n_meas, SEEDS)
    return stack, [draw_dither(QuantizerConfig(bit_depth, r), n_meas, s) for r, s in zip(ranges[:, 0], SEEDS)]


def acquired_rows(bit_depth, n_meas):
    """The dither stack of a stacked acquisition, and each trial acquired alone, with equal ranges and measurements."""
    plans, truth = make_sampling_plan(16, n_meas, SEEDS), random_profile(16, 3, SEEDS)
    column, stack, y = acquire(plans, bit_depth, True, SEEDS, truth)
    singles = []
    for i, seed in enumerate(SEEDS):
        plan, profile = make_sampling_plan(16, n_meas, seed), random_profile(16, 3, seed)
        quantizer, dither, row = acquire(plan, bit_depth, True, seed, profile)
        assert same_bits(column.dynamic_range[i], [quantizer.dynamic_range]) and same_bits(y[i], row)
        singles.append(dither)
    return stack, singles


class TestStackedDraws:
    @pytest.mark.parametrize("n_bins, sparsity", [(16, 1), (64, 3), (256, 10), (8, 8), (64, 1), (64, 10), (64, 64)])
    def test_profile_rows_are_single_seed_profiles(self, n_bins, sparsity):
        # Drawn with Generator.random and scaled once; the reference draws with Generator.uniform.
        seeds = SEEDS + [7919 * i + 1 for i in range(45)]
        stack = random_profile(n_bins, sparsity, seeds)
        assert stack.shape == (len(seeds), n_bins) and not stack.flags.writeable
        for row, seed in zip(stack, seeds):
            assert same_bits(row, random_profile(n_bins, sparsity, seed).amplitudes)
            assert same_bits(row, brute.profile_uniform(n_bins, sparsity, seed))

    @pytest.mark.parametrize(
        "n_bins, n_meas",
        [(16, 5), (16, 16), (16, 48), (16, 37), (64, 8192), (256, 300), (16, 1), (16, 15), (16, 17), (16, 32), (16, 53)],
    )
    def test_plan_rows_are_single_seed_plans(self, n_bins, n_meas):
        stack = make_sampling_plan(n_bins, n_meas, SEEDS)
        assert stack.omega.shape == (len(SEEDS), n_meas)
        for row, seed in zip(stack.omega, SEEDS):
            single = make_sampling_plan(n_bins, n_meas, seed)
            assert same_bits(row, single.omega)
            assert same_bits(row, reference_omega(n_bins, n_meas, seed))
        # Drawn plans are built unchecked: they equal the checked plan of their indices.
        for drawn in (stack, make_sampling_plan(n_bins, n_meas, SEEDS[1])):
            checked = SamplingPlan(n_bins, n_meas, drawn.omega)
            assert drawn._ramps == checked._ramps == n_meas // n_bins
            assert same_bits(drawn.omega, checked.omega) and same_bits(drawn._flat, checked._flat)

    @pytest.mark.parametrize("bit_depth", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "n_meas, rows",
        [pytest.param(m, drawn_rows, id=str(m)) for m in (1, 7, 1000)]
        + [pytest.param(m, acquired_rows, id=f"{m}-acquire") for m in (7, 1000)],
    )
    def test_dither_rows_are_single_seed_dithers(self, bit_depth, n_meas, rows):
        stack, singles = rows(bit_depth, n_meas)
        assert stack.values.shape == (len(SEEDS), n_meas)
        shared = draw_dither(QuantizerConfig(bit_depth, 2.5), n_meas, SEEDS)
        for i, (seed, single) in enumerate(zip(SEEDS, singles)):
            assert same_bits(stack.values[i], single.values)
            assert same_bits(shared.values[i], draw_dither(QuantizerConfig(bit_depth, 2.5), n_meas, seed).values)

    def test_dither_matches_two_uniform_draws(self):
        # The draw applies Generator.uniform's own formula to Generator.random.
        config = QuantizerConfig(1, 0.75)
        for seed in range(50):
            rng = np.random.Generator(np.random.Philox(seed))
            half = 0.5 * config.step
            want = rng.uniform(-half, half, size=300) + 1j * rng.uniform(-half, half, size=300)
            assert same_bits(draw_dither(config, 300, seed).values, want)

    def test_column_of_steps_needs_one_seed_per_row(self):
        with pytest.raises(ValueError):
            draw_dither(QuantizerConfig(1, np.ones((3, 1))), 8, [1, 2])
        with pytest.raises(ValueError):
            seed_rows([])

    def test_range_rule_gives_one_range_per_row(self):
        rng = np.random.default_rng(1)
        raw = rng.normal(size=(4, 50)) + 1j * rng.normal(size=(4, 50))
        for bit_depth, dithered in [(1, True), (3, True), (2, False), (None, False)]:
            column = dynamic_range_for(raw, bit_depth, dithered)
            assert column.shape == (4, 1)
            for row, value in zip(raw, column[:, 0]):
                assert value == dynamic_range_for(row, bit_depth, dithered)
            assert same_bits(adapted_quantizer(raw, bit_depth, dithered).dynamic_range, column)
        with pytest.raises(ValueError):
            dynamic_range_for(np.vstack([raw[:1], np.zeros((1, 50))]), 1, True)


STACK_SIZES = [1, 2, 100]
ROW_LENGTHS = [8, 64, 127, 128, 129, 2047, 2048, 4096, 8192]


class TestUnbufferedRowPasses:
    """A (T, 1) column of steps runs unbuffered over rows of 256 parts or more: the bytes of a per-trial loop."""

    @staticmethod
    def seeds(t):
        return [7919 * i + 3 for i in range(t)]

    @pytest.mark.parametrize("n_meas", ROW_LENGTHS)
    @pytest.mark.parametrize("t", STACK_SIZES)
    def test_acquire_and_sense_equal_a_per_trial_loop(self, t, n_meas):
        seeds = self.seeds(t)
        plans, truth = make_sampling_plan(256, n_meas, seeds), random_profile(256, 3, seeds)
        column, stack, y = acquire(plans, 2, True, seeds, truth)
        assert same_bits(sense(plans, column, stack, truth), y)
        for i, seed in enumerate(seeds):
            plan, profile = make_sampling_plan(256, n_meas, seed), random_profile(256, 3, seed)
            quantizer, dither, row = acquire(plan, 2, True, seed, profile)
            assert same_bits(column.dynamic_range[i], [quantizer.dynamic_range])
            assert same_bits(stack.values[i], dither.values) and same_bits(y[i], row)
            assert same_bits(sense(plan, quantizer, dither, profile), row)

    @pytest.mark.parametrize("n_meas", ROW_LENGTHS)
    @pytest.mark.parametrize("t", STACK_SIZES)
    def test_dither_draws_equal_a_per_trial_loop(self, t, n_meas):
        seeds = self.seeds(t)
        ranges = np.random.default_rng(t + n_meas).uniform(1e-3, 1e3, size=(t, 1))
        stack = draw_dither(QuantizerConfig(3, ranges), n_meas, seeds)
        for row, dynamic_range, seed in zip(stack.values, ranges[:, 0], seeds):
            assert same_bits(row, draw_dither(QuantizerConfig(3, dynamic_range), n_meas, seed).values)

    def test_buffer_is_restored_when_a_scoped_pass_raises(self):
        default = np.getbufsize()
        column = QuantizerConfig(1, np.ones((2, 1)))
        read_only = np.ones((2, 640), dtype=np.complex128)
        read_only.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            _acquire(column, None, read_only)
        assert np.getbufsize() == default
        with pytest.raises(ZeroDivisionError):
            with _row_passes(column.step, read_only.view(np.float64)):
                assert np.getbufsize() == 1280
                1 / 0
        assert np.getbufsize() == default
        with _row_passes(column.step, np.ones((2, 128))):  # short rows stay buffered
            assert np.getbufsize() == default


class TestFullRampPlans:
    @pytest.mark.parametrize("n_meas, draws", [(16, 0), (48, 0), (5, 3), (37, 3)])
    def test_generators_built_only_for_drawn_samples(self, monkeypatch, n_meas, draws):
        # Counts both ways a draw gets generators: keys derived for a long
        # stack (then one Philox per call), or one Philox(seed) per row.
        keyings, builds = [], []
        derive_keys, philox = seeding.philox_keys, np.random.Philox

        def counting_keys(seeds):
            keyings.append(len(seeds))
            return derive_keys(seeds)

        def counting_philox(*args, **kwargs):
            builds.append(args or kwargs)
            return philox(*args, **kwargs)

        monkeypatch.setattr(seeding, "philox_keys", counting_keys)
        monkeypatch.setattr(np.random, "Philox", counting_philox)
        drawn = draws > 0
        make_sampling_plan(16, n_meas, list(range(20)))
        assert keyings == [20] * drawn and len(builds) == drawn
        make_sampling_plan(16, n_meas, [4, 5, 6])
        assert len(keyings) == drawn and len(builds) == drawn + draws
        make_sampling_plan(16, n_meas, 4)
        assert len(keyings) == drawn and len(builds) == drawn + draws + drawn


class TestOneBufferQuantizer:
    @pytest.mark.parametrize("bit_depth", [1, 2, 3])
    def test_equals_the_two_part_formula(self, bit_depth):
        rng = np.random.default_rng(bit_depth)
        random = rng.normal(size=200) + 1j * rng.normal(size=200)
        huge = np.array([1e300 - 3e299j, -1e300 + 1e300j, 7e299 + 0j])
        tiny = np.array([5e-324 - 5e-324j, -1e-310 + 2e-320j, 1e-300 + 0j])
        zeros = np.array([0.0 + 0.0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])
        for values in (random, huge, tiny, zeros, random.reshape(8, 25)):
            for dynamic_range in (0.5, 1.0, 3.3):
                config = QuantizerConfig(bit_depth, dynamic_range)
                assert same_bits(quantize_complex(config, values), old_quantize(config, values))

    def test_row_steps_equal_the_two_part_formula(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=(3, 40)) + 1j * rng.normal(size=(3, 40))
        config = QuantizerConfig(2, np.array([[0.2], [1.0], [4.0]]))
        assert same_bits(quantize_complex(config, values), old_quantize(config, values))

    def test_input_is_not_modified(self):
        values = np.random.default_rng(2).normal(size=64) + 0j
        before = values.copy()
        quantize_complex(QuantizerConfig(1, 2.0), values)
        assert same_bits(values, before)


class TestDefensiveCopies:
    def test_writable_inputs_are_copied(self):
        amps = np.array([0, 1 + 1j, 0, -2j])
        omega = np.array([[0, 3], [1, 1]])
        dither = np.array([0.1 + 0.2j, -0.3j])
        profile = RangeProfile(amps)
        plan = SamplingPlan(n_bins=4, n_meas=2, omega=omega)
        stacked = Dither(np.vstack([dither, dither]))
        single = Dither(dither)
        amps[:] = 9
        omega[:] = 2
        dither[:] = 5
        assert profile.amplitudes.tolist() == [0, 1 + 1j, 0, -2j]
        assert plan.omega.tolist() == [[0, 3], [1, 1]]
        assert single.values.tolist() == stacked.values[0].tolist() == [0.1 + 0.2j, -0.3j]

    def test_read_only_caller_arrays_are_copied(self):
        # The caller still owns the array and can make it writable again.
        a = np.zeros(3, complex)
        a.flags.writeable = False
        d = Dither(a)
        a.flags.writeable = True
        a[0] = 1
        assert not d.values.any() and not d.values.flags.writeable

    def test_draws_hand_over_their_arrays_uncopied(self):
        # A single-seed draw keeps row 0 of its (1, M) buffer: a view, not a copy.
        dither = draw_dither(QuantizerConfig(1, 1.0), 4, 3)
        plan = make_sampling_plan(8, 4, 5)
        profile = random_profile(8, 2, 6)
        for arr in (dither.values, plan.omega, profile.amplitudes):
            assert not arr.flags.writeable and arr.base is not None and arr.base.shape == (1,) + arr.shape

    def test_read_only_view_of_a_writable_array_is_copied(self):
        base = np.zeros(4, complex)
        view = base[:]
        view.flags.writeable = False
        profile = RangeProfile(view)
        base[1] = 1
        assert not profile.amplitudes.any()
