"""The batched trial engine: a stack of T trials must equal T single-trial runs.

Kernels are checked against the loop oracles in ``brute.py``; the batched
QIHT loop and the chunked grid runner are checked row for row, and bit for
bit, against the single-trial path.
"""

import itertools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import brute
from qcsradar import evaluation
from qcsradar.evaluation import (
    ExperimentConfig,
    GridPoint,
    TrialOutcomes,
    _aggregate,
    run_grid,
    run_trial,
    run_trials,
    trial_chunks,
    trial_seeds,
)
from qcsradar.quantization import Dither, QuantizerConfig, adapted_quantizer, draw_dither, quantize_complex, sense
from qcsradar.recovery import RecoveryConfig, StopReason, _scores, hard_threshold, qiht, qiht_batch
from qcsradar.signal_model import SamplingPlan, adjoint, forward, make_sampling_plan, random_profile


def stacked_chunk(n, m, k, bit_depth, trials, dithered=True):
    """A chunk of trials with their own plans, quantizer steps and dithers."""
    truth = np.stack([random_profile(n, k, 10 * t).amplitudes for t in trials])
    plans = [make_sampling_plan(n, m, 10 * t + 1) for t in trials]
    plan = SamplingPlan(n, m, np.stack([p.omega for p in plans]), None)
    quantizers = [adapted_quantizer(raw, bit_depth, dithered) for raw in forward(plan, truth)]
    dithers = [draw_dither(q, m, 10 * t + 2) for q, t in zip(quantizers, trials)] if dithered else None
    stacked = QuantizerConfig(bit_depth, np.array([[q.dynamic_range] for q in quantizers]))
    dither = Dither(np.stack([d.values for d in dithers])) if dithered else None
    y = sense(plan, stacked, dither, truth)
    return plans, quantizers, dithers, plan, stacked, dither, y


class TestBatchedKernels:
    def test_forward_and_adjoint_rows_match_oracles(self):
        rng = np.random.default_rng(3)
        n, m = 12, 30  # two full ramps plus a partial one
        plans = [make_sampling_plan(n, m, seed) for seed in range(5)]
        plan = SamplingPlan(n, m, np.stack([p.omega for p in plans]), None)
        a = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
        y = rng.normal(size=(5, m)) + 1j * rng.normal(size=(5, m))
        fwd, adj = forward(plan, a), adjoint(plan, y)
        for i, row_plan in enumerate(plans):
            np.testing.assert_allclose(fwd[i], brute.forward_loop(row_plan.omega, a[i], n), atol=1e-10)
            np.testing.assert_allclose(adj[i], brute.adjoint_loop(row_plan.omega, y[i], n), atol=1e-10)
            assert np.array_equal(fwd[i], forward(row_plan, a[i]))
            assert np.array_equal(adj[i], adjoint(row_plan, y[i]))

    def test_quantization_uses_each_rows_step(self):
        rng = np.random.default_rng(4)
        ranges = np.array([[0.3], [1.0], [2.5]])
        values = rng.normal(size=(3, 40)) + 1j * rng.normal(size=(3, 40))
        out = quantize_complex(QuantizerConfig(2, ranges), values)
        for i, dynamic_range in enumerate(ranges[:, 0]):
            step = QuantizerConfig(2, dynamic_range).step
            want = [complex(brute.midrise_scalar(v.real, step), brute.midrise_scalar(v.imag, step)) for v in values[i]]
            assert np.array_equal(out[i], want)

    def test_hard_threshold_rows_keep_lowest_index_among_ties(self):
        rng = np.random.default_rng(5)
        values = rng.integers(-2, 3, size=(6, 16)) + 1j * rng.integers(-2, 3, size=(6, 16))
        out = hard_threshold(values, 4)
        for row, got in zip(values, out):
            assert np.array_equal(got, brute.hard_threshold_sorted(list(row), 4))
        assert np.array_equal(hard_threshold(np.ones((2, 5)), 2), [[1, 1, 0, 0, 0]] * 2)

    def test_stacked_dither_needs_no_seed(self):
        with pytest.raises(ValueError):
            Dither(values=np.zeros((2, 3), complex), seed=4)
        assert Dither(values=np.zeros((2, 3), complex)).n_meas == 3


class TestBatchedQiht:
    @staticmethod
    def assert_rows_equal_single_trial_runs(n_meas, bit_depth, dithered):
        plans, quantizers, dithers, plan, stacked, dither, y = stacked_chunk(32, n_meas, 3, bit_depth, range(12), dithered)
        recovery = RecoveryConfig(sparsity=3, max_iters=30)
        inputs = y.tobytes(), stacked.dynamic_range.tobytes()
        estimates, iterations, final, reasons = qiht_batch(plan, stacked, dither, y, recovery)
        assert (y.tobytes(), stacked.dynamic_range.tobytes()) == inputs  # the batch works in its own arrays
        for i in range(12):
            single = qiht(plans[i], quantizers[i], dithers[i] if dithered else None, y[i], recovery)
            assert estimates[i].tobytes() == single.estimate.amplitudes.tobytes()
            assert iterations[i] == single.iterations_run
            assert final[i] == single.final_consistency
            assert reasons[i] == single.stop_reason

    @pytest.mark.parametrize("bit_depth, dithered", [(1, True), (2, False), (None, False)])
    def test_rows_equal_single_trial_runs(self, bit_depth, dithered):
        self.assert_rows_equal_single_trial_runs(32, bit_depth, dithered)

    # N = 32: below one ramp, two ramps and a remainder, three ramps (one ramp is above).
    @pytest.mark.parametrize("n_meas", [20, 76, 96])
    @pytest.mark.parametrize("bit_depth, dithered", [(1, True), (2, False), (None, False)])
    def test_rows_equal_single_trial_runs_around_ramps(self, bit_depth, dithered, n_meas):
        self.assert_rows_equal_single_trial_runs(n_meas, bit_depth, dithered)

    def test_chunk_rows_stop_for_every_reason(self):
        *_, plan, stacked, dither, y = stacked_chunk(32, 32, 3, 1, range(12))
        _, iterations, _, reasons = qiht_batch(plan, stacked, dither, y, RecoveryConfig(sparsity=3, max_iters=30))
        assert set(reasons) == set(StopReason)
        assert max(iterations) == 30 and min(iterations) < 20  # budget and early perfect consistency

    def test_unquantized_score_is_the_one_dimensional_norm_of_each_row(self):
        # An ``axis=`` norm differs from the 1-D norm in the last bits for
        # about a quarter of rows, which can flip the stop rule's comparisons.
        rng = np.random.default_rng(6)
        y, y_hat = (rng.normal(size=(40, 64)) + 1j * rng.normal(size=(40, 64)) for _ in range(2))
        want = [-np.linalg.norm(a - b) for a, b in zip(y, y_hat)]
        assert np.array_equal(_scores(y, y_hat, quantized=False), want)

    @pytest.mark.parametrize("point", [GridPoint(4, None, 32 * 24, False, "qiht"), GridPoint(3, 1, 40, True, "pbp")])
    def test_trial_records_match_one_trial_at_a_time(self, point):
        # Includes l2_error, which must be the 1-D norm of each row.
        outcomes = run_trials(point, range(20), master_seed=3, n_bins=32)
        seeds = trial_seeds(point, range(20), master_seed=3, n_bins=32)
        for i, (profile_seed, plan_seed, dither_seed) in enumerate(zip(*seeds)):
            profile = random_profile(32, point.sparsity, profile_seed)
            plan = make_sampling_plan(32, point.n_meas, plan_seed)
            quantizer = adapted_quantizer(forward(plan, profile), point.bit_depth, point.effective_dithered)
            dither = draw_dither(quantizer, point.n_meas, dither_seed) if point.effective_dithered else None
            y = sense(plan, quantizer, dither, profile)
            if point.algorithm == "pbp":
                estimate, iterations = hard_threshold(adjoint(plan, y) / point.n_meas, point.sparsity), 0
            else:
                result = qiht(plan, quantizer, dither, y, RecoveryConfig(point.sparsity))
                estimate, iterations = result.estimate.amplitudes, result.iterations_run
            assert outcomes.l2_error[i] == float(np.linalg.norm(profile.amplitudes - estimate))
            assert outcomes.hits[i] == np.count_nonzero(profile.amplitudes * estimate)
            assert outcomes.iterations[i] == iterations
            single = run_trial(point, i, master_seed=3, n_bins=32)
            for field in ("hits", "l2_error", "iterations"):
                assert getattr(single, field).tobytes() == getattr(outcomes, field)[i : i + 1].tobytes()


class TestChunkedGrid:
    def test_chunks_cover_trials_within_the_budget(self):
        config = ExperimentConfig(n_bins=64, bitrates=(8192,), trials=10)
        chunks = trial_chunks(config, config.grid_points()[0])
        assert [t for c in chunks for t in c] == list(range(10))
        assert len(chunks) > 1 and max(len(c) for c in chunks) * 8192 <= 2**15

    def test_single_point_split_into_tasks_is_worker_independent(self):
        config = ExperimentConfig(
            n_bins=64, sparsities=(4,), bitrates=(4096,), algorithm="qiht", trials=20, master_seed=8
        )
        assert len(trial_chunks(config, config.grid_points()[0])) > 1
        serial, parallel = run_grid(config, max_workers=1), run_grid(config, max_workers=2)
        assert [vars(r) for r in serial] == [vars(r) for r in parallel]

    def test_batches_across_points_are_worker_independent(self, monkeypatch):
        # 4 + 7 + 14 chunks: at 2 and 3 workers the pool takes batches of 2,
        # one of them holds the last chunk of a point and the first of the next,
        # and the last batch is short.
        config = ExperimentConfig(n_bins=64, bitrates=(2048, 4096, 8192), trials=53, master_seed=5)
        ends = list(itertools.accumulate(len(trial_chunks(config, p)) for p in config.grid_points()))
        batches = []

        class RecordingPool(ProcessPoolExecutor):
            def map(self, fn, *iterables, chunksize=1):
                batches.append(chunksize)
                return super().map(fn, *iterables, chunksize=chunksize)

        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", RecordingPool)
        serial = [vars(r) for r in run_grid(config, max_workers=1)]
        for workers in (2, 3):
            assert [vars(r) for r in run_grid(config, max_workers=workers)] == serial
            batch = batches.pop()
            assert batch > 1 and ends[-1] % batch != 0
            assert any(end % batch for end in ends[:-1])

    def test_aggregate_adds_one_trial_at_a_time(self):
        # np.sum adds pairwise and the builtin sum compensates (Python 3.12+);
        # either changes the last bits of the CSV, so compare with a plain loop.
        rng = np.random.default_rng(9)
        point = GridPoint(3, 1, 64, True, "pbp")
        hits = rng.integers(0, 4, size=300)
        l2 = rng.lognormal(sigma=3.0, size=300)
        chunks = [
            TrialOutcomes(hits[lo:hi], l2[lo:hi], np.zeros(hi - lo, dtype=int))
            for lo, hi in [(0, 7), (7, 160), (160, 161), (161, 300)]
        ]
        tpr_sum = tpr_sq_sum = l2_sum = 0.0
        for h, e in zip(hits.tolist(), l2.tolist()):
            tpr_sum, tpr_sq_sum, l2_sum = tpr_sum + h / 3, tpr_sq_sum + (h / 3) * (h / 3), l2_sum + e
        mean = tpr_sum / 300
        result = _aggregate(point, iter(chunks))
        assert result.trials == 300
        assert result.mean_tpr_pct == 100.0 * mean
        assert result.stderr_pct == 100.0 * ((tpr_sq_sum - 300 * mean * mean) / 299 / 300) ** 0.5
        assert result.mean_l2_error == l2_sum / 300


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError):
        return False


def _warm_chunk_faults(point, trials, repeats):
    """Minor page faults of each of ``repeats`` chunks run after a first one."""
    import resource

    run_trials(point, trials, 901)
    faults = []
    for _ in range(repeats):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_trials(point, trials, 901)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return faults


@pytest.mark.skipif(not _glibc(), reason="the worker heap policy applies to glibc only")
def test_pool_workers_keep_their_heap_between_chunks():
    # Spawned workers start from glibc's default allocator state, whatever this
    # process allocated before; this process's allocator is left alone.
    spawn = multiprocessing.get_context("spawn")
    point = GridPoint(2, 1, 8192, True, "pbp")
    faults = {}
    for initializer in (None, evaluation._keep_heap):
        with ProcessPoolExecutor(1, mp_context=spawn, initializer=initializer) as pool:
            faults[initializer] = sum(pool.submit(_warm_chunk_faults, point, range(4), 5).result())
    assert faults[evaluation._keep_heap] * 10 <= faults[None]
