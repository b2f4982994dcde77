"""The batched trial engine: a stack of T trials must equal T single-trial runs.

Kernels are checked against the loop oracles in ``brute.py``; the batched
QIHT loop, the trial blocks and the grid runner are checked row for row,
and bit for bit, against the single-trial path.
"""

import itertools
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from qcsradar import evaluation
from qcsradar.evaluation import (
    CHUNK_ELEMENTS,
    ExperimentConfig,
    GridPoint,
    TrialOutcomes,
    _aggregate,
    run_block,
    run_grid,
    run_trial,
    run_trials,
    trial_blocks,
    trial_seeds,
)
from qcsradar.quantization import (
    Dither, QuantizerConfig, acquire, adapted_quantizer, draw_dither, quantize_complex, sense,
)
from qcsradar.recovery import (
    STOP_REASONS, RecoveryConfig, RecoveryResult, StopReason, _row_norms, _scores, estimate, hard_threshold, pbp, qiht,
)
from qcsradar.signal_model import SamplingPlan, adjoint, forward, make_sampling_plan, random_profile


def stacked_chunk(n, m, k, bit_depth, trials, dithered=True):
    """A chunk of trials with their own plans, quantizer steps and dithers."""
    truth = np.stack([random_profile(n, k, 10 * t).amplitudes for t in trials])
    plans = [make_sampling_plan(n, m, 10 * t + 1) for t in trials]
    plan = SamplingPlan(n, m, np.stack([p.omega for p in plans]))
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
        plan = SamplingPlan(n, m, np.stack([p.omega for p in plans]))
        a = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
        y = rng.normal(size=(5, m)) + 1j * rng.normal(size=(5, m))
        fwd, adj = forward(plan, a), adjoint(plan, y)
        for i, row_plan in enumerate(plans):
            np.testing.assert_allclose(fwd[i], brute.forward_loop(row_plan.omega, a[i], n), atol=1e-10)
            np.testing.assert_allclose(adj[i], brute.adjoint_loop(row_plan.omega, y[i], n), atol=1e-10)
            assert np.array_equal(fwd[i], forward(row_plan, a[i]))
            assert np.array_equal(adj[i], adjoint(row_plan, y[i]))

    def test_forward_from_the_spectrum_equals_forward_from_the_profile(self):
        rng = np.random.default_rng(7)
        n = 12
        a = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
        for m in (7, 24, 30):  # below a ramp, two ramps, and a remainder
            plan = SamplingPlan(n, m, np.stack([make_sampling_plan(n, m, seed).omega for seed in range(5)]))
            assert forward(plan, spectrum=np.fft.fft(a)).tobytes() == forward(plan, a).tobytes()
        with pytest.raises(ValueError):
            forward(plan)
        with pytest.raises(ValueError):
            forward(plan, a, spectrum=np.fft.fft(a))
        with pytest.raises(ValueError):
            forward(plan, spectrum=np.fft.fft(a)[:, :-1])

    def test_acquire_sizes_the_range_as_the_measurements_would(self):
        # acquire reads the range from the first ramp of a plan that holds one.
        n = 12
        rng = np.random.default_rng(8)
        ramp, permuted = np.arange(n), rng.permutation(n)
        # (plan, its leading whole ramps): single plans, then stacks.
        cases = [
            (make_sampling_plan(n, 7, 1), 0),
            (make_sampling_plan(n, n, 2), 1),
            (make_sampling_plan(n, 2 * n, 3), 2),
            (SamplingPlan(n, 2 * n + 3, np.concatenate([ramp, ramp, [5, 5, 2]])), 2),
            (SamplingPlan(n, n + 3, np.concatenate([permuted, [0, 4, 9]])), 0),
            (SamplingPlan(n, 2 * n, np.concatenate([[3] * n, ramp])), 0),
            (make_sampling_plan(n, 2 * n + 3, range(4)), 2),
            (SamplingPlan(n, 2 * n, np.tile(np.concatenate([ramp, [7] * n]), (3, 1))), 1),
            (SamplingPlan(n, 2 * n, np.stack([np.tile(ramp, 2), np.concatenate([permuted, ramp])])), 0),
        ]
        for plan, ramps in cases:
            assert plan._ramps == ramps
            shape = plan.omega.shape[:-1] + (n,)
            profile = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            seed = 5 if plan.omega.ndim == 1 else range(len(profile))
            for bit_depth, dithered in itertools.product((1, 3, None), (True, False)):
                want = np.asarray(adapted_quantizer(forward(plan, profile), bit_depth, dithered).dynamic_range)
                for source in ({"profile": profile}, {"spectrum": np.fft.fft(profile)}):
                    quantizer, _, _ = acquire(plan, bit_depth, dithered, seed, **source)
                    assert np.asarray(quantizer.dynamic_range).tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("n", [1, 3, 256, 1000])
    @pytest.mark.parametrize("t", [1, 200])
    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_row_norms_are_the_one_dimensional_norms(self, t, n, scale):
        # Squares of 1e+-150 overflow to inf and underflow to 0 alike on both paths.
        rng = np.random.default_rng(t * n)
        truth = scale * (rng.normal(size=(t, n)) + 1j * rng.normal(size=(t, n)))
        estimates = np.where(rng.random((t, n)) < 0.5, 0, truth * rng.uniform(0.5, 1.5, size=(t, n)))
        estimates[: t // 2] = truth[: t // 2]  # zero rows of the difference
        # Diverged rows, as a QIHT residual can hold: inf parts, and NaN from inf - inf.  (Where a row
        # holds NaNs of both signs, the two paths may differ in the sign bit of the NaN they return.)
        truth[-2:, ::3], estimates[-1, ::6] = complex(np.inf, 1.0), np.inf
        with np.errstate(invalid="ignore"):
            want = np.array([np.linalg.norm(a - e) for a, e in zip(truth, estimates)])
            assert _row_norms(truth - estimates).tobytes() == want.tobytes()


def single_pbp(plan, quantizer, dither, y, recovery):
    """One PBP trial as ``estimate`` reports it: no iterations, no final consistency, no stop reason."""
    return RecoveryResult(pbp(plan, y, recovery.sparsity), 0, None, None)


# The stacked runs checked row by row against single trials: estimate with
# either algorithm (PBP's final consistency is None, not an array).
BATCHES = {
    "estimate-qiht": (lambda *args: estimate("qiht", *args), qiht),
    "estimate-pbp": (lambda *args: estimate("pbp", *args), single_pbp),
}


class TestBatchedQiht:
    @staticmethod
    def assert_rows_equal_single_trial_runs(n_meas, bit_depth, dithered, batch="estimate-qiht"):
        plans, quantizers, dithers, plan, stacked, dither, y = stacked_chunk(32, n_meas, 3, bit_depth, range(12), dithered)
        recovery = RecoveryConfig(sparsity=3, max_iters=30)
        inputs = y.tobytes(), stacked.dynamic_range.tobytes()
        run_batch, run_single = BATCHES[batch]
        estimates, iterations, final, codes = run_batch(plan, stacked, dither, y, recovery)
        assert (y.tobytes(), stacked.dynamic_range.tobytes()) == inputs  # the batch works in its own arrays
        for i in range(12):
            single = run_single(plans[i], quantizers[i], dithers[i] if dithered else None, y[i], recovery)
            assert estimates[i].tobytes() == single.estimate.amplitudes.tobytes()
            assert iterations[i] == single.iterations_run
            assert (final is None and single.final_consistency is None) or final[i] == single.final_consistency
            assert (codes is None and single.stop_reason is None) or STOP_REASONS[codes[i]] is single.stop_reason

    @pytest.mark.parametrize(
        "bit_depth, dithered, batch",
        [
            pytest.param(b, d, batch, id=f"{b}-{d}-{batch}")
            for batch in BATCHES
            for b, d in [(1, True), (2, False), (None, False)]
        ],
    )
    def test_rows_equal_single_trial_runs(self, bit_depth, dithered, batch):
        self.assert_rows_equal_single_trial_runs(32, bit_depth, dithered, batch)

    # N = 32: below one ramp, two ramps and a remainder, three ramps (one ramp is above).
    @pytest.mark.parametrize("n_meas", [20, 76, 96])
    @pytest.mark.parametrize("bit_depth, dithered", [(1, True), (2, False), (None, False)])
    def test_rows_equal_single_trial_runs_around_ramps(self, bit_depth, dithered, n_meas):
        self.assert_rows_equal_single_trial_runs(n_meas, bit_depth, dithered)

    def test_chunk_rows_stop_for_every_reason(self):
        *_, plan, stacked, dither, y = stacked_chunk(32, 32, 3, 1, range(12))
        _, iterations, _, codes = estimate("qiht", plan, stacked, dither, y, RecoveryConfig(sparsity=3, max_iters=30))
        assert codes.dtype == np.int8 and {STOP_REASONS[code] for code in codes} == set(StopReason)
        assert max(iterations) == 30 and min(iterations) < 20  # budget and early perfect consistency

    @pytest.mark.parametrize("dithered", [True, False], ids=["dithered", "undithered"])
    def test_callers_arrays_unchanged_when_rows_stop_apart(self, dithered):
        # Stopped rows make room by moving running rows: in the batch's own arrays, never in the caller's.
        *_, plan, stacked, dither, y = stacked_chunk(32, 32, 3, 1, range(12), dithered)
        assert y.flags.writeable

        def inputs():
            return y.tobytes(), None if dither is None else dither.values.tobytes()

        before = inputs()
        _, iterations, _, _ = estimate("qiht", plan, stacked, dither, y, RecoveryConfig(sparsity=3, max_iters=30))
        assert len(set(iterations.tolist())) > 2
        assert inputs() == before

    def test_unquantized_score_is_the_one_dimensional_norm_of_each_row(self):
        # An ``axis=`` norm differs from the 1-D norm in the last bits for
        # about a quarter of rows, which can flip the stop rule's comparisons.
        rng = np.random.default_rng(6)
        y, y_hat = (rng.normal(size=(40, 64)) + 1j * rng.normal(size=(40, 64)) for _ in range(2))
        want = np.array([-np.linalg.norm(a - b) for a, b in zip(y, y_hat)])
        assert _scores(y - y_hat, quantized=False).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "point",
        [
            GridPoint(4, None, 32 * 24, False, "qiht"),
            GridPoint(3, 1, 40, True, "pbp"),
            GridPoint(3, 2, 40, True, "qiht"),  # M = 20, below one ramp
        ],
    )
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


class RecordingPool:
    """This process's worker pool, recording the points and trials of every block it is given."""

    tasks = []
    worker_pool = staticmethod(evaluation._worker_pool)

    def __init__(self, workers):
        self.pool = self.worker_pool(workers)

    def map(self, fn, points, trials, *rest, **kwargs):
        points, trials = list(points), list(trials)
        RecordingPool.tasks.append(list(zip(points, trials)))
        return self.pool.map(fn, points, trials, *rest, **kwargs)


# At N = 32 and sparsity 3: below one ramp (M = 20), two ramps and a
# remainder (76), two whole ramps (64), and sub-chunks of 8 rows (4096).
BLOCK_POINTS = (
    GridPoint(3, 1, 20, True, "pbp"),
    GridPoint(3, 2, 2 * 76, False, "qiht"),
    GridPoint(3, None, 32 * 64, False, "qiht"),
    GridPoint(3, 1, 4096, True, "pbp"),
)


class TestChunkedGrid:
    def test_chunks_cover_trials_within_the_budget(self, monkeypatch):
        # Two full blocks and a partial one at N=64 (1100 trials at 2**15), and
        # a block of several sub-chunks at each point (21 trials at 2**15).
        trials = 2 * (CHUNK_ELEMENTS // 64) + 76
        config = ExperimentConfig(n_bins=64, bitrates=(2048, 8192), trials=trials)
        for workers in (1, 2, 3):
            blocks = trial_blocks(config, workers)
            assert [t for b in blocks for t in b] == list(range(trials))
            assert len(blocks) >= workers and max(len(b) for b in blocks) * 64 <= CHUNK_ELEMENTS
            assert max(len(b) for b in blocks) - min(len(b) for b in blocks) <= 1
        assert len(trial_blocks(ExperimentConfig(trials=3), 8)) == 3
        rows = []
        run_rows = evaluation._run_rows

        def recording_run_rows(point, truth, *args):
            rows.append((point, len(truth)))
            return run_rows(point, truth, *args)

        monkeypatch.setattr(evaluation, "_run_rows", recording_run_rows)
        block = range(100, 105 + CHUNK_ELEMENTS // 2048)
        run_block(config.grid_points(), block, 0, 64, config.recovery(2))
        for point in config.grid_points():
            sizes = [n for p, n in rows if p == point]
            assert sum(sizes) == len(block) and len(sizes) > 1
            assert max(sizes) * point.n_meas <= CHUNK_ELEMENTS

    def test_a_block_refuses_a_point_of_another_sparsity(self, monkeypatch):
        # The hits of a point are scored against its own K, so a block drawn at
        # another sparsity would report a wrong TPR; it is refused before any draw.
        def no_draw(*args):
            raise AssertionError("a profile was drawn")

        monkeypatch.setattr(evaluation, "random_profile", no_draw)
        points = (GridPoint(2, 1, 512, True, "pbp"), GridPoint(5, 1, 512, True, "pbp"))
        for block_points in (points[1:], points):
            with pytest.raises(ValueError, match="sparsity 2"):
                run_block(block_points, range(20), 0, 256, RecoveryConfig(2))

    def test_single_point_split_into_tasks_is_worker_independent(self):
        config = ExperimentConfig(
            n_bins=64, sparsities=(4,), bitrates=(4096,), algorithm="qiht", trials=20, master_seed=8
        )
        assert len(trial_blocks(config, 2)) > 1
        serial, parallel = run_grid(config, max_workers=1), run_grid(config, max_workers=2)
        assert [vars(r) for r in serial] == [vars(r) for r in parallel]

    def test_blocks_across_points_are_worker_independent(self, monkeypatch):
        # 53 trials split unevenly at 2 and 3 workers; every block spans all
        # the points of its sparsity, and each sparsity gets its own blocks.
        config = ExperimentConfig(
            n_bins=64, sparsities=(2, 3), bitrates=(2048, 4096, 8192), trials=53, master_seed=5
        )
        monkeypatch.setattr(evaluation, "_worker_pool", RecordingPool)
        RecordingPool.tasks.clear()
        serial = [vars(r) for r in run_grid(config, max_workers=1)]
        for workers in (2, 3):
            assert [vars(r) for r in run_grid(config, max_workers=workers)] == serial
            tasks = RecordingPool.tasks.pop()
            for k in config.sparsities:
                blocks = [trials for points, trials in tasks if points[0].sparsity == k]
                assert len(blocks) == workers and len({len(b) for b in blocks}) == 2
                assert [t for b in blocks for t in b] == list(range(53))
            for points, _ in tasks:
                assert points == [p for p in config.grid_points() if p.sparsity == points[0].sparsity]

    def test_a_grid_of_one_sub_chunk_runs_in_this_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(evaluation, "_worker_pool", no_pool)
        config = ExperimentConfig(sparsities=(10,), bitrates=(512,), algorithm="qiht", trials=2)
        assert run_grid(config, max_workers=2)[0].trials == 2

    def test_profiles_are_drawn_once_per_sparsity_and_block(self, monkeypatch):
        calls = []
        draw = evaluation.random_profile

        def counting_draw(n_bins, sparsity, seeds):
            calls.append((sparsity, len(seeds)))
            return draw(n_bins, sparsity, seeds)

        monkeypatch.setattr(evaluation, "random_profile", counting_draw)
        # Three blocks' worth of trials at N=256, each above two thirds of the
        # most a block holds (100 of 128 at 2**15), make 3 blocks per sparsity.
        block = CHUNK_ELEMENTS // 256 * 25 // 32
        config = ExperimentConfig(sparsities=(2, 10), bitrates=(64, 512, 8192), trials=3 * block)
        run_grid(config, max_workers=1)
        assert calls == [(2, block)] * 3 + [(10, block)] * 3

    @pytest.mark.parametrize("algorithm", ["pbp", "qiht"])
    def test_rows_do_not_depend_on_the_chunk_size(self, monkeypatch, algorithm):
        # At 2**13 a block holds 32 trials and an M=8192 sub-chunk one; at
        # 2**17 one block and one sub-chunk hold all 40 trials.
        config = ExperimentConfig(
            sparsities=(2, 10), bit_depths=(1, 2), bitrates=(1024, 8192), algorithm=algorithm, trials=40,
            master_seed=6,
        )
        rows = []
        for elements in (2**13, 2**15, 2**17):
            monkeypatch.setattr(evaluation, "CHUNK_ELEMENTS", elements)
            rows.append([vars(r) for r in run_grid(config, max_workers=1)])
        assert rows[0] == rows[1] == rows[2]

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(trials=st.integers(1, 20), data=st.data())
    def test_any_split_into_blocks_equals_run_trials(self, trials, data):
        cuts = sorted(data.draw(st.sets(st.integers(1, trials - 1), max_size=4)) if trials > 1 else [])
        bounds = [0, *cuts, trials]
        recovery = evaluation.RecoveryConfig(3, max_iters=15)
        blocks = [run_block(BLOCK_POINTS, range(lo, hi), 4, 32, recovery) for lo, hi in zip(bounds, bounds[1:])]
        for i, point in enumerate(BLOCK_POINTS):
            (want,) = run_block((point,), range(trials), 4, 32, recovery)  # run_trials with this budget
            for field in TrialOutcomes._fields:
                got = np.concatenate([getattr(block[i], field) for block in blocks])
                assert got.dtype == getattr(want, field).dtype
                assert got.tobytes() == getattr(want, field).tobytes()

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

    def test_aggregate_sums_in_trial_order_not_pairwise_or_exactly(self):
        # 1e16 + 1.0 rounds back to 1e16, so adding the ones one at a time after
        # it keeps 1e16, where pairwise and exact summation keep some of them.
        l2 = np.array([1e16] + [1.0] * 200)
        sequential = 1e16
        assert len({sequential, float(np.sum(l2)), math.fsum(l2)}) == 3
        point = GridPoint(2, 1, 64, True, "pbp")
        chunks = [
            TrialOutcomes(np.zeros(hi - lo, dtype=int), l2[lo:hi], np.zeros(hi - lo, dtype=int))
            for lo, hi in [(0, 1), (1, 120), (120, 201)]
        ]
        result = _aggregate(point, chunks)
        assert result.trials == 201
        assert result.mean_l2_error == sequential / 201


# Two sparsities of 30 trials at N = 64: blocks for 2 and 3 workers.
POOL_CONFIG = ExperimentConfig(n_bins=64, sparsities=(2, 3), bitrates=(2048, 8192), trials=30, master_seed=11)


def _sweep(workers):
    return [vars(r) for r in run_grid(POOL_CONFIG, max_workers=workers)]


def _pool_pids() -> set:
    """The worker pids of the pool this process keeps."""
    return set(evaluation._pool[2]._processes)


def _is_alive(pid: int) -> bool:
    """Whether ``pid`` runs: a zombie has ended, whoever is yet to reap it."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return not os.path.isdir("/proc/self")


def _wait_gone(pids, seconds=30) -> bool:
    """Whether every one of ``pids`` ends within ``seconds``; those left are killed."""
    deadline = time.monotonic() + seconds
    while any(map(_is_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = list(filter(_is_alive, pids))
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    return not left


def _python(code, **kwargs):
    """Start ``code`` in a new interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(evaluation.__file__)))
    return subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": src}, **kwargs
    )


def _sweep_to(conn, workers):
    conn.send((os.getpid(), _sweep(workers), evaluation._pool[0]))
    conn.close()


def failing_block(*args):
    raise RuntimeError("a block failed")


# The pool outlives each sweep, so a test that patches module state and then
# sweeps on more than one worker may run on workers started before the patch:
# they do not see it.  Patch what run_grid passes to the pool, or this
# module's accessors of it, instead.
class TestWorkerPool:
    def test_sweeps_share_one_pool(self):
        serial = _sweep(1)
        assert _sweep(2) == serial
        pids = _pool_pids()
        assert _sweep(2) == serial
        assert _pool_pids() == pids and len(pids) == 2

    def test_a_new_worker_count_rebuilds_the_pool(self):
        serial, previous = _sweep(1), set()
        for workers in (2, 3, 2):
            assert _sweep(workers) == serial
            pids = _pool_pids()
            assert len(pids) == workers and not pids & previous
            assert not any(map(_is_alive, previous))  # the replaced pool's workers were joined
            previous = pids

    def test_a_killed_worker_gets_a_new_pool(self):
        serial = _sweep(1)
        assert _sweep(2) == serial
        pool = evaluation._pool[2]
        os.kill(min(_pool_pids()), signal.SIGKILL)
        deadline = time.monotonic() + 30
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool._broken
        assert _sweep(2) == serial
        assert evaluation._pool[2] is not pool

    def test_a_failed_sweep_drops_the_pool(self, monkeypatch):
        serial = _sweep(1)
        assert _sweep(2) == serial
        pids = _pool_pids()
        with monkeypatch.context() as patch:
            patch.setattr(evaluation, "run_block", failing_block)
            with pytest.raises(RuntimeError, match="a block failed"):
                _sweep(2)
        assert evaluation._pool is None and not any(map(_is_alive, pids))
        assert _sweep(2) == serial

    def test_a_forked_process_starts_its_own_pool_and_ends(self):
        serial = _sweep(1)
        assert _sweep(2) == serial
        pool = evaluation._pool[2]
        fork = multiprocessing.get_context("fork")
        receiver, sender = fork.Pipe(duplex=False)
        child = fork.Process(target=_sweep_to, args=(sender, 2))
        child.start()
        try:
            assert receiver.poll(120)
            pid, results, owner = receiver.recv()
            assert results == serial and owner == pid != os.getpid()
            # It stops its pool before multiprocessing joins its children.
            child.join(60)
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
        assert evaluation._pool[2] is pool

    def test_no_worker_outlives_its_process(self):
        code = (
            "from qcsradar import evaluation\n"
            "config = evaluation.ExperimentConfig(n_bins=64, bitrates=(2048, 8192), trials=30)\n"
            "evaluation.run_grid(config, max_workers=2)\n"
            "print(*sorted(evaluation._pool[2]._processes))"
        )
        child = _python(code)
        out, _ = child.communicate(timeout=120)
        pids = list(map(int, out.split()))
        assert child.returncode == 0 and len(pids) == 2 and not any(map(_is_alive, pids))

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL], ids=lambda signum: signum.name)
    def test_workers_end_with_a_killed_owner(self, signum):
        # Killed, the owner never reaches the interpreter exit that joins its workers.
        code = (
            "import time\n"
            "from qcsradar import evaluation\n"
            "config = evaluation.ExperimentConfig(n_bins=64, bitrates=(2048, 8192), trials=30)\n"
            "evaluation.run_grid(config, max_workers=2)\n"
            "print(*sorted(evaluation._pool[2]._processes), flush=True)\n"
            "time.sleep(120)"
        )
        child = _python(code)
        try:
            pids = list(map(int, child.stdout.readline().split()))
            assert len(pids) == 2 and all(map(_is_alive, pids))
        finally:
            child.send_signal(signum)
            child.communicate(timeout=60)
        assert _wait_gone(pids)

    def test_a_discarded_copy_of_the_package_stops_its_pool(self):
        # A fresh import replaces the module; its pool stops with it, not at
        # exit and not when the garbage collector (off here) would free it.
        code = (
            "import gc, sys\n"
            "gc.disable()\n"
            "def sweep():\n"
            "    for name in [m for m in sys.modules if m.split('.')[0] == 'qcsradar']:\n"
            "        del sys.modules[name]\n"
            "    from qcsradar import evaluation\n"
            "    config = evaluation.ExperimentConfig(n_bins=64, bitrates=(2048, 8192), trials=30)\n"
            "    evaluation.run_grid(config, max_workers=2)\n"
            "    return sorted(evaluation._pool[2]._processes)\n"
            "print(*sweep(), flush=True)\n"
            "print(*sweep(), flush=True)\n"
            "sys.stdin.read()"
        )
        child = _python(code, stdin=subprocess.PIPE)
        try:
            first, second = (list(map(int, child.stdout.readline().split())) for _ in range(2))
            assert len(first) == len(second) == 2 and not set(first) & set(second)
            assert _wait_gone(first) and all(map(_is_alive, second))
        finally:
            child.communicate("", timeout=60)
        assert child.returncode == 0 and not any(map(_is_alive, second))

    def test_a_replaced_copy_refuses_a_parallel_sweep(self):
        # Pickle sends a task's functions by name, which a fresh import gives
        # to the new copy: a held old module, or a function kept from a
        # discarded one, cannot feed a pool.  It says so at once, every time,
        # rather than hang, and still sweeps on one worker.
        code = (
            "import gc, sys\n"
            "gc.disable()\n"
            "def fresh():\n"
            "    for name in [m for m in sys.modules if m.split('.')[0] == 'qcsradar']:\n"
            "        del sys.modules[name]\n"
            "    from qcsradar import evaluation\n"
            "    return evaluation\n"
            "def config_of(run_grid):\n"
            "    return run_grid.__globals__['ExperimentConfig'](n_bins=64, bitrates=(2048, 8192), trials=30)\n"
            "def attempts(run_grid):\n"
            "    config = config_of(run_grid)\n"
            "    for _ in range(2):\n"
            "        try:\n"
            "            run_grid(config, max_workers=2)\n"
            "            print('ran', flush=True)\n"
            "        except RuntimeError as exc:\n"
            "            print(exc, flush=True)\n"
            "    print(len(run_grid(config, max_workers=1)), flush=True)\n"
            "held = fresh()\n"
            "held.run_grid(config_of(held.run_grid), max_workers=2)\n"
            "fresh()\n"
            "attempts(held.run_grid)\n"
            "run_grid = fresh().run_grid\n"
            "run_grid(config_of(run_grid), max_workers=2)\n"
            "fresh()\n"
            "print(run_grid.__globals__['_pool'] is None, flush=True)\n"
            "attempts(run_grid)\n"
        )
        child = _python(code)
        try:
            out, _ = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise
        lines = out.splitlines()
        refusal = "this copy of qcsradar.evaluation is not the one imported under its name"
        assert child.returncode == 0 and len(lines) == 7, out
        assert [line.startswith(refusal) for line in lines] == [True, True, False, False, True, True, False]
        assert lines[2] == lines[6] == "2" and lines[3] == "True"

    def test_a_refused_copy_shuts_down_its_pool(self):
        # A held replaced copy can never feed its pool again: the refusal
        # shuts the pool down rather than keep its idle workers until exit.
        code = (
            "import gc, os, sys\n"
            "gc.disable()\n"
            "def fresh():\n"
            "    for name in [m for m in sys.modules if m.split('.')[0] == 'qcsradar']:\n"
            "        del sys.modules[name]\n"
            "    from qcsradar import evaluation\n"
            "    return evaluation\n"
            "def alive(pid):\n"
            "    try:\n"
            "        os.kill(pid, 0)\n"
            "    except ProcessLookupError:\n"
            "        return False\n"
            "    return True\n"
            "held = fresh()\n"
            "config = held.ExperimentConfig(n_bins=64, bitrates=(2048, 8192), trials=30)\n"
            "held.run_grid(config, max_workers=2)\n"
            "pids = list(held._pool[2]._processes)\n"
            "print(len(pids), all(map(alive, pids)), flush=True)\n"
            "fresh()\n"
            "try:\n"
            "    held.run_grid(config, max_workers=2)\n"
            "except RuntimeError as exc:\n"
            "    print(type(exc).__name__, flush=True)\n"
            "print(held._pool is None, any(map(alive, pids)), flush=True)\n"
        )
        child = _python(code)
        try:
            out, _ = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise
        assert child.returncode == 0 and out.splitlines() == ["2 True", "RuntimeError", "True False"], out


    @pytest.mark.parametrize("method", ["forkserver", "spawn"])
    def test_other_start_methods(self, tmp_path, method):
        # The same promises as under fork: a discarded copy of the package
        # stops its pool, the golden sweep comes out the same on 2 workers,
        # and a killed owner leaves no worker behind.
        out = tmp_path / "sweep.csv"
        code = (
            "import gc, multiprocessing, sys\n"
            f"multiprocessing.set_start_method({method!r})\n"
            "gc.disable()\n"
            f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
            "def fresh():\n"
            "    for name in [m for m in sys.modules if m.split('.')[0] == 'qcsradar']:\n"
            "        del sys.modules[name]\n"
            "    from qcsradar import evaluation\n"
            "    return evaluation\n"
            "evaluation = fresh()\n"
            "config = evaluation.ExperimentConfig(n_bins=64, bitrates=(2048, 8192), trials=30)\n"
            "evaluation.run_grid(config, max_workers=2)\n"
            "print(*sorted(evaluation._pool[2]._processes), flush=True)\n"
            "del evaluation\n"
            "evaluation = fresh()\n"
            "import test_golden\n"
            f"test_golden.write_sweep({str(out)!r}, max_workers=2)\n"
            "print(*sorted(evaluation._pool[2]._processes), flush=True)\n"
            "sys.stdin.read()"
        )
        child = _python(code, stdin=subprocess.PIPE)
        try:
            first, second = (list(map(int, child.stdout.readline().split())) for _ in range(2))
            assert len(first) == len(second) == 2 and not set(first) & set(second)
            assert _wait_gone(first) and all(map(_is_alive, second))
            assert out.read_bytes() == (Path(__file__).parent / "golden" / "sweep.csv").read_bytes()
        finally:
            child.kill()
            child.communicate(timeout=60)
        assert _wait_gone(second)


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
    for initializer in (None, evaluation._start):
        with ProcessPoolExecutor(1, mp_context=spawn, initializer=initializer) as pool:
            faults[initializer] = sum(pool.submit(_warm_chunk_faults, point, range(4), 5).result())
    assert faults[evaluation._start] * 10 <= faults[None]
