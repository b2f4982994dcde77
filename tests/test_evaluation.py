"""Tests for the Monte Carlo grid harness."""

import logging

import numpy as np
import pytest

from qcsradar.evaluation import (
    CHUNK_ELEMENTS,
    ExperimentConfig,
    GridPoint,
    point_is_runnable,
    run_block,
    run_grid,
    run_trial,
    run_trials,
    trial_seeds,
    _resolve_workers,
)
from qcsradar.recovery import RecoveryConfig


class TestGridPoint:
    def test_measurement_count(self):
        assert GridPoint(2, 1, 8192, True, "pbp").n_meas == 8192
        assert GridPoint(2, None, 8192, False, "pbp").n_meas == 256
        assert GridPoint(2, 2, 512, True, "qiht").n_meas == 256

    def test_non_integer_measurements_rejected(self):
        with pytest.raises(ValueError):
            GridPoint(2, 3, 10, True, "pbp")

    @pytest.mark.parametrize("bits", [0, -1, 33])
    def test_bit_depth_out_of_range_rejected(self, bits):
        with pytest.raises(ValueError, match="bit depth"):
            GridPoint(2, bits, 64, True, "pbp")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            GridPoint(2, 1, 64, True, "omp")

    def test_sparsity_below_one_rejected(self):
        with pytest.raises(ValueError, match="sparsity must be >= 1"):
            GridPoint(0, 1, 64, True, "pbp")

    def test_runnable_range(self):
        ok, _ = point_is_runnable(GridPoint(2, 1, 8, True, "pbp"))
        assert ok
        ok, reason = point_is_runnable(GridPoint(2, 2, 8, True, "pbp"))
        assert not ok and "M=4" in reason
        ok, reason = point_is_runnable(GridPoint(2, 1, 16384, True, "pbp"))
        assert not ok


class TestRunTrial:
    def test_deterministic(self):
        point = GridPoint(2, 1, 256, True, "pbp")
        a = run_trial(point, 3, master_seed=42)
        b = run_trial(point, 3, master_seed=42)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = run_trial(point, 4, master_seed=42)
        assert not all(np.array_equal(x, y) for x, y in zip(a, c))

    def test_unquantized_full_sampling_is_exact(self):
        # bitrate 32*256 = 8192 puts M = N = 256: exact inversion
        point = GridPoint(2, None, 8192, False, "pbp")
        for trial in range(5):
            outcome = run_trial(point, trial, master_seed=0)
            assert outcome.hits.tolist() == [2]
            assert outcome.l2_error[0] < 1e-10

    @pytest.mark.parametrize("n_bins", [64, 256])
    def test_unquantized_reference_is_exact_at_full_sampling(self, n_bins):
        # Noiseless unquantized measurements at M >= N observe every bin, so QIHT
        # recovers every trial, with or without a remainder of a ramp.  PBP does
        # only at whole ramps, or for one target: it weights a remainder's bins
        # once more than the rest, so the other targets' sidelobes do not cancel.
        for sparsity in (1, 2, 10):
            for n_meas in (n_bins, n_bins + 3, 2 * n_bins, 2 * n_bins + 5):
                for algorithm in ("qiht", "pbp"):
                    point = GridPoint(sparsity, None, 32 * n_meas, False, algorithm)
                    outcomes = run_trials(point, range(20), master_seed=5, n_bins=n_bins)
                    if algorithm == "pbp" and n_meas % n_bins and sparsity > 1:
                        assert outcomes.l2_error.min() > 1e-14
                    else:
                        assert outcomes.hits.tolist() == [sparsity] * 20
                        assert outcomes.l2_error.max() < 1e-14

    def test_profiles_shared_across_depths_and_algorithms(self):
        # common random numbers: the profile sub-seed depends only on
        # (n_bins, K, trial); the plan sub-seed only on (n_bins, M, trial)
        a = trial_seeds(GridPoint(2, 1, 256, True, "pbp"), [0], master_seed=1)
        b = trial_seeds(GridPoint(2, 2, 512, False, "qiht"), [0], master_seed=1)
        assert a[0] == b[0]  # same profile
        assert a[1] == b[1]  # same plan (same M)
        c = trial_seeds(GridPoint(2, 1, 512, True, "pbp"), [0], master_seed=1)
        assert a[1] != c[1]  # different M, different plan

    def test_record_fields(self):
        outcome = run_trial(GridPoint(3, 1, 64, True, "qiht"), 7, master_seed=9)
        assert 0 <= outcome.hits[0] <= 3


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.n_bins == 256
        assert config.bitrates == tuple(2**j for j in range(3, 14))
        assert config.trials == 2000
        assert config.consistency_target == 0.95

    def test_rejects_non_integer_measurement_grid(self):
        with pytest.raises(ValueError):
            ExperimentConfig(bit_depths=(3,), bitrates=(10,))

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ExperimentConfig(sparsities=())
        with pytest.raises(ValueError):
            ExperimentConfig(algorithm="foo")
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError, match="n_bins must be >= 1"):
            ExperimentConfig(n_bins=0)
        with pytest.raises(ValueError):
            ExperimentConfig(bit_depths=(0,))
        for algorithm in ("pbp", "qiht"):
            for bad in (dict(mu=0.0), dict(mu=-1.0), dict(mu=float("nan")), dict(mu=float("inf")),
                        dict(consistency_target=0.0), dict(consistency_target=1.5),
                        dict(consistency_target=float("nan")), dict(max_iters=0)):
                with pytest.raises(ValueError):
                    ExperimentConfig(algorithm=algorithm, **bad)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(bit_depths=(1.5, True)),
            dict(bit_depths=1),
            dict(sparsities=(np.int64(2),)),
            dict(bitrates=range(8, 16)),
            dict(trials=np.int64(3)),
            dict(master_seed="7"),
            dict(dithered="no"),
            dict(mu=None),
        ],
    )
    def test_rejects_wrong_types_uncoerced(self, fields):
        with pytest.raises(ValueError, match="must be|bit_depths entries"):
            ExperimentConfig(**fields)

    def test_lists_are_kept_as_tuples(self):
        config = ExperimentConfig(sparsities=[2], bit_depths=[1, "unquantized"], bitrates=[64])
        assert (config.sparsities, config.bit_depths, config.bitrates) == ((2,), (1, None), (64,))

    def test_grid_points_cover_product(self):
        config = ExperimentConfig(sparsities=(2, 4), bit_depths=(1,), bitrates=(64, 128), trials=1)
        points = config.grid_points()
        assert len(points) == 4


class TestRunGrid:
    def test_single_point_passthrough(self):
        config = ExperimentConfig(
            sparsities=(2,), bit_depths=(1,), bitrates=(64,), trials=1, master_seed=5
        )
        results = run_grid(config, max_workers=1)
        assert len(results) == 1
        outcome = run_trial(GridPoint(2, 1, 64, True, "pbp"), 0, master_seed=5)
        assert results[0].mean_tpr_pct == pytest.approx(100 * outcome.hits[0] / 2)
        assert results[0].trials == 1
        assert results[0].stderr_pct == 0.0

    def test_out_of_range_points_skipped_with_warning(self, caplog):
        config = ExperimentConfig(
            sparsities=(2,), bit_depths=(2,), bitrates=(8, 16), trials=1
        )
        with caplog.at_level(logging.WARNING):
            results = run_grid(config, max_workers=1)
        assert len(results) == 1  # bitrate 8 -> M=4 skipped, bitrate 16 -> M=8 runs
        assert any("skipping grid point" in rec.message for rec in caplog.records)

    def test_deterministic_order_and_values(self):
        config = ExperimentConfig(
            sparsities=(4, 2), bit_depths=(1,), bitrates=(128, 64), trials=3, master_seed=1
        )
        first = run_grid(config, max_workers=1)
        second = run_grid(config, max_workers=1)
        assert [(r.point, r.mean_tpr_pct) for r in first] == [
            (r.point, r.mean_tpr_pct) for r in second
        ]
        keys = [(r.point.sparsity, r.point.bitrate) for r in first]
        assert keys == sorted(keys)

    def test_parallel_matches_serial(self):
        config = ExperimentConfig(
            sparsities=(2,), bit_depths=(1,), bitrates=(64, 128), trials=5, master_seed=2
        )
        serial = run_grid(config, max_workers=1)
        parallel = run_grid(config, max_workers=2)
        assert [(r.point, r.mean_tpr_pct, r.mean_l2_error) for r in serial] == [
            (r.point, r.mean_tpr_pct, r.mean_l2_error) for r in parallel
        ]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, workers):
        config = ExperimentConfig(bitrates=(64,), trials=2)
        with pytest.raises(ValueError, match="max_workers"):
            run_grid(config, max_workers=workers)

    def test_default_worker_count_follows_affinity(self, monkeypatch):
        # The CPUs this process may run on, not the machine's; patched, so no pool starts.
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert _resolve_workers(None, 16) == 3
        assert _resolve_workers(None, 2) == 2  # capped by the sub-chunk count
        monkeypatch.delattr("os.sched_getaffinity", raising=False)  # a platform without affinity masks
        assert _resolve_workers(None, 16) == 8
        assert _resolve_workers(4, 2) == 2

    @pytest.mark.parametrize("ignored", ["0", "-3", "junk"])
    def test_worker_cap_from_environment(self, monkeypatch, caplog, ignored):
        # QCS_THREADS is no longer a setting: neither a valid nor an invalid value
        # changes the default count, and none is warned about.
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        for value in ("1", ignored):
            monkeypatch.setenv("QCS_THREADS", value)
            with caplog.at_level(logging.WARNING, logger="qcsradar.evaluation"):
                assert _resolve_workers(None, 8) == 4
        assert "QCS_THREADS" not in caplog.text
        assert _resolve_workers(4, 2) == 2


class TestStreamingAggregation:
    def test_peak_memory_independent_of_trial_count(self):
        # aggregation is streaming: peak allocations are set by one trial's
        # working set, not by how many trials run
        import tracemalloc

        def peak_for(trials):
            config = ExperimentConfig(
                sparsities=(2,), bit_depths=(1,), bitrates=(1024,),
                trials=trials, master_seed=0,
            )
            point = GridPoint(2, 1, 1024, True, "pbp")
            tracemalloc.start()
            run_grid(config, max_workers=1)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        # One sub-chunk of M=1024 trials (20 at 2**15), and ten times as many,
        # which take more than one block.
        trials = 5 * (CHUNK_ELEMENTS // 1024) // 8
        small = peak_for(trials)
        large = peak_for(10 * trials)
        assert large < 2 * small

    @pytest.mark.parametrize("n_meas, trials", [(8192, 4), (1024, 32)])
    def test_chunk_peak_within_five_stacks(self, n_meas, trials):
        # A chunk is drawn and sensed as a few whole (T, M) arrays: its peak
        # allocation stays under five complex stacks of T x max(M, N).
        import tracemalloc

        point = GridPoint(2, 1, n_meas, True, "pbp")
        run_trials(point, range(trials), master_seed=0)  # first-call allocations
        tracemalloc.start()
        run_trials(point, range(trials), master_seed=0)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= 5 * trials * max(n_meas, 256) * 16

    @pytest.mark.parametrize("sparsity, n_meas, trials, bound_kib", [(10, 512, 50, 4533), (2, 8192, 4, 3007)])
    def test_qiht_chunk_peak_within_the_per_iteration_engine(self, sparsity, n_meas, trials, bound_kib):
        # QIHT runs in working arrays allocated once per call; they must not
        # raise the peak above that of the engine that allocated new arrays
        # on every iteration (measured at these sizes: the bounds).
        import tracemalloc

        point = GridPoint(sparsity, 1, n_meas, True, "qiht")
        run_trials(point, range(trials), master_seed=0)  # first-call allocations
        tracemalloc.start()
        run_trials(point, range(trials), master_seed=0)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= bound_kib * 1024

    @pytest.mark.parametrize("n_meas", [16, 512, 8192])
    def test_qiht_sub_chunk_peak_within_ten_stacks(self, n_meas):
        # A full sub-chunk of QIHT trials, drawn with its block's profiles,
        # peaks under ten complex stacks of T x max(M, N) (measured: 9.4 at
        # M=16, 9.1 at M=512, 5.7 at M=8192).
        import tracemalloc

        trials = CHUNK_ELEMENTS // max(n_meas, 256)
        point = GridPoint(10, 1, n_meas, True, "qiht")
        recovery = RecoveryConfig(10, max_iters=25)
        run_block((point,), range(trials), 0, 256, recovery)  # first-call allocations
        tracemalloc.start()
        run_block((point,), range(trials), 0, 256, recovery)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= 10 * trials * max(n_meas, 256) * 16


class TestProtocolProperties:
    def test_undithered_two_bit_plateau(self):
        # repeated undithered ramps add no information: means at 2^9 and
        # 2^13 stay within 3 points of each other
        values = {}
        for bitrate in (512, 8192):
            config = ExperimentConfig(
                sparsities=(2,), bit_depths=(2,), bitrates=(bitrate,),
                dithered=False, algorithm="pbp", trials=300, master_seed=0,
            )
            values[bitrate] = run_grid(config, max_workers=1)[0].mean_tpr_pct
        assert abs(values[512] - values[8192]) <= 3.0

    def test_dithered_growth(self):
        # dithered 1-bit TPR keeps improving with the bit budget, in contrast
        # to the undithered plateau; the PBP gain between 2^8 and 2^13 is
        # large (~9-11 points), the QIHT gain smaller (~3) since QIHT is
        # already near ceiling at 2^8
        gaps = {}
        for algorithm, trials in (("pbp", 2000), ("qiht", 500)):
            values = {}
            for bitrate in (256, 8192):
                config = ExperimentConfig(
                    sparsities=(2,), bit_depths=(1,), bitrates=(bitrate,),
                    dithered=True, algorithm=algorithm, trials=trials, master_seed=0,
                )
                values[bitrate] = run_grid(config, max_workers=1)[0].mean_tpr_pct
            gaps[algorithm] = values[8192] - values[256]
        assert gaps["pbp"] >= 8.0
        assert gaps["qiht"] >= 1.0

    def test_qiht_dominates_pbp_at_moderate_and_high_bitrates(self):
        # at bitrates >= 2^9 QIHT should match or beat PBP (1-bit dithered)
        for sparsity in (2, 10):
            for bitrate in (512, 8192):
                means = {}
                for algorithm in ("pbp", "qiht"):
                    config = ExperimentConfig(
                        sparsities=(sparsity,), bit_depths=(1,), bitrates=(bitrate,),
                        dithered=True, algorithm=algorithm, trials=300, master_seed=0,
                    )
                    means[algorithm] = run_grid(config, max_workers=1)[0].mean_tpr_pct
                assert means["qiht"] >= means["pbp"] - 1.0
