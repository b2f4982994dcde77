"""Monte Carlo harness: parameter grids, seeded trials, TPR aggregation.

A grid point fixes (sparsity, bit depth, total bit-rate, dithering,
algorithm); each trial independently draws a profile, a sampling plan, and a
dither from sub-seeds of the master seed (:func:`trial_seeds`).  Sub-seeds
depend only on the quantities that should vary them — profiles on
(K, trial), plans on (M, trial), dithers on (M, b, trial) — so curves that
differ only in bit-rate or algorithm are compared on common random numbers,
mirroring the exact saturation plateaus of undithered quantization.
``gen-capture --seed s`` writes trial 0 of its point under master seed s.

Trials run in blocks (:func:`run_block`): a block is a range of consecutive
trials run at every point of one sparsity.  Its profiles are the same at
each of those points, so the block derives their seeds once, draws the
(T, N) profiles once and takes their FFT once.  All the block's seeds form
one :class:`~qcsradar.seeding.SeedStack`, so their Philox keys are derived
in one pass and each draw re-keys a single generator row by row.  Each
point then runs in sub-chunks of at most CHUNK_ELEMENTS values: every trial
still draws its plan and dither from its own sub-seeds and gets its own
range-adapted quantizer, but a sub-chunk is drawn as stacked arrays: one
:func:`~qcsradar.quantization.acquire` gathers it from the block's spectrum
(with a (T, 1) column of ranges), and one :func:`~qcsradar.recovery.estimate`
recovers its rows.  A trial's outcome does not depend on which other trials
share its block or sub-chunk.  A point's result is one :class:`TrialOutcomes`
of (T,) arrays: hits, l2 error and iterations, in trial order.
:func:`run_trials` is the block of one point.

:func:`run_grid` runs the blocks on the worker pool this process keeps
(:func:`_worker_pool`).  Every block of a sparsity carries the same points,
so the blocks balance across workers by construction, and the aggregates
do not depend on the worker count.

Configs have one validation boundary: :class:`ExperimentConfig` checks each
field's type uncoerced (an integer is a Python int, not a bool or a numpy
integer), :class:`GridPoint` one point's rules (algorithm, sparsity, bit
depth, integer M), :class:`~qcsradar.recovery.RecoveryConfig` the QIHT
settings, and ExperimentConfig the values neither knows; nothing restates them.
"""

from __future__ import annotations

import ctypes
import itertools
import logging
import multiprocessing
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import util as mp_util
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .quantization import UNQUANTIZED_BITS, _is_int, acquire, check_bit_depth, decode_bit_depth, encode_bit_depth
from .recovery import ALGORITHMS, RecoveryConfig, _row_norms, estimate
from .seeding import SeedStack, derive_seeds
from .signal_model import make_sampling_plan, random_profile

__all__ = [
    "ALGORITHMS",
    "MEAS_RANGE",
    "GridPoint",
    "ExperimentConfig",
    "TrialOutcomes",
    "AggregateResult",
    "trial_seeds",
    "run_trial",
    "run_trials",
    "run_block",
    "trial_blocks",
    "run_grid",
]

logger = logging.getLogger(__name__)

# Admissible measurement counts for the evaluation protocol.
MEAS_RANGE = (2**3, 2**13)

# Most rows x columns (trials x max(M, N)) one sub-chunk of trials holds, and
# most profile values (trials x N) one block holds: larger chunks amortize
# more per-call overhead but grow each worker's working set.  At 2**16 a
# 100-trial QIHT block at M=512 runs as one sub-chunk; at 2**17 a whole
# 200-trial grid of that point would fit one sub-chunk, and so run in the
# calling process alone.
CHUNK_ELEMENTS = 2**16

# The mallopt values a pool worker sets (glibc only, :func:`_start`).
# Arrays up to twice a chunk's largest (one complex128 stack of
# CHUNK_ELEMENTS values, 1 MiB) come from the heap rather than from mmap,
# and the heap is trimmed only above 16 MiB, beyond a block's peak (a full
# block at N=256, its profiles and spectrum and one sub-chunk, peaks at 4.7
# to 6.1 MiB under PBP and 7.7 to 10.2 MiB under QIHT, by tracemalloc), so a
# worker's next sub-chunk reuses pages it has already touched.
_WORKER_MMAP_THRESHOLD = 2 * 16 * CHUNK_ELEMENTS
_WORKER_TRIM_THRESHOLD = 16 * 2**20
# glibc's mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3

# This process's worker pool, as (owner pid, workers, executor, exit hook),
# or None.  A process forked from the owner inherits the tuple but not the
# pool's threads.
_pool = None
_pool_lock = threading.Lock()


@dataclass(frozen=True)
class GridPoint:
    """One cell of the parameter grid."""

    sparsity: int
    bit_depth: Optional[int]  # None = unquantized
    bitrate: int
    dithered: bool
    algorithm: str

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.sparsity < 1:
            raise ValueError("sparsity must be >= 1")
        check_bit_depth(self.bit_depth)
        rate, bits = self.bitrate, self.bits_per_component
        if rate % bits != 0:
            raise ValueError(
                f"bitrate {rate} with bit depth {self.depth_label} gives a non-integer "
                f"measurement count ({rate}/{bits})"
            )

    @property
    def bits_per_component(self) -> int:
        return UNQUANTIZED_BITS if self.bit_depth is None else self.bit_depth

    @property
    def n_meas(self) -> int:
        return self.bitrate // self.bits_per_component

    @property
    def depth_label(self) -> str:
        return str(encode_bit_depth(self.bit_depth))

    @property
    def effective_dithered(self) -> bool:
        """Dithering only applies to quantized acquisition."""
        return self.dithered and self.bit_depth is not None

    def describe(self) -> str:
        mode = "dithered" if self.effective_dithered else "undithered"
        return (
            f"{self.algorithm} b={self.depth_label} K={self.sparsity} "
            f"bitrate={self.bitrate} M={self.n_meas} {mode}"
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameter grid definition plus trial count and master seed."""

    n_bins: int = 256
    sparsities: tuple = (2,)
    bit_depths: tuple = (1,)
    bitrates: tuple = tuple(2**j for j in range(3, 14))
    dithered: bool = True
    algorithm: str = "pbp"
    trials: int = 2000
    master_seed: int = 0
    mu: float = RecoveryConfig.step_size
    consistency_target: float = RecoveryConfig.consistency_target
    max_iters: Optional[int] = RecoveryConfig.max_iters

    def __post_init__(self):
        # The types first, as a config file spells them (a tuple passes for a list).
        if not isinstance(self.bit_depths, (list, tuple)):
            raise ValueError(f"bit_depths must be a list, got {self.bit_depths!r}")
        try:
            object.__setattr__(self, "bit_depths", tuple(map(decode_bit_depth, self.bit_depths)))
        except ValueError as exc:
            raise ValueError(f"bit_depths entries: {exc}") from None
        for key in ("sparsities", "bitrates"):
            values = getattr(self, key)
            if not (isinstance(values, (list, tuple)) and all(map(_is_int, values))):
                raise ValueError(f"{key} must be a list of integers")
            object.__setattr__(self, key, tuple(values))
        for key in ("n_bins", "trials", "master_seed"):
            if not _is_int(getattr(self, key)):
                raise ValueError(f"{key} must be an integer")
        for key in ("mu", "consistency_target"):
            if not (_is_int(getattr(self, key)) or isinstance(getattr(self, key), float)):
                raise ValueError(f"{key} must be a number")
        if self.max_iters is not None and not _is_int(self.max_iters):
            raise ValueError("max_iters must be an integer or null")
        if not isinstance(self.dithered, bool):
            raise ValueError(f"dithered must be a boolean, got {self.dithered!r}")
        if self.n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.sparsities or not self.bit_depths or not self.bitrates:
            raise ValueError("sparsities, bit_depths, and bitrates must be nonempty")
        if any(k > self.n_bins for k in self.sparsities):
            raise ValueError(f"every sparsity must be <= n_bins={self.n_bins}")
        # The points check themselves, and so do the QIHT settings, for either
        # algorithm, so that no bad value reaches a worker.
        self.grid_points()
        for k in self.sparsities:
            self.recovery(k)

    def recovery(self, sparsity: int) -> RecoveryConfig:
        """The QIHT settings of the points with this sparsity."""
        return RecoveryConfig(sparsity, self.mu, self.max_iters, self.consistency_target)

    def grid_points(self) -> list:
        """All grid points in deterministic order (not yet range-checked)."""
        return [
            GridPoint(k, b, rate, self.dithered, self.algorithm)
            for b in self.bit_depths
            for k in self.sparsities
            for rate in self.bitrates
        ]


class TrialOutcomes(NamedTuple):
    """Outcomes of a chunk of trials, as (T,) arrays in trial order."""

    hits: np.ndarray  # true positives |supp est & supp true|; the TPR is hits / K
    l2_error: np.ndarray  # ||truth - estimate||_2
    iterations: np.ndarray  # QIHT iterations run; 0 for PBP


@dataclass(frozen=True)
class AggregateResult:
    """Mean support-recovery statistics at one grid point."""

    point: GridPoint
    trials: int
    mean_tpr_pct: float
    stderr_pct: float
    mean_l2_error: float


def trial_seeds(point: GridPoint, trial_indices, master_seed: int, n_bins: int = ExperimentConfig.n_bins) -> tuple:
    """(profile, plan, dither) sub-seed lists of the trials, one seed per trial each.

    The common-random-numbers rule, which sweeps and ``gen-capture`` share:
    profiles depend on (n_bins, K, trial), plans on (n_bins, M, trial) and
    dithers on (n_bins, M, b, trial) only.
    """
    return (_profile_seeds(point.sparsity, trial_indices, master_seed, n_bins),) + _acquisition_seeds(
        point.n_meas, point.bit_depth, trial_indices, master_seed, n_bins
    )


def _profile_seeds(sparsity: int, trial_indices, master_seed: int, n_bins: int) -> list:
    return derive_seeds(master_seed, ("profile", n_bins, sparsity), trial_indices)


def _acquisition_seeds(n_meas: int, bit_depth, trial_indices, master_seed: int, n_bins: int) -> tuple:
    return (
        derive_seeds(master_seed, ("plan", n_bins, n_meas), trial_indices),
        derive_seeds(master_seed, ("dither", n_bins, n_meas, bit_depth), trial_indices),
    )


def _even_ranges(count: int, parts: int) -> list:
    """``range(count)`` cut into ``parts`` consecutive ranges whose lengths differ by at most one."""
    bounds = [count * i // parts for i in range(parts + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def run_block(points, trial_indices, master_seed: int, n_bins: int, recovery: RecoveryConfig) -> list:
    """Execute the same seeded trials at every point, all of sparsity ``recovery.sparsity``.

    The profiles and their spectrum are drawn once for all the points; each
    point runs in sub-chunks of at most CHUNK_ELEMENTS values.  Returns one
    :class:`TrialOutcomes` per point, in the order of ``points``.
    """
    k, t = recovery.sparsity, len(trial_indices)
    if any(point.sparsity != k for point in points):
        raise ValueError(f"every point of a block must have the recovery's sparsity {k}")
    # T rows each: the profiles, then every point's plans and its dithers.
    seeds = _profile_seeds(k, trial_indices, master_seed, n_bins)
    for point in points:
        for point_seeds in _acquisition_seeds(point.n_meas, point.bit_depth, trial_indices, master_seed, n_bins):
            seeds += point_seeds
    stack = SeedStack(seeds)
    truth = random_profile(n_bins, k, stack[:t])
    spectrum = np.fft.fft(truth)
    outcomes = []
    for i, point in enumerate(points):
        plan_rows, dither_rows = t * (2 * i + 1), t * (2 * i + 2)
        chunks = _even_ranges(t, -(-t // _chunk_rows(point, n_bins)))
        parts = [
            _run_rows(
                point,
                truth[c.start : c.stop],
                spectrum[c.start : c.stop],
                stack[plan_rows + c.start : plan_rows + c.stop],
                stack[dither_rows + c.start : dither_rows + c.stop],
                recovery,
            )
            for c in chunks
        ]
        outcomes.append(TrialOutcomes(*map(np.concatenate, zip(*parts))))
    return outcomes


def _chunk_rows(point: GridPoint, n_bins: int) -> int:
    """Most trials of the point one sub-chunk holds."""
    return max(1, CHUNK_ELEMENTS // max(point.n_meas, n_bins))


def _run_rows(point, truth, spectrum, plan_seeds, dither_seeds, recovery) -> TrialOutcomes:
    """Outcomes of one sub-chunk of a point's trials, whose profiles and spectra are given."""
    plan = make_sampling_plan(truth.shape[1], point.n_meas, plan_seeds)
    quantizer, dither, y = acquire(plan, point.bit_depth, point.dithered, dither_seeds, spectrum=spectrum)
    estimates, iterations, _, _ = estimate(point.algorithm, plan, quantizer, dither, y, recovery)
    return TrialOutcomes(
        hits=np.count_nonzero((truth != 0) & (estimates != 0), axis=1),
        # The 1-D norm of each row, as a single trial computes it, from one (T, N) difference.
        l2_error=_row_norms(truth - estimates),
        iterations=iterations,
    )


def run_trials(point: GridPoint, trial_indices, master_seed: int, *, n_bins: int = ExperimentConfig.n_bins) -> TrialOutcomes:
    """Execute seeded trials of the grid point: a :func:`run_block` of one point.

    Each trial draws its profile, plan, and dither from its own sub-seeds of
    ``master_seed`` (:func:`trial_seeds`), gets its own range-adapted
    quantizer, and is scored for support recovery and l2 error.  QIHT runs
    at the default settings, ``RecoveryConfig(point.sparsity)``; other
    settings go through :func:`run_block`.
    """
    return run_block((point,), trial_indices, master_seed, n_bins, RecoveryConfig(point.sparsity))[0]


def run_trial(point: GridPoint, trial_index: int, master_seed: int, *, n_bins: int = ExperimentConfig.n_bins) -> TrialOutcomes:
    """Execute one seeded trial of the grid point: a batch of one, as (1,) arrays."""
    return run_trials(point, [trial_index], master_seed, n_bins=n_bins)


def point_is_runnable(point: GridPoint) -> tuple:
    """Check the measurement count against the protocol range."""
    m = point.n_meas
    if not MEAS_RANGE[0] <= m <= MEAS_RANGE[1]:
        return False, f"M={m} outside [{MEAS_RANGE[0]}, {MEAS_RANGE[1]}]"
    return True, ""


def trial_blocks(config: ExperimentConfig, workers: int) -> list:
    """The trials as even, consecutive blocks: at least ``workers``, each within CHUNK_ELEMENTS profile values."""
    per_block = max(1, CHUNK_ELEMENTS // config.n_bins)
    return _even_ranges(config.trials, min(config.trials, max(workers, -(-config.trials // per_block))))


def _aggregate(point: GridPoint, chunks) -> AggregateResult:
    """Aggregate the point's chunk outcomes, given in trial order.

    The three sums (TPR, squared TPR, l2 error) are ``np.add.accumulate``'s
    last values, which add one value at a time in trial order: ``np.sum``
    adds pairwise and the builtin ``sum`` compensates (from Python 3.12), and
    either would change the last bits of the results.  The values are
    non-negative, so starting from the first rather than 0.0 changes no bit.
    """
    outcomes = TrialOutcomes(*map(np.concatenate, zip(*chunks)))
    tpr, n = outcomes.hits / point.sparsity, len(outcomes.hits)
    tpr_sum, tpr_sq_sum, l2_sum = map(float, np.add.accumulate([tpr, tpr * tpr, outcomes.l2_error], axis=1)[:, -1])
    mean = tpr_sum / n
    var = max(0.0, (tpr_sq_sum - n * mean * mean) / (n - 1)) if n > 1 else 0.0
    stderr = (var / n) ** 0.5
    return AggregateResult(
        point=point,
        trials=n,
        mean_tpr_pct=100.0 * mean,
        stderr_pct=100.0 * stderr,
        mean_l2_error=l2_sum / n,
    )


def _aggregate_point(config: ExperimentConfig, point: GridPoint) -> AggregateResult:
    """The point's row of ``run_grid(config, max_workers=1)``, which runs in this process."""
    (result,) = [r for r in run_grid(config, max_workers=1) if r.point == point]
    return result


def sort_key(point: GridPoint) -> tuple:
    return (
        point.algorithm,
        point.dithered,
        point.bit_depth is None,
        point.bits_per_component,
        point.sparsity,
        point.bitrate,
    )


def _resolve_workers(max_workers: Optional[int], n_tasks: int) -> int:
    """``max_workers``, by default the CPUs this process may run on, capped by ``n_tasks``."""
    if max_workers is None:
        max_workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    elif max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    return max(1, min(max_workers, n_tasks))


def _start() -> None:
    """Pool worker initializer: keep freed memory in the heap between sub-chunks (glibc only), and end with the process that started the worker.

    concurrent.futures workers do not watch their parent: one whose owner
    ends without the interpreter's exit (SIGTERM, SIGKILL, ``os._exit``)
    would block on its call queue forever.  A daemon thread waits on the
    parent's sentinel instead and ends the worker when the parent ends.
    (Linux's parent-death signal would fire when the forking thread ends,
    and the pool forks from whichever thread first submits to it.)
    """
    try:
        os.confstr("CS_GNU_LIBC_VERSION")
        mallopt = ctypes.CDLL(None).mallopt
    except (ValueError, OSError, AttributeError):
        pass
    else:
        mallopt(_M_MMAP_THRESHOLD, _WORKER_MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _WORKER_TRIM_THRESHOLD)
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(target=_exit_with, args=(parent,), daemon=True).start()


def _exit_with(parent) -> None:
    parent.join()
    os._exit(1)


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """This process's pool of ``workers`` workers: the one it keeps, or a new one.

    The caller holds ``_pool_lock``.  A pool of another size, or one that a
    dead worker has broken, is shut down once the work already submitted to
    it is done; concurrent.futures joins the workers of the last one at exit,
    and a worker ends with this process if it is killed (:func:`_start`).
    A copy of this module that is no longer the one imported under its name
    gets no pool and shuts down the one it kept: pickle sends a task's
    functions by name, and the name stands for another copy's.
    """
    global _pool
    module = sys.modules.get(__name__)
    if getattr(module, "__dict__", None) is not globals():
        if _pool is not None:
            _drop_pool(_pool[2], cancel_futures=False)
        raise RuntimeError(
            f"this copy of {__name__} is not the one imported under its name (a fresh import of the package "
            "replaced or discarded it), so its tasks cannot be sent to worker processes; sweep with the module "
            "as now imported, or with max_workers=1"
        )
    if _pool is not None:
        owner, size, pool, _ = _pool
        # _broken is private to concurrent.futures; were it gone, a broken pool would fail one sweep and be dropped.
        if owner == os.getpid() and size == workers and not getattr(pool, "_broken", False):
            return pool
        _drop_pool(pool, cancel_futures=False)
    pool = ProcessPoolExecutor(workers, initializer=_start)
    # A process that multiprocessing started joins its children as it ends,
    # before the interpreter exit that would stop the pool's workers; stop
    # them first, while the pool's queues (exit priority 10) still feed them.
    # Stop them as well as soon as this module is discarded, rather than when
    # the garbage collector frees its globals.  The hook takes no lock.
    stop = mp_util.Finalize(module, _drop_pool, args=(pool, True), exitpriority=20)
    _pool = (os.getpid(), workers, pool, stop)
    return pool


def _drop_pool(pool: ProcessPoolExecutor, cancel_futures: bool) -> None:
    """Forget ``pool`` and cancel its exit hook if this process keeps it, and shut it down if this process also started it.

    The caller holds ``_pool_lock``, except as the pool's exit hook.
    """
    global _pool
    if _pool is not None and _pool[2] is pool:
        owner, _, _, stop = _pool
        _pool = None
        stop.cancel()
        if owner == os.getpid():
            pool.shutdown(wait=True, cancel_futures=cancel_futures)


def run_grid(
    config: ExperimentConfig,
    max_workers: Optional[int] = None,
) -> list:
    """Aggregate every runnable grid point; deterministic result order.

    Points whose measurement count falls outside MEAS_RANGE are skipped with
    a warning.  The runnable points are grouped by sparsity, and each
    group's trials split into blocks (:func:`trial_blocks`), at least one
    per worker; a task is one :func:`run_block` of one group.  The tasks run
    on ``max_workers`` worker processes, by default as many as the CPUs this
    process may run on (its affinity mask where the platform has one, else
    the CPU count), and never more than the number of sub-chunks the points
    run; one worker runs them in this process and leaves its allocator
    alone.  Several run them on the pool this process keeps: it starts with
    the first parallel sweep, is rebuilt when the worker count changes or
    after a sweep on it failed, and ends when the process exits, or with it
    if it is killed.  Under the fork start method its workers see module
    state as it was when the pool started, not as patched since.  A copy
    of this module that a fresh import of the package replaced stops its
    pool, and refuses a parallel sweep with a RuntimeError, since its tasks
    cannot be pickled; it still sweeps on one worker.  Per-trial
    results are added up in trial order, so the aggregates are the same for
    any worker count; the output is sorted by (algorithm, dithered, bit
    depth, sparsity, bitrate).
    """
    runnable = []
    for point in config.grid_points():
        ok, reason = point_is_runnable(point)
        if ok:
            runnable.append(point)
        else:
            logger.warning("skipping grid point (%s): %s", point.describe(), reason)
    runnable.sort(key=sort_key)

    groups = {}  # sparsity -> indices into runnable
    for i, point in enumerate(runnable):
        groups.setdefault(point.sparsity, []).append(i)
    # A worker process is worth starting only for a sub-chunk of work or more.
    workers = _resolve_workers(max_workers, sum(-(-config.trials // _chunk_rows(p, config.n_bins)) for p in runnable))
    tasks = [(k, members, trials) for k, members in groups.items() for trials in trial_blocks(config, workers)]
    outcomes = [[] for _ in runnable]  # per point, block by block in trial order
    args = (
        run_block,
        [[runnable[i] for i in members] for _, members, _ in tasks],
        [trials for *_, trials in tasks],
        itertools.repeat(config.master_seed),
        itertools.repeat(config.n_bins),
        [config.recovery(k) for k, *_ in tasks],
    )
    pool = None
    try:
        if workers > 1:
            # Submitting under the lock keeps another thread from rebuilding the pool in between.
            with _pool_lock:
                pool = _worker_pool(workers)
                blocks = pool.map(*args)
        else:
            blocks = map(*args)
        for (_, members, _), block in zip(tasks, blocks):
            for i, point_outcomes in zip(members, block):
                outcomes[i].append(point_outcomes)
    except BaseException:
        if pool is not None:
            with _pool_lock:
                _drop_pool(pool, cancel_futures=True)
        raise
    results = []
    for point, point_outcomes in zip(runnable, outcomes):
        result = _aggregate(point, point_outcomes)
        logger.info("%s: mean TPR %.2f%%", point.describe(), result.mean_tpr_pct)
        results.append(result)
    return results
