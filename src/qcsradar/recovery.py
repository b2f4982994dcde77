"""Sparse range-profile estimation from quantized measurements.

Two estimators: projected back projection (hard-threshold the scaled adjoint
of the measurements) and quantized iterative hard thresholding, which
iterates

    a_{j+1} = H_K[a_j + (mu/M) * adjoint(y - A(a_j))]

from the back-projection estimate, where A re-applies the acquisition map
(forward operator, known dither, quantizer) to the current iterate.  QIHT is
not guaranteed to converge.  An iterate that reproduces every measurement
(unquantized: a zero residual) stops at once; otherwise QIHT runs at least
MIN_STOP_ITERS iterations and at most the configured budget, stopping early
once the consistency with the observed bits reaches the target or strictly decreases.

Both estimators take a leading trial axis: (T, M) measurements through a
stacked plan, quantizer and dither are T independent trials, each row
following exactly the iteration and stop rule of a single trial; :func:`estimate`,
the one stacked entry, chooses between them.  :func:`pbp` and :func:`qiht` are the single-trial case.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .quantization import Dither, QuantizerConfig, sense
from .signal_model import RangeProfile, SamplingPlan, _Owned, _output, _unchecked_plan, adjoint

__all__ = [
    "ALGORITHMS",
    "MIN_STOP_ITERS",
    "STOP_REASONS",
    "RecoveryConfig",
    "RecoveryResult",
    "StopReason",
    "hard_threshold",
    "pbp",
    "consistency",
    "qiht",
    "stack_of_one",
    "estimate",
]

ALGORITHMS = ("pbp", "qiht")

# The target and drop rules engage only after this many iterations; a perfect
# iterate (every measurement reproduced or, unquantized, a zero residual) is a
# fixed point and stops at once.
MIN_STOP_ITERS = 20


class StopReason(str, enum.Enum):
    BUDGET = "budget"
    CONSISTENCY_TARGET = "consistency_target"
    CONSISTENCY_DROP = "consistency_drop"


# A stop code is the position of a stop reason in this tuple, in StopReason's order: a budget stop is 0.
STOP_REASONS = tuple(StopReason)
_BUDGET, _TARGET, _DROP = range(len(STOP_REASONS))


@dataclass(frozen=True)
class RecoveryConfig:
    """Sparsity level, step size, iteration budget, and stop target."""

    sparsity: int
    step_size: float = 1.0
    max_iters: Optional[int] = None
    consistency_target: float = 0.95

    def __post_init__(self):
        if self.sparsity < 1:
            raise ValueError("sparsity must be >= 1")
        try:
            step_ok = math.isfinite(self.step_size) and self.step_size > 0
        except OverflowError:  # an integer too large for any float
            step_ok = False
        if not step_ok:
            # Named as the config field and the --mu flag that set it.
            raise ValueError(f"mu must be a finite number > 0, got {self.step_size!r}")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters!r}")
        if not 0.0 < self.consistency_target <= 1.0:
            raise ValueError(f"consistency_target must lie in (0, 1], got {self.consistency_target!r}")

    def resolved_max_iters(self) -> int:
        """Iteration budget: max(20, 100 * K) unless overridden."""
        if self.max_iters is not None:
            return self.max_iters
        return max(MIN_STOP_ITERS, 100 * self.sparsity)


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    estimate: RangeProfile
    iterations_run: int
    final_consistency: float
    stop_reason: StopReason


def hard_threshold(values: np.ndarray, sparsity: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Keep the K largest-modulus components (of each row), zero the rest.

    Ties at the K-th modulus are broken toward the lowest index, so the
    result is deterministic.  Each row's K-th largest modulus is found by
    partition, not by sorting all N bins.  A row with exactly K bins at or
    above it keeps those; any other row keeps the bins strictly above it,
    then fills the remaining places from the ties, lowest index first.  A
    NaN modulus (from a diverged iterate) ranks below every number, so a row
    with fewer than K non-NaN bins keeps them all and fills up from its NaN
    bins, lowest index first, exactly as a stable sort would.  The result
    is written to ``out`` when given (which may be ``values`` itself).
    """
    v = np.asarray(values, dtype=np.complex128)
    n = v.shape[-1]
    if not 1 <= sparsity <= n:
        raise ValueError(f"sparsity must be in [1, {n}], got {sparsity}")
    rows = v.reshape(-1, n)
    # Rank on -|v|, ascending; partition places NaN last, as sorts do.
    rank = np.abs(rows)
    np.negative(rank, out=rank)
    kth = np.partition(rank, sparsity - 1, axis=1)[:, sparsity - 1 : sparsity]
    keep = rank <= kth  # all False where the K-th rank is NaN
    slow = keep.sum(axis=1) != sparsity
    if slow.any():
        # Ties at the K-th rank, or fewer than K numbers: rank NaN as +inf,
        # keep the bins strictly above the K-th, then the lowest-index ties.
        rank = rank[slow]
        rank[np.isnan(rank)] = np.inf
        kth = np.partition(rank, sparsity - 1, axis=1)[:, sparsity - 1 : sparsity]
        kept = rank < kth
        ties = rank == kth
        places = sparsity - np.count_nonzero(kept, axis=1, keepdims=True)
        kept |= ties & (np.cumsum(ties, axis=1) <= places)
        keep[slow] = kept
    out = _output(out, v.shape)
    kept_out = out.reshape(-1, n)
    if np.may_share_memory(kept_out, rows):  # in place: zero only the bins not kept
        np.copyto(kept_out, rows, where=keep)
        np.copyto(kept_out, 0, where=np.logical_not(keep, out=keep))
    else:
        kept_out.fill(0)
        np.copyto(kept_out, rows, where=keep)
    return out


def pbp(plan: SamplingPlan, measurements: np.ndarray, sparsity: int):
    """Projected back projection: H_K(adjoint(y) / M).

    A RangeProfile for one trial; a (T, N) array for a stacked plan.
    """
    back = hard_threshold(adjoint(plan, measurements) / plan.n_meas, sparsity)
    return RangeProfile(back) if back.ndim == 1 else back


def consistency(
    plan: SamplingPlan,
    config: QuantizerConfig,
    dither: Optional[Dither],
    measurements: np.ndarray,
    estimate,
) -> float:
    """Fraction of measurements the estimate reproduces exactly.

    A measurement counts as reproduced only if re-acquiring the estimate
    through the same plan, dither, and quantizer lands in the same cell for
    both the real and the imaginary part.  One trial: a 1-D plan and (M,)
    finite measurements, as a quantizer writes them.
    """
    if not config.quantized:
        raise ValueError("consistency is defined for quantized measurements only")
    y = np.asarray(measurements, dtype=np.complex128)
    if 2 in (plan.omega.ndim, y.ndim):
        raise ValueError("consistency takes one trial and a trial axis is extra: pass a 1-D plan and (M,) measurements")
    if y.shape != (plan.n_meas,):
        raise ValueError(f"measurement length {y.shape} does not match n_meas={plan.n_meas}")
    return float(_scores(y - sense(plan, config, dither, estimate), quantized=True))


def _scores(residual: np.ndarray, quantized: bool) -> np.ndarray:
    """Per-row QIHT stopping score of ``y - y_hat``: consistency (of one row or of each), or minus its norm.

    The measurements y are finite, so a part of the residual is exactly 0
    where the re-acquired part equals the measured one, and is nonzero, inf or
    NaN everywhere else.
    """
    if quantized:
        # A measurement matches when both of its float64 parts are 0: its pair
        # of bools, read as one uint16, is 0x0101.
        parts = np.equal(residual.view(np.float64), 0.0)
        return (parts.view(np.uint16) == 0x0101).sum(axis=-1) / residual.shape[-1]
    return -_row_norms(residual)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """The 1-D ``np.linalg.norm`` of each complex row, in the same bytes, for all rows at once.

    That norm is sqrt(re . re + im . im) over the strided parts; a stack of (1, N) @ (N, 1)
    products makes the same BLAS dot call on each row (a row holding NaNs of both signs may get
    a NaN of the other sign).  An ``axis=`` norm sums in another order, and the stop rule
    compares scores for exact equality.
    """
    re, im = rows.real[:, None, :], rows.imag[:, None, :]
    squares = np.matmul(re, re.mT) + np.matmul(im, im.mT)
    return np.sqrt(squares[:, 0, 0])


def _qiht_batch(
    plan: SamplingPlan,
    config: QuantizerConfig,
    dither: Optional[Dither],
    measurements: np.ndarray,
    recovery: RecoveryConfig,
) -> tuple:
    """QIHT on T trials at once: (T, M) measurements through a stacked plan.

    Each row runs the iteration and stop rule documented in :func:`qiht`; the
    measurements are finite, as a quantizer writes them.  Returns (estimates
    (T, N), iterations run (T,), final consistency (T,), int8 stop codes
    (T,)), in row order, all written by one ``stop``.  Its callers check the trial axis.

    The working arrays are allocated once per call and every iteration runs
    inside them.  When rows stop, running rows from the end move into their
    places and each array is cut to the running rows; the plan is not
    re-checked and the dither is a view, not a copy.
    """
    y_in = np.asarray(measurements, dtype=np.complex128)
    if y_in.shape != plan.omega.shape:
        raise ValueError(f"measurement length {y_in.shape} does not match n_meas={plan.n_meas}")
    if not config.quantized and dither is not None:
        raise ValueError("unquantized recovery does not accept a dither")
    if dither is not None and dither.values.shape != y_in.shape:
        raise ValueError(f"dither length {dither.n_meas} does not match n_meas={plan.n_meas}")

    quantized = config.quantized
    perfect, target = (1.0, recovery.consistency_target) if quantized else (0.0, 0.0)
    k = recovery.sparsity
    mu = recovery.step_size
    budget = recovery.resolved_max_iters()
    t, m = y_in.shape
    estimates = np.zeros((t, plan.n_bins), dtype=np.complex128)
    iterations = np.zeros(t, dtype=int)
    final = np.zeros(t)
    codes = np.zeros(t, dtype=np.int8)

    # Place i of each working array holds running row rows[i].  The caller's
    # measurements and dither serve until the first row stops; then the
    # running rows are copied out once, and later stops move rows in place.
    rows = np.arange(t)
    y, xi = y_in, None if dither is None else dither.values
    ranges = np.array(config.dynamic_range) if np.ndim(config.dynamic_range) else None
    residual = np.empty_like(y_in)
    current, step, best = (np.empty_like(estimates) for _ in range(3))
    best_score = best_match = np.full(t, -np.inf)
    batch_plan = plan

    def stop(mask, code, j):  # a target stop keeps its iterate, any other the best; a budget stop counts the budget
        at = np.flatnonzero(mask)
        i, code, kept = rows[at], code[at], code[at] == _TARGET
        estimates[i], final[i] = np.where(kept[:, None], current[at], best[at]), np.where(kept, match[at], best_match[at])
        iterations[i], codes[i] = np.where(code == _BUDGET, budget, j), code

    for j in range(budget + 1):
        late, spent = j >= MIN_STOP_ITERS, j == budget  # a spent row stops as a budget stop, unless a rule stops it
        if j:
            np.multiply(mu / m, adjoint(plan, residual, out=step), out=step)
            hard_threshold(np.add(current, step, out=step), k, out=step if late else current)
            if late:  # a row that repeats its bytes would repeat them up to the budget
                spent = spent or (step.view(np.uint64) == current.view(np.uint64)).all(axis=1)
                current, step = step, current
        else:
            current[:] = pbp(plan, y, k)  # start from the back projection
        # ``residual`` holds y - A(current): the re-acquired iterate, then at once its residual.
        np.subtract(y, sense(plan, config, dither, current, out=residual), out=residual)
        score = _scores(residual, quantized)
        match = score if quantized else _scores(residual, True)
        better = (score > best_score) | (j == 0)  # the start is the first best iterate, whatever its score
        if better.any():
            np.copyto(best, current, where=better[:, None])
            best_score = np.where(better, score, best_score)
            best_match = best_score if quantized else np.where(better, match, best_match)
        # A perfect iterate is a fixed point (the update vanishes), so it stops at once; the target waits.
        # Unquantized, the score is -||r|| <= 0: only a zero residual is perfect, or reaches the target.
        done = score >= (target if late else perfect)
        dropped = late and score < prev_score
        stopped = done | dropped | spent
        if stopped.any():
            stop(stopped, np.where(done, _TARGET, np.where(dropped, _DROP, _BUDGET)), j)
            live = len(rows) - int(np.count_nonzero(stopped))
            if not live:
                break
            # Running rows from past the new end take the places of stopped rows before it.
            holes = np.flatnonzero(stopped[:live])
            movers = live + np.flatnonzero(~stopped[live:])
            _fill(holes, movers, rows, residual, current, best, score, best_score, best_match, ranges)
            if y is y_in:  # the first stop: copy the running rows out of the caller's arrays
                y, xi = y_in[rows[:live]], None if xi is None else xi[rows[:live]]
            else:
                _fill(holes, movers, y, xi)
            rows, y, residual, current, step, best = (a[:live] for a in (rows, y, residual, current, step, best))
            score, best_score, best_match = score[:live], best_score[:live], best_match[:live]
            plan = batch_plan._rows(rows)
            if ranges is not None:
                ranges = ranges[:live]
                config = replace(config, dynamic_range=ranges)
            if xi is not None:
                xi = xi[:live]
                frozen = xi.view()  # the Dither's view is read-only, as its values always are
                frozen.flags.writeable = False
                dither = Dither(_Owned(frozen))
        prev_score = score
    return estimates, iterations, final, codes


def _fill(holes: np.ndarray, movers: np.ndarray, *arrays) -> None:
    """Copy the rows ``movers`` of each array (None skipped) onto its rows ``holes``."""
    for array in arrays:
        if array is not None:
            array[holes] = array[movers]


def qiht(
    plan: SamplingPlan,
    config: QuantizerConfig,
    dither: Optional[Dither],
    measurements: np.ndarray,
    recovery: RecoveryConfig,
) -> RecoveryResult:
    """Quantized iterative hard thresholding from the back-projection start.

    The dither must be the vector used during acquisition: the update
    re-applies the full acquisition map to each iterate.  Stopping: a
    perfectly consistent iterate stops immediately, at any iteration (the
    update vanishes identically); otherwise, after at least MIN_STOP_ITERS
    iterations, the loop stops when consistency reaches
    ``recovery.consistency_target`` (returning the current iterate) or
    strictly decreases (returning the best iterate so far); exhausting the
    budget also returns the best iterate seen, and so at once does a late
    iterate that repeats its bytes: the count (the budget) and the reason
    follow the rule, not the work done.  With an unquantized configuration
    minus the residual norm replaces consistency as the stopping score, a
    zero residual is perfect (and the only score to reach the target), and
    the recursion is plain iterative hard thresholding.
    """
    plan, dither, y = stack_of_one(plan, dither, measurements)
    (estimate,), (iterations,), (final,), (code,) = _qiht_batch(plan, config, dither, y, recovery)
    return RecoveryResult(RangeProfile(estimate), int(iterations), float(final), STOP_REASONS[code])


def stack_of_one(plan: SamplingPlan, dither: Optional[Dither], measurements: np.ndarray) -> tuple:
    """One trial as stacks of one: one-row views of the plan's and dither's read-only arrays, uncopied and unchecked."""
    if plan.omega.ndim != 1:
        raise ValueError("a single trial takes a 1-D plan and a trial axis is extra: pass stacks to estimate")
    y = np.asarray(measurements, dtype=np.complex128)
    stacked_dither = None if dither is None else Dither(_Owned(dither.values[None]))
    return _unchecked_plan(plan.n_bins, plan.n_meas, plan.omega[None], None, plan._ramps), stacked_dither, y[None]


def estimate(algorithm: str, plan: SamplingPlan, config: QuantizerConfig, dither: Optional[Dither],
             measurements: np.ndarray, recovery: RecoveryConfig) -> tuple:
    """PBP or QIHT on (T, M) stacks: estimates (T, N), iterations run (T,), final consistency (T,) and
    stop codes (T,), row i exactly what :func:`qiht` gives for trial i; STOP_REASONS[code] is the stop
    reason.  PBP runs 0 iterations with None stop codes and a None final consistency: that costs one
    more :func:`sense`, which a caller that wants it pays through :func:`consistency`.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    if 1 in (plan.omega.ndim, np.ndim(measurements)):
        raise ValueError("estimate takes (T, M) stacks and a trial axis is missing: pass one trial through stack_of_one")
    if algorithm == "qiht":
        return _qiht_batch(plan, config, dither, measurements, recovery)
    estimates = pbp(plan, measurements, recovery.sparsity)
    return estimates, np.zeros(len(estimates), dtype=int), None, None
