"""Sparse range-profile estimation from quantized measurements.

Two estimators: projected back projection (hard-threshold the scaled adjoint
of the measurements) and quantized iterative hard thresholding, which
iterates

    a_{j+1} = H_K[a_j + (mu/M) * adjoint(y - A(a_j))]

from the back-projection estimate, where A re-applies the acquisition map
(forward operator, known dither, quantizer) to the current iterate.  QIHT is
not guaranteed to converge; it runs at least MIN_STOP_ITERS iterations and at
most the configured budget, stopping early once the consistency with the
observed bits reaches the target or strictly decreases.

Both estimators take a leading trial axis: (T, M) measurements through a
stacked plan, quantizer and dither are T independent trials, and each row
follows exactly the iteration and stop rule of a single trial
(:func:`qiht_batch`).  A row that stops leaves the batch, so later
iterations only pay for the rows still running.  :func:`pbp` and
:func:`qiht` are the single-trial case.  :func:`hard_threshold` finds each
row's K-th largest modulus by partition rather than sorting all N bins,
and keeps exactly the bins a stable sort would.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .quantization import Dither, QuantizerConfig, sense
from .signal_model import RangeProfile, SamplingPlan, _Owned, adjoint

__all__ = [
    "MIN_STOP_ITERS",
    "RecoveryConfig",
    "RecoveryResult",
    "StopReason",
    "hard_threshold",
    "pbp",
    "consistency",
    "qiht",
    "qiht_batch",
]

# Early-stop rules only engage after this many iterations; the iteration
# count therefore lies between MIN_STOP_ITERS and the budget (unless the
# iterate is already perfectly consistent, a provable fixed point).
MIN_STOP_ITERS = 20


class StopReason(str, enum.Enum):
    BUDGET = "budget"
    CONSISTENCY_TARGET = "consistency_target"
    CONSISTENCY_DROP = "consistency_drop"


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


def hard_threshold(values: np.ndarray, sparsity: int) -> np.ndarray:
    """Keep the K largest-modulus components (of each row), zero the rest.

    Ties at the K-th modulus are broken toward the lowest index, so the
    result is deterministic.  Each row's K-th largest modulus is found by
    partition, not by sorting all N bins: the bins strictly above it are
    kept, then the ties fill the remaining places, lowest index first.  A
    NaN modulus (from a diverged iterate) ranks below every number, so a row
    with fewer than K non-NaN bins keeps them all and fills up from its NaN
    bins, lowest index first, exactly as a stable sort would.
    """
    v = np.asarray(values, dtype=np.complex128)
    n = v.shape[-1]
    if not 1 <= sparsity <= n:
        raise ValueError(f"sparsity must be in [1, {n}], got {sparsity}")
    rows = v.reshape(-1, n)
    # Rank on -|v|, ascending, with NaN as +inf (last, as sorts place NaN).
    rank = np.abs(rows)
    np.negative(rank, out=rank)
    rank[np.isnan(rank)] = np.inf
    kth = np.partition(rank, sparsity - 1, axis=1)[:, sparsity - 1 : sparsity]
    keep = rank < kth
    ties = rank == kth
    places = sparsity - np.count_nonzero(keep, axis=1, keepdims=True)
    keep |= ties & (np.cumsum(ties, axis=1) <= places)
    return np.where(keep, rows, 0).reshape(v.shape)


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
    both the real and the imaginary part.
    """
    if not config.quantized:
        raise ValueError("consistency is defined for quantized measurements only")
    y = np.asarray(measurements, dtype=np.complex128)
    if y.shape != (plan.n_meas,):
        raise ValueError(f"measurement length {y.shape} does not match n_meas={plan.n_meas}")
    return float(np.mean(sense(plan, config, dither, estimate) == y))


def _scores(y: np.ndarray, y_hat: np.ndarray, quantized: bool) -> np.ndarray:
    """Per-row QIHT stopping score: consistency, or minus the residual norm."""
    if quantized:
        return (y_hat == y).sum(axis=1) / y.shape[1]
    # One 1-D norm per row: an ``axis=`` norm sums in another order, and the
    # stop rule compares scores for exact equality.
    return np.array([-float(np.linalg.norm(r)) for r in y - y_hat])


def qiht_batch(
    plan: SamplingPlan,
    config: QuantizerConfig,
    dither: Optional[Dither],
    measurements: np.ndarray,
    recovery: RecoveryConfig,
) -> tuple:
    """QIHT on T trials at once: (T, M) measurements through a stacked plan.

    Each row runs the iteration and stop rule documented in :func:`qiht`.
    Returns (estimates (T, N), iterations run (T,), final consistency (T,),
    stop reasons (list of T)), in row order.
    """
    y = np.asarray(measurements, dtype=np.complex128)
    if y.ndim != 2 or y.shape != plan.omega.shape:
        raise ValueError(f"measurement length {y.shape} does not match n_meas={plan.n_meas}")
    if not config.quantized and dither is not None:
        raise ValueError("unquantized recovery does not accept a dither")
    if dither is not None and dither.values.shape != y.shape:
        raise ValueError(f"dither length {dither.n_meas} does not match n_meas={plan.n_meas}")

    quantized = config.quantized
    k = recovery.sparsity
    mu = recovery.step_size
    budget = recovery.resolved_max_iters()
    m = plan.n_meas
    t = len(y)
    estimates = np.zeros((t, plan.n_bins), dtype=np.complex128)
    iterations = np.full(t, budget)
    final = np.zeros(t)
    reasons = [StopReason.BUDGET] * t
    rows = np.arange(t)  # batch row of each running row

    def stop(mask, chosen, consistency_of, reason, j):
        for i in np.flatnonzero(mask):
            estimates[rows[i]], iterations[rows[i]] = chosen[i], j
            final[rows[i]], reasons[rows[i]] = consistency_of[i], reason

    current = pbp(plan, y, k)  # start from the back projection
    y_hat = sense(plan, config, dither, current)
    score = prev_score = _scores(y, y_hat, quantized)
    match = score if quantized else _scores(y, y_hat, True)
    best, best_score, best_match = current, score, match
    for j in range(budget + 1):
        if j:
            current = hard_threshold(current + (mu / m) * adjoint(plan, y - y_hat), k)
            y_hat = sense(plan, config, dither, current)
            score = _scores(y, y_hat, quantized)
            match = score if quantized else _scores(y, y_hat, True)
            better = score > best_score
            if better.any():
                best = np.where(better[:, None], current, best)
                best_score = np.where(better, score, best_score)
                best_match = np.where(better, match, best_match)
        late = j >= MIN_STOP_ITERS
        # Perfect consistency is a fixed point (the update vanishes), so it
        # stops at once; the other rules wait for MIN_STOP_ITERS.
        if quantized:
            done = (score == 1.0) | (score >= recovery.consistency_target) if late else score == 1.0
        else:
            done = score == 0.0 if late or j == 0 else np.zeros(len(y), dtype=bool)
        stopped = done | (score < prev_score) if late else done
        if stopped.any():
            stop(done, current, match, StopReason.CONSISTENCY_TARGET, j)
            stop(stopped & ~done, best, best_match, StopReason.CONSISTENCY_DROP, j)
            running = ~stopped
            if not running.any():
                break
            rows, y, y_hat, current = rows[running], y[running], y_hat[running], current[running]
            best, best_score, best_match = best[running], best_score[running], best_match[running]
            score = score[running]
            plan = replace(plan, omega=plan.omega[running])
            if np.ndim(config.dynamic_range):
                config = replace(config, dynamic_range=config.dynamic_range[running])
            if dither is not None:
                dither = Dither(dither.values[running])
        prev_score = score
    else:
        stop(np.ones(len(y), dtype=bool), best, best_match, StopReason.BUDGET, budget)
    return estimates, iterations, final, reasons


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
    perfectly consistent iterate stops immediately (the update vanishes
    identically); otherwise, after at least MIN_STOP_ITERS iterations, the
    loop stops when consistency reaches ``recovery.consistency_target``
    (returning the current iterate) or strictly decreases (returning the
    best iterate so far); exhausting the budget also returns the best
    iterate seen.  With an unquantized configuration the residual norm
    replaces consistency as the stopping score and the recursion is plain
    iterative hard thresholding.
    """
    y = np.asarray(measurements, dtype=np.complex128)
    # One-row views of the plan's and dither's own read-only arrays, uncopied;
    # qiht_batch checks their lengths.
    stacked_dither = None if dither is None else Dither(_Owned(dither.values[None]))
    (estimate,), (iterations,), (final,), (reason,) = qiht_batch(
        replace(plan, omega=_Owned(plan.omega[None])), config, stacked_dither, y[None], recovery
    )
    return RecoveryResult(RangeProfile(estimate), int(iterations), float(final), reason)
