"""Constructive quantization-ambiguity demonstration.

Two distinct scenes — a unit target, and the same target plus a weaker one —
can quantize to identical 1-bit measurements whenever every measurement of
the first scene keeps both real and imaginary parts farther than the second
target's amplitude from the quadrant boundaries.  A random dither breaks the
coincidence with probability growing in the number of measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .evaluation import CHUNK_ELEMENTS
from .quantization import Dither, QuantizerConfig, _acquire, adapted_quantizer, draw_dither, sense
from .seeding import SeedStack, derive_seed, derive_seeds
from .signal_model import RangeProfile, SamplingPlan, forward, make_sampling_plan

__all__ = [
    "AmbiguousPair",
    "build_pair",
    "quadrant_margin",
    "check_margin",
    "ambiguity_holds",
    "ambiguity_report",
]


@dataclass(frozen=True, eq=False)
class AmbiguousPair:
    """A single-target scene and the same scene with one extra weak target."""

    base: RangeProfile
    alternate: RangeProfile
    gamma: float

    def __post_init__(self):
        diff = np.linalg.norm(self.alternate.amplitudes - self.base.amplitudes)
        if not np.isclose(diff, self.gamma, rtol=1e-12, atol=1e-12):
            raise ValueError("profiles must differ by a single target of amplitude gamma")


def build_pair(
    n_bins: int,
    bin_base: int,
    bin_extra: int,
    phase_base: float,
    phase_extra: float,
    gamma: float,
) -> AmbiguousPair:
    """Build the pair (unit target at bin_base, plus gamma target at bin_extra).

    Bins are 1-based range-bin numbers (bin N aliases to DFT index 0); the
    phases lie in [-pi, pi) and 0 < gamma < 1.
    """
    for name, b in (("bin_base", bin_base), ("bin_extra", bin_extra)):
        if not 1 <= b <= n_bins:
            raise ValueError(f"{name} must be in [1, {n_bins}], got {b}")
    if bin_base == bin_extra:
        raise ValueError("the two bins must be distinct")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    for name, p in (("phase_base", phase_base), ("phase_extra", phase_extra)):
        if not -np.pi <= p < np.pi:
            raise ValueError(f"{name} must lie in [-pi, pi), got {p}")
    base = np.zeros(n_bins, dtype=np.complex128)
    base[bin_base % n_bins] = np.exp(-1j * phase_base)
    alt = base.copy()
    alt[bin_extra % n_bins] = gamma * np.exp(-1j * phase_extra)
    return AmbiguousPair(
        base=RangeProfile(base),
        alternate=RangeProfile(alt),
        gamma=gamma,
    )


def quadrant_margin(plan: SamplingPlan, profile: RangeProfile) -> float:
    """Distance of the profile's measurements to the nearest axis.

    Returns min over measurements of min(|Re r[m]|, |Im r[m]|); for a
    unit-modulus single target this is the room left before a second target
    of that amplitude could push any measurement across a 1-bit cell
    boundary.
    """
    r = forward(plan, profile)
    return float(np.min(np.minimum(np.abs(r.real), np.abs(r.imag))))


def check_margin(plan: SamplingPlan, profile: RangeProfile, gamma: float) -> bool:
    """True iff the margin condition holds: quadrant_margin(profile) > gamma.

    ``profile`` must be a single unit-modulus target; when the condition
    holds, undithered 1-bit measurements of the pair coincide for every
    placement and phase of the second target.
    """
    if profile.sparsity != 1:
        raise ValueError("margin check expects a single-target profile")
    peak = np.max(np.abs(profile.amplitudes))
    if not np.isclose(peak, 1.0, rtol=1e-9):
        raise ValueError("margin check expects a unit-modulus target")
    return quadrant_margin(plan, profile) > gamma


def ambiguity_holds(
    plan: SamplingPlan,
    config: QuantizerConfig,
    pair: AmbiguousPair,
    dither: Optional[Dither] = None,
) -> bool:
    """True iff both scenes quantize to exactly the same measurement vector.

    Exact equality is safe: both sides lie on the same quantization grid and
    are produced by the same code path.  The b = 1 case carries the
    geometric guarantee; other depths are reported without one.
    """
    y_base = sense(plan, config, dither, pair.base)
    y_alt = sense(plan, config, dither, pair.alternate)
    return bool(np.array_equal(y_base, y_alt))


def ambiguity_report(
    n_bins: int,
    bin_base: int,
    bin_extra: int,
    phase_base: float,
    phase_extra: float,
    gamma: float,
    n_meas: int,
    n_seeds: int,
    seed: int,
    bit_depth: int = 1,
) -> dict:
    """Measure one ambiguous pair with and without dither.

    Returns {"margin", "condition_holds", "undithered_AC", "dithered_AC_rate",
    "n_seeds"}: the quadrant margin of the base scene, whether it exceeds
    gamma, whether the undithered quantized observations coincide, and the
    fraction of dither seeds for which they still coincide.  Every argument
    is checked before the first dither draw.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    pair = build_pair(n_bins, bin_base, bin_extra, phase_base, phase_extra, gamma)
    plan = make_sampling_plan(n_bins, n_meas, derive_seed(seed, "ambiguity-plan", n_bins, n_meas))
    # The range must cover whichever of the two scenes is observed.
    r_base, r_alt = forward(plan, pair.base), forward(plan, pair.alternate)
    both = np.concatenate([r_base, r_alt])
    undithered_cfg = adapted_quantizer(both, bit_depth, dithered=False)
    dithered_cfg = adapted_quantizer(both, bit_depth, dithered=True)

    margin = quadrant_margin(plan, pair.base)
    undithered = ambiguity_holds(plan, undithered_cfg, pair, dither=None)
    # The dithers are drawn as (T, M) stacks, and each scene is sensed
    # through all of a stack's rows at once: row i is Q(forward(scene) +
    # dither i), as sense computes it for that one dither.  The dither and
    # the two sensed stacks together hold at most CHUNK_ELEMENTS values.
    seeds = SeedStack(derive_seeds(seed, ("ambiguity-dither",), range(n_seeds)))
    rows = max(1, CHUNK_ELEMENTS // (3 * n_meas))
    hits = 0
    for lo in range(0, n_seeds, rows):
        dither = draw_dither(dithered_cfg, n_meas, seeds[lo : lo + rows])
        y_base = _acquire(dithered_cfg, None, r_base + dither.values)
        y_alt = _acquire(dithered_cfg, None, r_alt + dither.values)
        hits += int(np.count_nonzero(np.all(y_base == y_alt, axis=1)))
    return {
        "margin": margin,
        "condition_holds": bool(margin > gamma),
        "undithered_AC": bool(undithered),
        "dithered_AC_rate": hits / n_seeds,
        "n_seeds": n_seeds,
    }
