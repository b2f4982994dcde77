"""Uniform mid-rise quantization, dither generation, and the sensing operator.

The quantizer maps a real sample x to delta*floor(x/delta) + delta/2 and is
applied independently to the real and imaginary parts of each measurement.
The step is delta = 2**(1-b) * Delta for bit depth b and dynamic range
[-Delta, Delta]; at b = 1 the quantizer reduces to a voltage comparator.
Inputs beyond +-Delta are not clipped: the dynamic range is adapted to the
signal (plus half a step of dither headroom) rather than saturating.

Quantization and sensing take a leading trial axis: a quantizer whose
dynamic range is a (T, 1) column quantizes row i of (T, M) values with its
own step, and a (T, M) dither stacks the dithers of T trials.  The range
rule and the dither draw stack the same way: :func:`adapted_quantizer` on
(T, M) measurements sizes one range per row, and :func:`draw_dither` given
T seeds draws row i from seed i with row i's step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .seeding import seed_rows
from .signal_model import ProfileLike, SamplingPlan, _Owned, _readonly, forward

__all__ = [
    "UNQUANTIZED_BITS",
    "QuantizerConfig",
    "Dither",
    "check_bit_depth",
    "decode_bit_depth",
    "encode_bit_depth",
    "quantize_complex",
    "dynamic_range_for",
    "adapted_quantizer",
    "draw_dither",
    "sense",
]

# Unquantized samples are accounted as 32-bit floats per real component.
UNQUANTIZED_BITS = 32


def check_bit_depth(bit_depth: Optional[int]) -> None:
    """Reject a bit depth outside [1, 32]; None (unquantized) passes."""
    if bit_depth is not None and not 1 <= bit_depth <= 32:
        raise ValueError(f"bit depth must be in [1, 32] or unquantized, got {bit_depth!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def decode_bit_depth(value) -> Optional[int]:
    """A bit depth from its spelling, an integer or None/"unquantized"; the range is :func:`check_bit_depth`'s."""
    if value is None or value == "unquantized":
        return None
    if _is_int(value):
        return value
    raise ValueError(f'bit depth must be an integer or "unquantized", got {value!r}')


def encode_bit_depth(bit_depth: Optional[int]):
    """The spelling of a bit depth in configs, sidecars and reports: the integer, or "unquantized"."""
    return "unquantized" if bit_depth is None else bit_depth


@dataclass(frozen=True)
class QuantizerConfig:
    """Bit depth per real component and ADC dynamic range.

    ``bit_depth=None`` models unquantized (full-resolution) acquisition; the
    dynamic range is then only bookkeeping.  Bit-rate accounting maps the
    unquantized mode to 32 bits per component.  A (T, 1) column of dynamic
    ranges (and so of steps) serves a stack of T trials.
    """

    bit_depth: Optional[int]
    dynamic_range: Union[float, np.ndarray]

    def __post_init__(self):
        check_bit_depth(self.bit_depth)
        if not np.all(np.asarray(self.dynamic_range) > 0):
            raise ValueError("dynamic_range must be > 0")

    @property
    def quantized(self) -> bool:
        return self.bit_depth is not None

    @property
    def step(self) -> float:
        """Quantization step delta = 2**(1-b) * Delta."""
        if self.bit_depth is None:
            raise ValueError("unquantized configuration has no step size")
        return 2.0 ** (1 - self.bit_depth) * self.dynamic_range


@dataclass(frozen=True, eq=False)
class Dither:
    """Complex dither vector; real/imag parts uniform on (-delta/2, delta/2).

    Unseeded (T, M) values stack the dithers of T trials.
    """

    values: np.ndarray
    seed: Optional[int] = None

    def __post_init__(self):
        vals = _readonly(self.values, np.complex128)
        if vals.ndim != 1 and (vals.ndim != 2 or self.seed is not None):
            raise ValueError("dither values must be a 1-D complex vector (or an unseeded stack)")
        object.__setattr__(self, "values", vals)

    @property
    def n_meas(self) -> int:
        return self.values.shape[-1]


def quantize_complex(config: QuantizerConfig, values: np.ndarray) -> np.ndarray:
    """Quantize real and imaginary parts of each component independently.

    Each part x becomes delta*floor(x/delta) + delta/2, computed in place on
    the interleaved float64 parts of one output array; ``values`` is not
    modified.
    """
    if not config.quantized:
        raise ValueError("cannot quantize with an unquantized configuration")
    return _acquire(config, None, np.array(values, dtype=np.complex128))


def dynamic_range_for(measurements: np.ndarray, bit_depth: Optional[int], dithered: bool, peak=None):
    """Smallest dynamic range covering the noiseless measurements.

    Undithered: Delta = ||r||_inf (largest modulus).  Dithered: the dither
    adds up to delta/2 = 2**-b * Delta per component, so the smallest Delta
    with Delta >= ||r||_inf + delta/2 is ||r||_inf / (1 - 2**-b).  For the
    unquantized mode the peak itself is returned for bookkeeping.  (T, M)
    measurements get a (T, 1) column, one range per row.  A caller that
    already knows ||r||_inf (its (T, 1) column, for a stack) passes it as
    ``peak``, and the measurements are not read.
    """
    check_bit_depth(bit_depth)
    if peak is None:
        r = np.asarray(measurements)
        if r.ndim == 2:
            peak = np.max(np.abs(r), axis=1, keepdims=True)
        else:
            peak = float(np.max(np.abs(r))) if r.size else 0.0
    if np.any(peak == 0.0):
        raise ValueError("cannot size a dynamic range for an all-zero signal")
    if bit_depth is None or not dithered:
        return peak
    return peak / (1.0 - 2.0 ** (-bit_depth))


def adapted_quantizer(measurements: np.ndarray, bit_depth: Optional[int], dithered: bool, peak=None) -> QuantizerConfig:
    """Build the quantizer whose range is adapted to ``measurements`` (row by row for (T, M)).

    ``peak``, when given, is their known ||r||_inf (see :func:`dynamic_range_for`).
    """
    return QuantizerConfig(
        bit_depth=bit_depth,
        dynamic_range=dynamic_range_for(measurements, bit_depth, dithered, peak),
    )


def draw_dither(config: QuantizerConfig, n_meas: int, seed) -> Dither:
    """Draw 2*n_meas i.i.d. uniforms on (-delta/2, delta/2); deterministic per seed.

    A sequence of T seeds draws an unseeded (T, M) stack whose row i is the
    dither of seed i, sized by row i of a (T, 1) column of steps (or by one
    shared step).
    """
    if not config.quantized:
        raise ValueError("dither is only defined for quantized configurations")
    rows, stacked = seed_rows(seed)
    half = 0.5 * config.step
    values = np.empty((len(rows), n_meas), dtype=np.complex128)
    pairs = values.view(np.float64).reshape(len(rows), n_meas, 2)
    uniforms = np.empty((2, n_meas))
    for row, g in zip(pairs, rows.generators()):
        # The real parts, then the imaginary parts, as two uniform() calls draw them.
        g.random(out=uniforms)
        row[...] = uniforms.T
    # Generator.uniform(low, high) computes low + (high - low) * u; applied
    # here to the whole stack, with low = -half and high - low = half + half.
    parts = values.view(np.float64)
    parts *= half + half
    parts += -half
    values.flags.writeable = False
    return Dither(values=_Owned(values), seed=None) if stacked else Dither(values=_Owned(values[0]), seed=int(seed))


def sense(
    plan: SamplingPlan,
    config: QuantizerConfig,
    dither: Optional[Dither],
    profile: ProfileLike,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Acquire a profile: partial-Fourier measurements, dither, quantization.

    Quantized mode returns Q(forward(profile) + xi) with xi = 0 when no
    dither is given; unquantized mode returns the raw measurements (a dither
    is rejected there, since it would only add noise).  The measurements are
    dithered and quantized where :func:`forward` wrote them, in ``out`` when
    given.
    """
    return _acquire(config, dither, forward(plan, profile, out=out))


def _acquire(config: QuantizerConfig, dither: Optional[Dither], measurements: np.ndarray) -> np.ndarray:
    """The acquisition step of :func:`sense` on measurements its caller owns.

    Adds the dither to ``measurements`` and quantizes them in place, in that
    same buffer, so a caller that has already computed ``forward`` (to size
    the dynamic range, say) neither recomputes nor copies it.  The buffer
    must be a complex128 array nothing else uses; unquantized mode returns
    it untouched.
    """
    if not config.quantized:
        if dither is not None:
            raise ValueError("unquantized sensing does not accept a dither")
        return measurements
    if dither is not None:
        if dither.n_meas != measurements.shape[-1]:
            raise ValueError(f"dither length {dither.n_meas} does not match n_meas={measurements.shape[-1]}")
        measurements += dither.values
    # A (T, 1) column of steps broadcasts over the 2M parts of each row.
    step = config.step
    parts = np.atleast_1d(measurements).view(np.float64)
    np.divide(parts, step, out=parts)
    np.floor(parts, out=parts)
    parts *= step
    parts += 0.5 * step
    return measurements
