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
T seeds draws row i from seed i with row i's step.  :func:`acquire` chains
them into the acquisition map that sweeps and captures share.

A (T, 1) column of steps is applied to rows of 256 values or more in
unbuffered row passes: numpy buffers a column that broadcasts over rows
shorter than its ufunc buffer, at about twice the cost of the arithmetic.
Inside :func:`_row_passes` the buffer is one row long; the values are the
same bytes either way.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .seeding import _seed_array, seed_rows
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
    "acquire",
    "sense",
]

# Unquantized samples are accounted as 32-bit floats per real component.
UNQUANTIZED_BITS = 32

# Shorter rows gain nothing from unbuffered passes (64-value rows run slower).
_MIN_UNBUFFERED_ROW = 256
_BUFFERED = contextlib.nullcontext()


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

    Unseeded (T, M) values stack the dithers of T trials.  A seed is a draw
    seed, in [0, 2**64), so a stored dither seed still draws.
    """

    values: np.ndarray
    seed: Optional[int] = None

    def __post_init__(self):
        vals = _readonly(self.values, np.complex128)
        if vals.ndim != 1 and (vals.ndim != 2 or self.seed is not None):
            raise ValueError("dither values must be a 1-D complex vector (or an unseeded stack)")
        if self.seed is not None:
            _seed_array([self.seed])
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


def dynamic_range_for(measurements: np.ndarray, bit_depth: Optional[int], dithered: bool):
    """Smallest dynamic range covering the noiseless measurements.

    Undithered: Delta = ||r||_inf (largest modulus).  Dithered: the dither
    adds up to delta/2 = 2**-b * Delta per component, so the smallest Delta
    with Delta >= ||r||_inf + delta/2 is ||r||_inf / (1 - 2**-b).  For the
    unquantized mode the peak itself is returned for bookkeeping.  (T, M)
    measurements get a (T, 1) column, one range per row.
    """
    check_bit_depth(bit_depth)
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


def adapted_quantizer(measurements: np.ndarray, bit_depth: Optional[int], dithered: bool) -> QuantizerConfig:
    """Build the quantizer whose range is adapted to ``measurements`` (row by row for (T, M))."""
    return QuantizerConfig(bit_depth=bit_depth, dynamic_range=dynamic_range_for(measurements, bit_depth, dithered))


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
    uniforms = np.empty((2, n_meas))
    for row, g in zip(values, rows.generators()):
        # The real parts, then the imaginary parts, as two uniform() calls draw them.
        g.random(out=uniforms)
        row.real, row.imag = uniforms
    # Generator.uniform(low, high) computes low + (high - low) * u; applied
    # here to the whole stack, with low = -half and high - low = half + half.
    parts = values.view(np.float64)
    with _row_passes(half, parts):
        parts *= half + half
        parts += -half
    values.flags.writeable = False
    return Dither(values=_Owned(values), seed=None) if stacked else Dither(values=_Owned(values[0]), seed=int(seed))


def acquire(
    plan: SamplingPlan, bit_depth: Optional[int], dithered: bool, dither_seed, profile=None, *, spectrum=None
) -> tuple:
    """The acquisition map: (quantizer, dither, measurements) of a profile, or of a (T, N) stack.

    ``forward`` (or the gather of ``spectrum``), the range rule, a dither of ``dither_seed`` (one
    per row) only when dithered and quantized, then :func:`_acquire`.  A plan that holds a whole
    ramp sees every bin in its first N columns, and its other columns copy them, so the range is
    read from those N: the same largest modulus, a NaN included.
    """
    r = forward(plan, profile, spectrum=spectrum)
    dithered = dithered and bit_depth is not None
    quantizer = adapted_quantizer(r[..., : plan.n_bins] if plan._ramps else r, bit_depth, dithered)
    dither = draw_dither(quantizer, plan.n_meas, dither_seed) if dithered else None
    return quantizer, dither, _acquire(quantizer, dither, r)


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
    """Add the dither to ``measurements`` and quantize them in place; unquantized, return them untouched.

    The buffer must be a complex128 array nothing else uses, as :func:`forward` writes for :func:`sense`.
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
    with _row_passes(step, parts):
        np.divide(parts, step, out=parts)
        np.floor(parts, out=parts)
        parts *= step
        parts += 0.5 * step
    return measurements


def _row_passes(step, parts: np.ndarray):
    """The scope of the passes of ``step`` over (T, L) ``parts``: unbuffered rows for a (T, 1) column.

    Inside, the ufunc buffer holds one row (L rounded down to a multiple of 16, as numpy asks), so
    the column is not copied out across rows; :class:`numpy.errstate` restores the buffer on exit.
    """
    length = parts.shape[-1]
    if np.ndim(step) != 2 or not _MIN_UNBUFFERED_ROW <= length <= np.getbufsize():
        return _BUFFERED
    return _RowBuffer(length // 16 * 16)


class _RowBuffer(np.errstate):
    """An :class:`numpy.errstate` scope, with unchanged error handling, whose ufunc buffer holds ``size`` values."""

    __slots__ = ("size",)

    def __init__(self, size: int):
        super().__init__()
        self.size = size

    def __enter__(self):
        super().__enter__()
        np.setbufsize(self.size)
