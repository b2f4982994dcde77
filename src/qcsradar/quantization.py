"""Uniform mid-rise quantization, dither generation, and the sensing operator.

The quantizer maps a real sample x to delta*floor(x/delta) + delta/2 and is
applied independently to the real and imaginary parts of each measurement.
The step is delta = 2**(1-b) * Delta for bit depth b and dynamic range
[-Delta, Delta]; at b = 1 the quantizer reduces to a voltage comparator.
Inputs beyond +-Delta are not clipped: the dynamic range is adapted to the
signal (plus half a step of dither headroom) rather than saturating.

Quantization and sensing take a leading trial axis: a quantizer whose
dynamic range is a (T, 1) column quantizes row i of (T, M) values with its
own step, and a (T, M) dither stacks the dithers of T trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .seeding import generator
from .signal_model import ProfileLike, SamplingPlan, forward

__all__ = [
    "UNQUANTIZED_BITS",
    "QuantizerConfig",
    "Dither",
    "check_bit_depth",
    "quantize_scalar",
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

    @property
    def bits_per_component(self) -> int:
        return UNQUANTIZED_BITS if self.bit_depth is None else self.bit_depth


@dataclass(frozen=True, eq=False)
class Dither:
    """Complex dither vector; real/imag parts uniform on (-delta/2, delta/2).

    Unseeded (T, M) values stack the dithers of T trials.
    """

    values: np.ndarray
    seed: Optional[int] = None

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.complex128)
        if vals.ndim != 1 and (vals.ndim != 2 or self.seed is not None):
            raise ValueError("dither values must be a 1-D complex vector (or an unseeded stack)")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n_meas(self) -> int:
        return self.values.shape[-1]


def _midrise(values: np.ndarray, step: float) -> np.ndarray:
    return step * np.floor(values / step) + 0.5 * step


def quantize_scalar(config: QuantizerConfig, value: float) -> float:
    """Quantize one real sample: delta*floor(x/delta) + delta/2."""
    if not config.quantized:
        raise ValueError("cannot quantize with an unquantized configuration")
    return float(_midrise(np.float64(value), config.step))


def quantize_complex(config: QuantizerConfig, values: np.ndarray) -> np.ndarray:
    """Quantize real and imaginary parts of each component independently."""
    if not config.quantized:
        raise ValueError("cannot quantize with an unquantized configuration")
    v = np.asarray(values, dtype=np.complex128)
    step = config.step
    return _midrise(v.real, step) + 1j * _midrise(v.imag, step)


def dynamic_range_for(measurements: np.ndarray, bit_depth: Optional[int], dithered: bool) -> float:
    """Smallest dynamic range covering the noiseless measurements.

    Undithered: Delta = ||r||_inf (largest modulus).  Dithered: the dither
    adds up to delta/2 = 2**-b * Delta per component, so the smallest Delta
    with Delta >= ||r||_inf + delta/2 is ||r||_inf / (1 - 2**-b).  For the
    unquantized mode the peak itself is returned for bookkeeping.
    """
    check_bit_depth(bit_depth)
    r = np.asarray(measurements)
    peak = float(np.max(np.abs(r))) if r.size else 0.0
    if peak == 0.0:
        raise ValueError("cannot size a dynamic range for an all-zero signal")
    if bit_depth is None or not dithered:
        return peak
    return peak / (1.0 - 2.0 ** (-bit_depth))


def adapted_quantizer(measurements: np.ndarray, bit_depth: Optional[int], dithered: bool) -> QuantizerConfig:
    """Build the quantizer whose range is adapted to ``measurements``."""
    return QuantizerConfig(
        bit_depth=bit_depth,
        dynamic_range=dynamic_range_for(measurements, bit_depth, dithered),
    )


def draw_dither(config: QuantizerConfig, n_meas: int, seed: int) -> Dither:
    """Draw 2*n_meas i.i.d. uniforms on (-delta/2, delta/2); deterministic per seed."""
    if not config.quantized:
        raise ValueError("dither is only defined for quantized configurations")
    rng = generator(seed)
    half = 0.5 * config.step
    re = rng.uniform(-half, half, size=n_meas)
    im = rng.uniform(-half, half, size=n_meas)
    return Dither(values=re + 1j * im, seed=int(seed))


def sense(
    plan: SamplingPlan,
    config: QuantizerConfig,
    dither: Optional[Dither],
    profile: ProfileLike,
) -> np.ndarray:
    """Acquire a profile: partial-Fourier measurements, dither, quantization.

    Quantized mode returns Q(forward(profile) + xi) with xi = 0 when no
    dither is given; unquantized mode returns the raw measurements (a dither
    is rejected there, since it would only add noise).
    """
    r = forward(plan, profile)
    if not config.quantized:
        if dither is not None:
            raise ValueError("unquantized sensing does not accept a dither")
        return r
    if dither is not None:
        if dither.n_meas != plan.n_meas:
            raise ValueError(f"dither length {dither.n_meas} does not match n_meas={plan.n_meas}")
        r = r + dither.values
    return quantize_complex(config, r)
