"""Discrete FMCW range-domain sensing model.

A scene is a complex range profile over ``n_bins`` discrete range bins; one
time sample of the demodulated baseband signal probes one row of the DFT of
that profile.  A sampling plan selects which frequency rows are observed
(possibly with repetitions when more than one ramp is sampled), giving the
partial-Fourier forward operator and its adjoint.

Both operators take a leading trial axis: a plan whose ``omega`` stacks T
rows maps (T, N) profiles to (T, M) measurements and back, row i through
plan row i, with the arithmetic a single-trial call does on that row.  The
draws stack the same way: :func:`random_profile` and
:func:`make_sampling_plan` given a sequence of T seeds return (T, N)
amplitudes and a (T, M) plan whose row i is the single-seed draw of seed i.

A plan works out once how many leading whole ramps (column blocks equal to
0..N-1 in every row) it holds, which :func:`forward` and :func:`adjoint`
copy and add whole; both take ``out=`` arrays, as does
:func:`~qcsradar.quantization.sense`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .seeding import seed_rows

__all__ = [
    "SPEED_OF_LIGHT",
    "RadarParams",
    "RangeProfile",
    "SamplingPlan",
    "make_sampling_plan",
    "forward",
    "adjoint",
    "random_profile",
    "bin_to_range",
    "bin_number",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s

ProfileLike = Union["RangeProfile", np.ndarray]


def _readonly(value, dtype) -> np.ndarray:
    """A read-only ``dtype`` copy of ``value``.

    A caller's array is always copied, whatever its flags say: its owner can
    make it writable again, and later writes must not reach the copy.
    """
    arr = np.array(value, dtype=dtype, copy=True)
    arr.flags.writeable = False
    return arr


def _unchecked(cls, **fields):
    """A ``cls`` of ``fields`` whose maker knows they pass its checks, built without checks or copies.

    Only the package builds values this way, and only of read-only arrays
    no caller holds a writable reference to, such as a draw has just made.
    """
    value = object.__new__(cls)
    for name, field in fields.items():
        object.__setattr__(value, name, field)
    return value


@dataclass(frozen=True)
class RadarParams:
    """Physical ramp parameters; only ``bandwidth`` (with ``n_bins``) enters bin <-> meter conversion.

    f0: carrier frequency (Hz); bandwidth: swept bandwidth B (Hz);
    ramp_duration: duration of one ramp T (s); n_bins: samples per ramp N.
    ``f0`` and ``ramp_duration`` are only recorded and checked.
    """

    f0: float
    bandwidth: float
    ramp_duration: float
    n_bins: int

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.f0, self.bandwidth, self.ramp_duration)):
            raise ValueError("radar parameters must be finite and strictly positive")
        if self.n_bins < 1:
            raise ValueError("n_bins must be >= 1")

    @property
    def range_resolution(self) -> float:
        """Bin spacing c/(2B) in meters."""
        return SPEED_OF_LIGHT / (2.0 * self.bandwidth)

    @property
    def max_range(self) -> float:
        """Largest observable range N*c/(2B) in meters."""
        return self.n_bins * self.range_resolution


@dataclass(frozen=True, eq=False)
class RangeProfile:
    """Complex target amplitudes over the N range bins (index 0..N-1)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _readonly(self.amplitudes, np.complex128)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must be a nonempty 1-D complex vector")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_bins(self) -> int:
        return self.amplitudes.size

    @property
    def sparsity(self) -> int:
        """Number of nonzero amplitudes."""
        return int(np.count_nonzero(self.amplitudes))

    @property
    def support(self) -> frozenset:
        """Indices of the nonzero amplitudes."""
        return frozenset(np.flatnonzero(self.amplitudes).tolist())


@dataclass(frozen=True, eq=False)
class SamplingPlan:
    """Which DFT rows are observed, in acquisition order.

    ``omega`` is a multiset of M frequency indices in {0..N-1}.  Order is
    preserved so each measurement stays paired with its dither component.
    A (T, M) ``omega`` stacks the plans of T trials.  A plan holds no seed:
    a capture records the seed that drew its plan (``io.Capture.plan_seed``).
    """

    n_bins: int
    n_meas: int
    omega: np.ndarray

    def __post_init__(self):
        omega = _readonly(self.omega, np.int64)
        if self.n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        if omega.ndim not in (1, 2) or omega.shape[-1] != self.n_meas:
            raise ValueError("omega must hold exactly n_meas indices")
        if self.n_meas < 1:  # the rule make_sampling_plan applies
            raise ValueError("n_meas must be >= 1")
        if omega.size and (omega.min() < 0 or omega.max() >= self.n_bins):
            raise ValueError("omega indices must lie in [0, n_bins)")
        object.__setattr__(self, "omega", omega)
        n = self.n_bins
        blocks = omega[..., : omega.shape[-1] // n * n].reshape(omega.shape[:-1] + (-1, n))
        whole = (blocks == np.arange(n)).all(axis=-1)
        if whole.ndim == 2:
            whole = whole.all(axis=0)
        self._set_ramps(int(whole.size if whole.all() else np.argmin(whole)))

    def _set_ramps(self, ramps: int) -> None:
        # The leading whole ramps, then the remaining columns: row i's indices
        # offset by i*N into the flattened (T, N) spectrum, so one gather or
        # one scatter-add serves every row of a stack.
        rest = self.omega[..., ramps * self.n_bins :]
        flat = rest if rest.ndim == 1 else rest + self.n_bins * np.arange(len(rest))[:, None]
        object.__setattr__(self, "_ramps", ramps)
        object.__setattr__(self, "_flat", flat)

    def _rows(self, rows: np.ndarray) -> "SamplingPlan":
        """The plan of the given rows of this stack, without re-checking them.

        Whole ramps are alike in every row, so a plan without a remainder
        serves its first ``len(rows)`` rows and copies nothing.
        """
        omega = self.omega[rows] if self._flat.shape[-1] else self.omega[: len(rows)]
        omega.flags.writeable = False
        return _unchecked_plan(self.n_bins, self.n_meas, omega, self._ramps)


def _unchecked_plan(n_bins: int, n_meas: int, omega: np.ndarray, ramps: int) -> SamplingPlan:
    """A plan of read-only ``omega`` whose indices and ``ramps`` leading whole ramps its maker knows, unchecked."""
    plan = _unchecked(SamplingPlan, n_bins=n_bins, n_meas=n_meas, omega=omega)
    plan._set_ramps(ramps)
    return plan


def make_sampling_plan(n_bins: int, n_meas: int, seed) -> SamplingPlan:
    """Draw the acquisition plan for M measurements over N-sample ramps.

    For M < N a uniformly random size-M subset of one ramp is kept (in time
    order).  For M >= N, floor(M/N) ramps are sampled in full and the
    remaining M mod N samples are a uniformly random subset of the last,
    partially sampled ramp.  Deterministic given ``seed``; when M is a
    multiple of N nothing is drawn and no generator is built.  A sequence
    of T seeds gives the stacked (T, M) plan of their T single-seed plans.
    """
    if n_bins < 1 or n_meas < 1:
        raise ValueError("n_bins and n_meas must be >= 1")
    rows, stacked = seed_rows(seed)
    full, remainder = divmod(n_meas, n_bins)
    omega = np.empty((len(rows), n_meas), dtype=np.int64)
    omega[:, : full * n_bins] = np.tile(np.arange(n_bins, dtype=np.int64), full)
    if remainder:
        partial = omega[:, full * n_bins :]
        for row, g in zip(partial, rows.generators()):
            row[:] = g.choice(n_bins, size=remainder, replace=False)
        partial.sort(axis=1)
    omega.flags.writeable = False  # nothing else holds it: the plan keeps it uncopied
    # The indices are drawn in [0, N) and the first ``full`` ramps are whole, so nothing is re-checked.
    return _unchecked_plan(n_bins, n_meas, omega if stacked else omega[0], full)


def _as_amplitudes(profile: ProfileLike, plan: SamplingPlan) -> np.ndarray:
    amps = profile.amplitudes if isinstance(profile, RangeProfile) else profile
    amps = np.asarray(amps, dtype=np.complex128)
    if amps.shape != plan.omega.shape[:-1] + (plan.n_bins,):
        raise ValueError(f"profile length {amps.shape} does not match n_bins={plan.n_bins}")
    return amps


def _output(out: Optional[np.ndarray], shape: tuple) -> np.ndarray:
    """``out``, checked to be a C-contiguous complex128 array of ``shape``, or a new one."""
    if out is None:
        return np.empty(shape, dtype=np.complex128)
    if out.shape != shape or out.dtype != np.complex128 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous complex128 array of shape {shape}")
    return out


def _ramp_view(plan: SamplingPlan, values: np.ndarray) -> np.ndarray:
    """The leading whole-ramp columns of ``values`` as a (..., ramps, N) view."""
    n, ramps = plan.n_bins, plan._ramps
    return values[..., : ramps * n].reshape(values.shape[:-1] + (ramps, n))


def forward(
    plan: SamplingPlan,
    profile: Optional[ProfileLike] = None,
    out: Optional[np.ndarray] = None,
    *,
    spectrum: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Apply the partial-Fourier sensing operator.

    Returns the M-vector r with r[j] = sum_n a[n] exp(-i 2 pi omega[j] n / N),
    ordered as ``plan.omega``.  Computed as one size-N FFT per row, copied
    to every whole ramp and gathered for the remaining columns, so repeated
    frequencies cost O(1) each.  A caller that already holds the FFT of the
    profile (row by row) passes it as ``spectrum`` instead of the profile,
    and no FFT is taken.  The result is written to ``out`` when given.
    """
    if (profile is None) == (spectrum is None):
        raise ValueError("forward takes either a profile or its spectrum")
    spectrum = np.fft.fft(_as_amplitudes(profile, plan)) if spectrum is None else _as_amplitudes(spectrum, plan)
    out = _output(out, plan.omega.shape)
    _ramp_view(plan, out)[...] = spectrum[..., None, :]
    # mode="clip" gathers unbuffered; the plan's indices are already checked.
    np.take(spectrum.reshape(-1), plan._flat, out=out[..., plan._ramps * plan.n_bins :], mode="clip")
    return out


def adjoint(plan: SamplingPlan, measurements: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Apply the adjoint of :func:`forward`.

    Returns the N-vector with components sum_j y[j] exp(+i 2 pi omega[j] n / N).
    Measurements sharing a frequency index are accumulated into one spectral
    bin from 0.0, in acquisition order (the whole ramps in one reduction,
    then the remaining columns), before a single size-N inverse transform:
    O(M + N log N).  The result is written to ``out`` when given.
    """
    y = np.ascontiguousarray(measurements, dtype=np.complex128)
    if y.shape != plan.omega.shape:
        raise ValueError(f"measurement length {y.shape} does not match n_meas={plan.n_meas}")
    out = _output(out, y.shape[:-1] + (plan.n_bins,))
    if np.may_share_memory(out, y):  # the sums go into out before the last measurements are read
        y = y.copy()
    # The whole ramps, added one after another onto 0.0, over their float64 parts: at N = 1 a
    # complex reduction axis would be innermost, and numpy sums an innermost axis pairwise.
    np.add.reduce(_ramp_view(plan, y).view(np.float64), axis=-2, initial=0.0, out=out.view(np.float64))
    if plan._flat.shape[-1]:
        rest = y[..., plan._ramps * plan.n_bins :]
        np.add.at(out.reshape(-1), plan._flat.reshape(-1), rest.reshape(-1))
    # Each bin's bytes are those of re + 1j * im over its two real sums.  On a finite imaginary
    # part that is the identity (sums from +0.0 are never -0.0), so it takes no pass of its own;
    # where the imaginary part is not finite it makes the real part a NaN whose sign bit the
    # transform carries, so only those bins are combined that way.
    finite = np.isfinite(out.imag)
    if not finite.all():
        odd = ~finite
        out[odd] = np.add(out.real[odd], np.multiply(1j, out.imag[odd]))
    np.fft.ifft(out, out=out)
    return np.multiply(plan.n_bins, out, out=out)


def random_profile(n_bins: int, sparsity: int, rng):
    """Draw a K-sparse profile with uniform support and U[0,1] amplitudes.

    The support is uniform over all C(N, K) index subsets; each nonzero is
    C * exp(i psi) with C ~ U[0, 1] and psi ~ U[0, 2 pi), and the result is
    rescaled so the largest modulus is exactly 1.  ``rng`` is a seed, giving
    a RangeProfile, or a sequence of T seeds, giving read-only (T, N)
    amplitudes whose row i is the profile of seed i.
    """
    if not 1 <= sparsity <= n_bins:
        raise ValueError(f"sparsity must be in [1, {n_bins}], got {sparsity}")
    rows, stacked = seed_rows(rng)
    support = np.empty((len(rows), sparsity), dtype=np.int64)
    moduli = np.empty((len(rows), sparsity))
    phases = np.empty((len(rows), sparsity))
    for i, g in enumerate(rows.generators()):
        support[i] = g.choice(n_bins, size=sparsity, replace=False)
        # Generator.uniform(0, h) is 0 + h * u on the same stream: u here, h once for all rows.
        g.random(out=moduli[i])
        g.random(out=phases[i])
        # U[0,1] puts zero mass at 0, but an exact 0 would silently drop a target.
        while not moduli[i].all():
            redraw = moduli[i] == 0.0
            moduli[i, redraw] = g.random(int(redraw.sum()))
    phases *= 2.0 * np.pi
    amps = np.zeros((len(rows), n_bins), dtype=np.complex128)
    np.put_along_axis(amps, support, moduli * np.exp(1j * phases), axis=1)
    amps /= np.max(np.abs(amps), axis=1, keepdims=True)
    amps.flags.writeable = False
    return amps if stacked else _unchecked(RangeProfile, amplitudes=amps[0])


def bin_to_range(params: RadarParams, bin_index: int) -> float:
    """Convert a 1-based range-bin number to meters: n * c / (2B)."""
    if not 1 <= bin_index <= params.n_bins:
        raise ValueError(f"bin index must be in [1, {params.n_bins}], got {bin_index}")
    return bin_index * params.range_resolution


def bin_number(array_index: int, n_bins: int) -> int:
    """Map a 0-based profile index to its 1-based range-bin number.

    DFT index 0 carries the same phase progression as bin N, so it reports
    as bin N.
    """
    if not 0 <= array_index < n_bins:
        raise ValueError(f"array index must be in [0, {n_bins}), got {array_index}")
    return array_index if array_index >= 1 else n_bins
