"""Independent brute-force reference implementations used as test oracles.

Everything here is written as plain loops over math/cmath scalars, on
purpose: these functions must not share code (or vectorization strategy)
with the package they check.  The exceptions are
:func:`hard_threshold_argsort`, a row loop over a stable sort, because
Python's ``sorted`` cannot order NaN keys, :func:`forward_gather` and
:func:`adjoint_bincount`, the package's own earlier operators (one FFT and
an index gather, one ``bincount`` per part and one inverse FFT), and
:func:`profile_uniform`, the profile draw as a single trial made it with
``Generator.uniform``, kept as bit-exact references: a loop oracle agrees
only to rounding, and the operators and draws must keep every bit, NaN and
signed zero included.
"""

import cmath
import math

import numpy as np


def forward_loop(omega, amplitudes, n_bins):
    """O(MN) double-loop partial-Fourier forward operator."""
    out = []
    for w in omega:
        acc = 0j
        for n in range(n_bins):
            acc += amplitudes[n] * cmath.exp(-2j * cmath.pi * int(w) * n / n_bins)
        out.append(acc)
    return out


def adjoint_loop(omega, measurements, n_bins):
    """O(MN) double-loop adjoint."""
    out = []
    for n in range(n_bins):
        acc = 0j
        for w, y in zip(omega, measurements):
            acc += y * cmath.exp(2j * cmath.pi * int(w) * n / n_bins)
        out.append(acc)
    return out


def _flat_indices(omega, n_bins):
    """Row i's indices offset by i*N into a flattened (T, N) spectrum."""
    omega = np.asarray(omega, dtype=np.int64)
    return omega if omega.ndim == 1 else omega + n_bins * np.arange(len(omega))[:, None]


def forward_gather(omega, amplitudes, n_bins):
    """The forward operator as one FFT per row and one index gather (bit-exact reference)."""
    return np.fft.fft(np.asarray(amplitudes, dtype=np.complex128)).ravel()[_flat_indices(omega, n_bins)]


def adjoint_bincount(omega, measurements, n_bins):
    """The adjoint as one ``bincount`` per part and one inverse FFT (bit-exact reference).

    ``bincount`` adds each bin's measurements from 0.0 in acquisition order,
    and the two parts are combined as ``re + 1j * im``.
    """
    y = np.asarray(measurements, dtype=np.complex128)
    bins, size = _flat_indices(omega, n_bins).ravel(), math.prod(y.shape[:-1]) * n_bins
    spectrum = np.bincount(bins, weights=y.real.ravel(), minlength=size) + 1j * np.bincount(
        bins, weights=y.imag.ravel(), minlength=size
    )
    return n_bins * np.fft.ifft(spectrum.reshape(y.shape[:-1] + (n_bins,)))


def profile_uniform(n_bins, sparsity, seed):
    """One K-sparse profile drawn from a Philox stream with ``Generator.uniform`` (bit-exact reference).

    The support, then K moduli on U[0, 1), K phases on U[0, 2 pi) and a redraw
    of any zero modulus, scaled so the largest modulus is 1.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    support = rng.choice(n_bins, size=sparsity, replace=False)
    moduli = rng.uniform(0.0, 1.0, size=sparsity)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=sparsity)
    while np.any(moduli == 0.0):
        redraw = moduli == 0.0
        moduli[redraw] = rng.uniform(0.0, 1.0, size=int(redraw.sum()))
    amps = np.zeros(n_bins, dtype=np.complex128)
    amps[support] = moduli * np.exp(1j * phases)
    return amps / np.max(np.abs(amps))


def hard_threshold_sorted(values, sparsity):
    """Keep the K largest moduli via an explicit sort; lowest index wins ties."""
    order = sorted(range(len(values)), key=lambda i: (-abs(values[i]), i))
    keep = set(order[:sparsity])
    return [v if i in keep else 0j for i, v in enumerate(values)]


def hard_threshold_argsort(rows, sparsity):
    """Per row, keep the first K bins of a stable argsort of -|v|; zero the rest.

    Ties go to the lowest index and NaN moduli sort after every number, so a
    row with fewer than K non-NaN bins keeps them all, then its lowest NaN
    bins.
    """
    rows = np.asarray(rows, dtype=np.complex128)
    out = np.zeros_like(rows)
    for row, kept in zip(rows, out):
        keep = np.argsort(-np.abs(row), kind="stable")[:sparsity]
        kept[keep] = row[keep]
    return out


def midrise_scalar(value, step):
    """Scalar mid-rise quantizer via math.floor."""
    return step * math.floor(value / step) + step / 2.0


def cell_index(value, step):
    """Index of the quantization cell containing ``value``."""
    return math.floor(value / step)


def grid_cell_of_output(quantized_value, step):
    """Cell index recovered from an already-quantized grid value."""
    return round((quantized_value - step / 2.0) / step)


def consistency_loop(omega, n_bins, step, dither_values, measurements, estimate):
    """Fraction of measurements whose quantization cells the estimate hits.

    Re-senses the estimate by direct summation and compares cell indices,
    per real and imaginary part, against the cells of the stored
    measurements.
    """
    m = len(omega)
    hits = 0
    for k in range(m):
        acc = 0j
        for n in range(n_bins):
            acc += estimate[n] * cmath.exp(-2j * cmath.pi * int(omega[k]) * n / n_bins)
        if dither_values is not None:
            acc += dither_values[k]
        same_re = cell_index(acc.real, step) == grid_cell_of_output(measurements[k].real, step)
        same_im = cell_index(acc.imag, step) == grid_cell_of_output(measurements[k].imag, step)
        hits += int(same_re and same_im)
    return hits / m


def iht_loop(omega, measurements, n_bins, sparsity, step_size, iterations, start):
    """Plain iterative hard thresholding for the unquantized reduction check."""
    m = len(omega)
    est = list(start)
    for _ in range(iterations):
        resid = [y - f for y, f in zip(measurements, forward_loop(omega, est, n_bins))]
        grad = adjoint_loop(omega, resid, n_bins)
        moved = [e + step_size / m * g for e, g in zip(est, grad)]
        est = hard_threshold_sorted(moved, sparsity)
    return est
