"""The ramp-structured operators equal the gather/bincount references bit for bit.

``forward`` broadcasts each row's spectrum over the plan's leading whole
ramps and ``adjoint`` adds those ramps one at a time; only the remaining
columns are gathered and scattered.  Both must give exactly the bits of the
single gather and the per-part ``bincount`` they replaced
(:func:`brute.forward_gather`, :func:`brute.adjoint_bincount`), for any
number of ramps, with and without a remainder, one row or a stack, and for
the omegas a capture may supply.

The data are unquantized and spread over eight decades: 1-bit data would
hide a change of summation order, since sums of +-delta/2 are exact in any
order.  Rows holding inf, NaN or signed zeros check the ``re + 1j * im``
combine, which turns an infinite imaginary sum into a NaN real part and a
-0.0 into +0.0.
"""

import numpy as np
import pytest

import brute
from qcsradar.quantization import Dither, QuantizerConfig, sense
from qcsradar.signal_model import SamplingPlan, adjoint, forward

pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")


def scaled(rng, shape):
    """Complex normals whose magnitudes spread over eight decades."""
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10.0 ** rng.uniform(-4, 4, size=shape)


def with_special_rows(rows):
    """Overwrite the first rows with inf, NaN and signed-zero entries."""
    rows = rows.copy()
    rows[0, ::3] = complex(1.0, np.inf)
    rows[1, 1::4] = complex(np.nan, -2.0)
    rows[2] = complex(-0.0, -0.0)
    rows[3, ::2] = complex(-np.inf, -0.0)
    rows[3, 1::5] = -0.0
    return rows


def omega_rows(n, ramps, rest_len, t, rng):
    """(t, M) indices: ``ramps`` whole ramps, then a remainder of repeated random indices per row."""
    lead = np.tile(np.arange(n), ramps)
    return np.stack([np.concatenate([lead, rng.integers(0, n, size=rest_len)]) for _ in range(t)])


def assert_operators_exact(n, omega, rng):
    """forward, adjoint and sense against the references, 1-D and stacked, with and without out=."""
    t, m = omega.shape
    amps = with_special_rows(scaled(rng, (t, n)))
    y = with_special_rows(scaled(rng, (t, m)))
    stacked = SamplingPlan(n, m, omega)
    cases = [(SamplingPlan(n, m, row), row, a, meas) for row, a, meas in zip(omega, amps, y)]
    cases.append((stacked, omega, amps, y))
    for plan, w, a, meas in cases:
        want_fwd = brute.forward_gather(w, a, n).tobytes()
        want_adj = brute.adjoint_bincount(w, meas, n).tobytes()
        assert forward(plan, a).tobytes() == want_fwd
        assert adjoint(plan, meas).tobytes() == want_adj
        out_m, out_n = np.empty(meas.shape, complex), np.empty(a.shape, complex)
        assert forward(plan, a, out=out_m) is out_m and out_m.tobytes() == want_fwd
        assert adjoint(plan, meas, out=out_n) is out_n and out_n.tobytes() == want_adj

        step = 0.5 * rng.uniform(0.5, 2.0, size=meas.shape[:-1] + (1,))
        xi = scaled(rng, meas.shape) * 1e-5
        parts = (brute.forward_gather(w, a, n) + xi).view(np.float64)
        want_sense = (np.floor(parts / step) * step + 0.5 * step).tobytes()
        config = QuantizerConfig(12, step * 2.0**11)
        assert sense(plan, config, Dither(xi), a).tobytes() == want_sense
        assert sense(plan, config, Dither(xi), a, out=out_m) is out_m and out_m.tobytes() == want_sense
        assert sense(plan, QuantizerConfig(None, 1.0), None, a).tobytes() == want_fwd


@pytest.mark.parametrize("ramps", [0, 1, 2, 17, 33])
@pytest.mark.parametrize("n", [1, 2, 3, 64, 256])
def test_operators_equal_references(n, ramps):
    rng = np.random.default_rng(1000 * n + ramps)
    for rest_len in (0, n // 2 + 1):
        if ramps or rest_len:
            assert_operators_exact(n, omega_rows(n, ramps, rest_len, 6, rng), rng)


@pytest.mark.parametrize("n", [2, 3, 64])
def test_capture_omegas_equal_references(n):
    rng = np.random.default_rng(n)
    ramp = np.arange(n)
    permuted_first = np.concatenate([rng.permutation(ramp), ramp, ramp, rng.integers(0, n, size=5)])
    repeated_rest = np.concatenate([ramp, ramp, [n - 1] * 4, [0, 0, 1]])
    whole_then_partial = np.concatenate([ramp, ramp[: n // 2 + 1]])
    for omega in (permuted_first, repeated_rest, whole_then_partial):
        assert_operators_exact(n, np.stack([omega] * 4), rng)


def test_plan_counts_leading_whole_ramps():
    ramp = np.arange(4)
    assert SamplingPlan(4, 8, np.tile(ramp, 2))._ramps == 2
    assert SamplingPlan(4, 11, np.concatenate([ramp, ramp, [3, 3, 0]]))._ramps == 2
    assert SamplingPlan(4, 8, np.concatenate([ramp[::-1], ramp]))._ramps == 0
    assert SamplingPlan(4, 3, [0, 1, 2])._ramps == 0
    # A stack counts the ramps every row shares.
    assert SamplingPlan(4, 8, [np.tile(ramp, 2), np.concatenate([ramp, ramp[::-1]])])._ramps == 1


def test_out_must_be_a_contiguous_complex_array_of_the_result_shape():
    plan = SamplingPlan(4, 8, np.tile(np.arange(4), 2))
    for bad in (np.empty(7, complex), np.empty(8), np.empty(16, complex)[::2]):
        with pytest.raises(ValueError, match="out must be"):
            forward(plan, np.ones(4), out=bad)
    with pytest.raises(ValueError, match="out must be"):
        adjoint(plan, np.ones(8), out=np.empty(8, complex))
