"""QIHT's stacked engine against its control-flow oracle, row for row.

:func:`brute.qiht_trajectory` runs one trial through its whole budget with no
stop and no row compaction, and :func:`brute.qiht_rule` applies the stop rule
as ``recovery.qiht`` words it.  ``estimate("qiht", ...)`` on a stack must
return, for every row, the oracle's estimate bytes, final consistency, stop
code and reported count: the stop rule, the best-iterate bookkeeping and the
compaction of stopped rows are all checked against a loop that has none of
them.  Below one ramp (M < N) the step exceeds 1 and rows diverge to inf and
NaN, so both sides run inside one declared ``np.errstate``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from qcsradar.quantization import QuantizerConfig, acquire
from qcsradar.recovery import MIN_STOP_ITERS, STOP_REASONS, RecoveryConfig, StopReason, estimate
from qcsradar.signal_model import make_sampling_plan, random_profile

ORACLE = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def cases(draw):
    n = draw(st.integers(8, 64))
    ramps = draw(st.integers(0, 2))  # M below, at and above N
    rest = draw(st.sampled_from([0, 1, n // 2, n - 1])) or (0 if ramps else n // 2)  # with and without a remainder
    recovery = RecoveryConfig(
        draw(st.sampled_from([1, 2, 5])),
        step_size=draw(st.sampled_from([1.0, 2.0, 1e6])),  # 1e6 diverges
        max_iters=draw(st.integers(30, 80)),
        consistency_target=draw(st.sampled_from([0.8, 0.95, 1.0])),
    )
    bit_depth, dithered = draw(st.sampled_from([1, 2, 3, None])), draw(st.booleans())
    return n, ramps * n + rest, bit_depth, dithered, draw(st.integers(8, 10)), recovery, draw(st.integers(0, 2**32))


def engine_and_oracle(n, m, bit_depth, dithered, trials, recovery, seed):
    """(estimate's rows, the oracle's rows, its outcomes, its trajectories) of one stack."""
    seeds = [range(seed + i * trials, seed + (i + 1) * trials) for i in range(3)]
    truth = random_profile(n, recovery.sparsity, seeds[0])
    plan = make_sampling_plan(n, m, seeds[1])
    quantizer, dither, y = acquire(plan, bit_depth, dithered, seeds[2], truth)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = zip(*estimate("qiht", plan, quantizer, dither, y, recovery))
        got = [(a.tobytes(), float(final), int(code), int(count)) for a, count, final, code in rows]
        trajectories = [
            brute.qiht_trajectory(
                plan.omega[i],
                n,
                QuantizerConfig(bit_depth, float(quantizer.dynamic_range[i, 0])),
                None if dither is None else dither.values[i],
                y[i],
                recovery,
            )
            for i in range(trials)
        ]
        outcomes = [brute.qiht_rule(trajectory, recovery) for trajectory in trajectories]
    want = [(o.estimate.tobytes(), o.final_consistency, o.code, o.count) for o in outcomes]
    return got, want, outcomes, trajectories


@ORACLE
@given(cases())
def test_estimate_follows_the_oracle_row_for_row(case):
    got, want, _, _ = engine_and_oracle(*case)
    assert got == want


def test_fixed_cases_reach_every_rule():
    # Quantized rows that stop perfect before MIN_STOP_ITERS, on the target and
    # on a drop; unquantized rows below one ramp that exhaust the budget; and
    # quantized rows whose huge step diverges them to NaN iterates that repeat.
    rows = []
    for case in [
        (32, 64, 1, True, 10, RecoveryConfig(2, max_iters=40), 5),
        (64, 8, None, False, 8, RecoveryConfig(2, max_iters=40), 7),
        (64, 16, 1, True, 8, RecoveryConfig(2, step_size=1e6, max_iters=60), 7),
    ]:
        got, want, outcomes, trajectories = engine_and_oracle(*case)
        assert got == want
        rows += zip(outcomes, trajectories)
    stops = {(STOP_REASONS[o.code], o.count < MIN_STOP_ITERS, o.fixed_at < o.count) for o, _ in rows}
    assert stops >= {
        (StopReason.CONSISTENCY_TARGET, True, False),  # perfect
        (StopReason.CONSISTENCY_TARGET, False, False),
        (StopReason.CONSISTENCY_DROP, False, False),
        (StopReason.BUDGET, False, False),  # the budget exhausted
        (StopReason.BUDGET, False, True),  # a repeated iterate
    }
    assert any(not np.isfinite(t.iterates[o.fixed_at]).all() for o, t in rows)  # a diverged row
