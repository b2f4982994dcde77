"""Tests for the quantization-ambiguity construction and its dithered removal."""

import numpy as np
import pytest

from qcsradar.ambiguity import (
    ambiguity_holds,
    ambiguity_report,
    build_pair,
    check_margin,
    quadrant_margin,
)
from qcsradar.evaluation import CHUNK_ELEMENTS
from qcsradar.quantization import QuantizerConfig, adapted_quantizer, draw_dither
from qcsradar.seeding import derive_seed
from qcsradar.signal_model import forward, make_sampling_plan

SQRT2_2 = np.sqrt(2) / 2


def pair_quantizer(plan, pair, bit_depth=1, dithered=False):
    peak = max(
        float(np.max(np.abs(forward(plan, pair.base)))),
        float(np.max(np.abs(forward(plan, pair.alternate)))),
    )
    if dithered:
        peak /= 1.0 - 2.0 ** (-bit_depth)
    return QuantizerConfig(bit_depth=bit_depth, dynamic_range=peak)


class TestBuildPair:
    def test_worked_case_is_valid(self):
        pair = build_pair(256, 64, 10, np.pi / 4, 0.0, 0.5)
        assert pair.base.sparsity == 1
        assert pair.alternate.sparsity == 2
        diff = np.linalg.norm(pair.alternate.amplitudes - pair.base.amplitudes)
        assert diff == pytest.approx(0.5, abs=1e-12)

    def test_vanishing_second_target(self):
        pair = build_pair(256, 64, 10, 0.0, 0.0, 1e-9)
        diff = np.linalg.norm(pair.alternate.amplitudes - pair.base.amplitudes)
        assert diff == pytest.approx(1e-9, rel=1e-9)

    def test_bin_n_aliases_to_index_zero(self):
        pair = build_pair(8, 8, 3, 0.0, 0.0, 0.25)
        assert 0 in pair.base.support

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(bin_base=0, bin_extra=10),
            dict(bin_base=64, bin_extra=64),
            dict(bin_base=64, bin_extra=257),
            dict(bin_base=64, bin_extra=10, gamma=0.0),
            dict(bin_base=64, bin_extra=10, gamma=1.0),
            dict(bin_base=64, bin_extra=10, phase_base=3.5),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        defaults = dict(n_bins=256, bin_base=64, bin_extra=10, phase_base=0.0, phase_extra=0.0, gamma=0.5)
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            build_pair(**defaults)


class TestMargin:
    def test_quarter_bin_margin_is_sqrt2_over_2(self):
        # target at N/4 with phase pi/4: every measurement sits at an odd
        # multiple of pi/4, so |Re| = |Im| = sqrt(2)/2 throughout
        plan = make_sampling_plan(256, 256, seed=0)
        pair = build_pair(256, 64, 10, np.pi / 4, 0.0, 0.5)
        assert quadrant_margin(plan, pair.base) == pytest.approx(SQRT2_2, abs=1e-12)
        assert check_margin(plan, pair.base, 0.5)
        assert not check_margin(plan, pair.base, 0.8)

    def test_margin_matches_bruteforce_scan(self):
        plan = make_sampling_plan(64, 64, seed=1)
        pair = build_pair(64, 16, 5, np.pi / 4, 0.0, 0.5)
        r0 = forward(plan, pair.base)
        scan = min(min(abs(z.real), abs(z.imag)) for z in r0)
        assert quadrant_margin(plan, pair.base) == pytest.approx(scan, abs=1e-14)

    def test_axis_aligned_target_has_zero_margin(self):
        # target at N/2 with phase 0 keeps all measurements on the real axis
        plan = make_sampling_plan(256, 256, seed=0)
        pair = build_pair(256, 128, 10, 0.0, 0.0, 0.5)
        assert quadrant_margin(plan, pair.base) == pytest.approx(0.0, abs=1e-12)
        assert not check_margin(plan, pair.base, 1e-6)

    def test_margin_requires_single_unit_target(self):
        plan = make_sampling_plan(16, 16, seed=0)
        pair = build_pair(16, 4, 7, 0.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            check_margin(plan, pair.alternate, 0.5)


class TestAmbiguityCondition:
    def test_undithered_ambiguity_holds(self):
        plan = make_sampling_plan(256, 1024, seed=0)
        pair = build_pair(256, 64, 10, np.pi / 4, 0.0, 0.5)
        cfg = pair_quantizer(plan, pair)
        assert ambiguity_holds(plan, cfg, pair, dither=None)
        # the two scenes really are distinct: the map is non-injective here
        assert np.linalg.norm(pair.alternate.amplitudes - pair.base.amplitudes) == pytest.approx(0.5)

    def test_dither_breaks_ambiguity(self):
        plan = make_sampling_plan(256, 1024, seed=0)
        pair = build_pair(256, 64, 10, np.pi / 4, 0.0, 0.5)
        cfg = pair_quantizer(plan, pair, dithered=True)
        hits = 0
        n_seeds = 50
        for s in range(n_seeds):
            dither = draw_dither(cfg, 1024, seed=derive_seed(3, "ac", s))
            hits += ambiguity_holds(plan, cfg, pair, dither)
        assert hits / n_seeds < 0.05

    def test_large_gamma_with_adversarial_phase_breaks_equality(self):
        # gamma above the margin: some phase of the second target pushes a
        # measurement across a quadrant boundary
        plan = make_sampling_plan(256, 256, seed=0)
        broke = False
        for psi1 in np.linspace(-np.pi, np.pi, 64, endpoint=False):
            pair = build_pair(256, 64, 10, np.pi / 4, float(psi1), 0.8)
            cfg = pair_quantizer(plan, pair)
            if not ambiguity_holds(plan, cfg, pair, dither=None):
                broke = True
                break
        assert broke

    def test_margin_soundness_exhaustive_small_n(self):
        # whenever the margin condition holds, 1-bit undithered equality
        # holds for EVERY placement and phase of the second target
        n = 32
        plan = make_sampling_plan(n, n, seed=0)
        gamma = 0.5
        base_phase = np.pi / 4
        base_bin = n // 4
        probe = build_pair(n, base_bin, 1 if base_bin != 1 else 2, base_phase, 0.0, gamma)
        assert check_margin(plan, probe.base, gamma)
        for bin_extra in range(1, n + 1):
            if bin_extra == base_bin:
                continue
            for psi1 in np.linspace(-np.pi, np.pi, 64, endpoint=False):
                pair = build_pair(n, base_bin, bin_extra, base_phase, float(psi1), gamma)
                cfg = pair_quantizer(plan, pair)
                assert ambiguity_holds(plan, cfg, pair, dither=None)

    def test_ambiguity_rate_drops_with_more_measurements(self):
        # small gamma: a short acquisition often misses the dither flip, a
        # long one essentially never does
        gamma = 0.02
        rates = {}
        for m in (64, 1024):
            plan = make_sampling_plan(256, m, seed=0)
            pair = build_pair(256, 64, 10, np.pi / 4, 0.0, gamma)
            cfg = pair_quantizer(plan, pair, dithered=True)
            hits = 0
            n_seeds = 500
            for s in range(n_seeds):
                dither = draw_dither(cfg, m, seed=derive_seed(9, "eff", m, s))
                hits += ambiguity_holds(plan, cfg, pair, dither)
            rates[m] = hits / n_seeds
        assert rates[1024] < rates[64]


class TestReport:
    def test_report_shape_and_determinism(self):
        kwargs = dict(
            n_bins=256, bin_base=64, bin_extra=10, phase_base=np.pi / 4, phase_extra=0.0,
            gamma=0.5, n_meas=512, n_seeds=25, seed=4,
        )
        report = ambiguity_report(**kwargs)
        assert set(report) == {"margin", "condition_holds", "undithered_AC", "dithered_AC_rate", "n_seeds"}
        assert report["condition_holds"] is True
        assert report["undithered_AC"] is True
        assert report["margin"] == pytest.approx(SQRT2_2, abs=1e-12)
        assert report["n_seeds"] == 25
        assert ambiguity_report(**kwargs) == report

    def test_report_takes_forward_once_per_scene(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)

        for module in ("qcsradar.ambiguity", "qcsradar.quantization"):  # direct, and through sense
            monkeypatch.setattr(f"{module}.forward", counted)
        ambiguity_report(256, 64, 10, 0.785, 0.0, 0.5, 1024, 200, 0)
        assert len(calls) == 2

    def test_stacked_dithers_give_the_per_seed_report(self):
        # The report draws its dithers in stacks of at most CHUNK_ELEMENTS
        # values; this per-seed loop is how it drew them one at a time.
        def per_seed_report(n_bins, bin_base, bin_extra, phase_base, phase_extra, gamma, n_meas, n_seeds, seed,
                            bit_depth):
            pair = build_pair(n_bins, bin_base, bin_extra, phase_base, phase_extra, gamma)
            plan = make_sampling_plan(n_bins, n_meas, derive_seed(seed, "ambiguity-plan", n_bins, n_meas))
            both = np.concatenate([forward(plan, pair.base), forward(plan, pair.alternate)])
            undithered_cfg = adapted_quantizer(both, bit_depth, dithered=False)
            dithered_cfg = adapted_quantizer(both, bit_depth, dithered=True)
            margin = quadrant_margin(plan, pair.base)
            hits = 0
            for s in range(n_seeds):
                dither = draw_dither(dithered_cfg, n_meas, derive_seed(seed, "ambiguity-dither", s))
                hits += ambiguity_holds(plan, dithered_cfg, pair, dither)
            return {
                "margin": margin,
                "condition_holds": bool(margin > gamma),
                "undithered_AC": ambiguity_holds(plan, undithered_cfg, pair),
                "dithered_AC_rate": hits / n_seeds,
                "n_seeds": n_seeds,
            }

        rng = np.random.default_rng(12)
        rates = []
        for case in range(45):
            n_bins = int(rng.choice([16, 64, 256]))
            bin_base, bin_extra = (int(b) + 1 for b in rng.choice(n_bins, size=2, replace=False))
            kwargs = dict(
                n_bins=n_bins, bin_base=bin_base, bin_extra=bin_extra,
                phase_base=float(rng.uniform(-np.pi, np.pi)), phase_extra=float(rng.uniform(-np.pi, np.pi)),
                gamma=float(rng.choice([0.001, 0.01, 0.05, 0.3])),
                # Large M with many seeds splits the dithers over several stacks.
                n_meas=int(rng.choice([8, 20, 64, 300, 4000])), n_seeds=int(rng.integers(1, 60)),
                seed=int(rng.integers(0, 2**63)), bit_depth=case % 3 + 1,
            )
            report = ambiguity_report(**kwargs)
            assert report == per_seed_report(**kwargs), kwargs
            several_stacks = 3 * kwargs["n_meas"] * kwargs["n_seeds"] > CHUNK_ELEMENTS
            rates.append((report["dithered_AC_rate"], several_stacks))
        # Some cases mix both outcomes over dithers drawn in several stacks.
        assert any(0.0 < rate < 1.0 and several for rate, several in rates)
