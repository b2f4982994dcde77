"""Seed derivation and keyed stacked draws.

The keyed path must reproduce numpy's own seeding bit for bit: a numpy
release that changed ``SeedSequence`` or ``Philox`` seeding would move
every stream, and these tests fail on it instead.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcsradar import seeding
from qcsradar.seeding import SeedStack, derive_seed, derive_seeds, generator, philox_keys
from qcsradar.signal_model import make_sampling_plan, random_profile

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def numpy_key(seed):
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


def draws(rng):
    """One of each draw the package makes, plus integers."""
    return [
        rng.choice(256, size=10, replace=False),
        rng.uniform(0.0, 2.0 * np.pi, size=5),
        rng.random(7),
        rng.integers(0, 2**40, size=3),
        rng.integers(0, 5, dtype=np.uint32, size=3),
    ]


def same_draws(a, b):
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(a, b))


class TestPhiloxKeys:
    def test_edge_seeds_match_seed_sequence(self):
        keys = philox_keys(EDGE_SEEDS)
        assert keys.shape == (2, len(EDGE_SEEDS)) and keys.dtype == np.uint64
        for column, seed in zip(keys.T, EDGE_SEEDS):
            assert np.array_equal(column, numpy_key(seed))
            assert np.array_equal(column, np.random.Philox(seed).state["state"]["key"])

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_any_uint64_seeds_match_seed_sequence(self, seeds):
        for column, seed in zip(philox_keys(seeds).T, seeds):
            assert np.array_equal(column, numpy_key(seed))

    @pytest.mark.parametrize("seeds", [[-1], [2**64], [1, 2**70]])
    def test_seeds_outside_uint64_rejected(self, seeds):
        with pytest.raises(ValueError):
            philox_keys(seeds)


class TestSeedStack:
    SEEDS = [int(s) for s in np.random.default_rng(5).integers(0, 2**64, 300, dtype=np.uint64)] + EDGE_SEEDS

    def test_rekeyed_rows_equal_fresh_generators(self):
        stack = SeedStack(self.SEEDS)
        rows = 0
        for seed, rng in zip(self.SEEDS, stack.generators()):
            assert same_draws(draws(rng), draws(np.random.Generator(np.random.Philox(seed))))
            rows += 1
        assert rows == len(self.SEEDS)

    def test_slices_share_one_keying(self, monkeypatch):
        calls = []
        derive_keys = seeding.philox_keys
        monkeypatch.setattr(seeding, "philox_keys", lambda seeds: calls.append(len(seeds)) or derive_keys(seeds))
        stack = SeedStack(self.SEEDS[:30])
        parts = [stack[:10], stack[10:20], stack[20:]]
        assert calls == [30]
        for part, lo in zip(parts, (0, 10, 20)):
            for seed, rng in zip(self.SEEDS[lo : lo + 10], part.generators()):
                assert same_draws(draws(rng), draws(generator(seed)))
        assert calls == [30]

    def test_interleaved_stacks_do_not_share_state(self):
        first, second = SeedStack(self.SEEDS[:20]), SeedStack(self.SEEDS[20:40])
        a_rows, b_rows = first.generators(), second.generators()
        for a_seed, b_seed in zip(self.SEEDS[:20], self.SEEDS[20:40]):
            a, b = next(a_rows), next(b_rows)
            assert a is not b and a.bit_generator is not b.bit_generator
            # Draw from each in turn, half a row at a time.
            a1, b1, a2, b2 = a.random(3), b.random(3), a.random(4), b.random(4)
            want_a, want_b = generator(a_seed), generator(b_seed)
            assert np.array_equal(np.concatenate([a1, a2]), want_a.random(7))
            assert np.array_equal(np.concatenate([b1, b2]), want_b.random(7))

    def test_short_stacks_and_single_seeds_build_philox_from_the_seed(self, monkeypatch):
        monkeypatch.setattr(seeding, "philox_keys", lambda seeds: pytest.fail("keyed a short stack"))
        want = [np.random.Generator(np.random.Philox(s)).random() for s in (3, 4)]
        assert [g.random() for g in SeedStack([3, 4]).generators()] == want
        assert generator(3).random() == want[0]

    @pytest.mark.parametrize("rows", [1, 7, 8, 20])
    @pytest.mark.parametrize("bad", [2**64 + 7, 2**64, -1, np.int64(-1), 1.5, "3", None])
    def test_stack_rejects_a_seed_outside_uint64_at_any_length(self, rows, bad):
        # The same rule on both sides of the keyed-stack threshold, before any draw.
        with pytest.raises(ValueError, match=r"integers in \[0, 2\*\*64\)"):
            SeedStack(list(range(rows - 1)) + [bad])

    @pytest.mark.parametrize("bad", [2**64 + 7, -1, np.random.Generator(np.random.Philox(9))])
    def test_one_seed_draws_and_generator_take_the_same_rule(self, bad):
        for draw in (generator, lambda s: random_profile(16, 2, s), lambda s: make_sampling_plan(16, 5, s)):
            with pytest.raises(ValueError, match="integers in"):
                draw(bad)

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            SeedStack([])


class TestDeriveSeeds:
    def test_equals_one_seed_at_a_time(self):
        for master, parts in [(0, ("profile", 256, 2)), (2**64 + 3, ("dither", 64, 512, None)), (-5, ())]:
            want = [derive_seed(master, *parts, t) for t in range(50)]
            assert derive_seeds(master, parts, range(50)) == want


def test_importing_the_cli_loads_no_numpy_random():
    # A generator built at import would load numpy.random (about 2.7 MB of
    # resident memory) in every process that only parses configs or captures.
    code = "import qcsradar.cli, qcsradar.io, sys; assert 'numpy.random' not in sys.modules"
    src = os.path.dirname(os.path.dirname(os.path.abspath(seeding.__file__)))
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})
