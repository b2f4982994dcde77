"""Deterministic seed derivation and generator construction.

Every random object in the simulator is produced from an explicit 64-bit
seed.  Sub-seeds are derived by hashing a master seed together with a
purpose tag and the parameters that identify the random object, so any
single draw (one profile, one sampling plan, one dither) can be
regenerated in isolation.

A draw takes its T seeds (T = 1 for one seed) as a :class:`SeedStack`, which
gives row i the stream of seed i; every seed is an integer in [0, 2**64).
Building ``Philox(seed)`` hashes the seed through a ``SeedSequence`` for
every row; a long stack instead derives the Philox keys of all its rows in
one vectorized pass (:func:`philox_keys`, numpy's ``SeedSequence(s).
generate_state(2, uint64)`` as array operations) and re-keys a single
Philox per draw call through its ``state`` setter, giving the same bits.
:func:`derive_seeds` derives the seeds of many trials, hashing their shared
prefix once.
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np

__all__ = ["derive_seed", "derive_seeds", "generator", "philox_keys", "SeedStack", "seed_rows"]


def _prefix_hash(master_seed: int, parts) -> "hashlib.blake2b":
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(master_seed)).encode())
    for part in parts:
        h.update(b"|")
        h.update(str(part).encode())
    return h


def derive_seed(master_seed: int, *parts) -> int:
    """Derive a 64-bit sub-seed from a master seed and identifying parts.

    Parts may be ints, strings, or None; they are hashed in order, so
    ``derive_seed(s, "plan", 512, 3)`` and ``derive_seed(s, "plan", 5123)``
    do not collide.
    """
    return int.from_bytes(_prefix_hash(master_seed, parts).digest(), "little")


def derive_seeds(master_seed: int, parts: tuple, last) -> list:
    """``[derive_seed(master_seed, *parts, x) for x in last]``, hashing the shared prefix once."""
    prefix = _prefix_hash(master_seed, parts)
    seeds = []
    for x in last:
        h = prefix.copy()
        h.update(b"|")
        h.update(str(x).encode())
        seeds.append(int.from_bytes(h.digest(), "little"))
    return seeds


def generator(seed) -> np.random.Generator:
    """The counter-based generator of one seed, as a one-row :class:`SeedStack` draws it."""
    return next(SeedStack([seed]).generators())


def _seed_array(seeds) -> np.ndarray:
    """The seeds as a 1-D uint64 array; a seed that is not an integer in [0, 2**64) raises ValueError."""
    # operator.index refuses what a numpy cast would truncate (floats) or wrap (negative numpy ints).
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return seeds.ravel()
    try:
        return np.array([operator.index(s) for s in seeds], dtype=np.uint64)
    except (TypeError, OverflowError):
        raise ValueError("draw seeds must be integers in [0, 2**64)") from None


# numpy's SeedSequence constants (pool of four 32-bit words, 16-bit xorshift).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT, _WORD = np.uint32(16), np.uint64(32)


def _hash_constants(init: int, mult: int, count: int) -> list:
    """The hash constant before each of ``count`` hashmix calls, and after the last."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return consts


def _columns(consts: list) -> tuple:
    """(xor, multiply) constant columns for consecutive hashmix calls."""
    return np.array(consts[:-1], np.uint32)[:, None], np.array(consts[1:], np.uint32)[:, None]


# Hashmix call i xors the i-th hash constant and multiplies by the next.  The
# sequence does not depend on the data, so one column serves every seed:
# four calls seed the pool, then three per source word mix it, then four
# (with the B constants) draw the two 64-bit key words.
_A = _hash_constants(_INIT_A, _MULT_A, 16)
_SEED_POOL = _columns(_A[0:5])
_MIX_POOL = [_columns(_A[4 + 3 * src : 8 + 3 * src]) for src in range(4)]
_DRAW_KEY = _columns(_hash_constants(_INIT_B, _MULT_B, 4))
_OTHERS = [[dst for dst in range(4) if dst != src] for src in range(4)]


def _hashmix(words: np.ndarray, columns: tuple) -> np.ndarray:
    xor, mult = columns
    words = words ^ xor  # a new array, broadcast against the columns
    words *= mult
    words ^= words >> _XSHIFT
    return words


def philox_keys(seeds) -> np.ndarray:
    """(2, T) uint64 Philox keys; column i is the key ``Philox(seeds[i])`` uses.

    Computes ``SeedSequence(seed).generate_state(2, np.uint64)`` for every
    seed at once, on (4, T) uint32 words (whose arithmetic wraps as numpy's
    does).  A seed below 2**32 is one entropy word and a larger one two, but
    the pool pads missing words with hashmix(0), so both are the low and
    high words of the uint64 seed.  Seeds must be integers in [0, 2**64).
    """
    s = _seed_array(seeds)
    pool = np.zeros((4, s.size), dtype=np.uint32)
    pool[0] = s  # the low word (the cast keeps it)
    pool[1] = s >> _WORD
    pool = _hashmix(pool, _SEED_POOL)
    for src, others in enumerate(_OTHERS):
        # mix(pool[dst], hashmix(pool[src])) for each other word, in order.
        hashed = _hashmix(pool[src], _MIX_POOL[src]) * _MIX_MULT_R
        mixed = pool[others] * _MIX_MULT_L
        mixed -= hashed
        mixed ^= mixed >> _XSHIFT
        pool[others] = mixed
    words = _hashmix(pool, _DRAW_KEY).astype(np.uint64)
    return words[0::2] | (words[1::2] << _WORD)


# Deriving keys costs about as much as building 6-8 generators from their
# seeds, so a shorter stack builds one Philox(seed) per row instead.
_KEYED_ROWS = 8


class SeedStack:
    """The T seeds of one draw, row i drawing from seed i; building it checks the seeds.

    A stack of at least _KEYED_ROWS rows derives the Philox keys of all of
    them in one :func:`philox_keys` pass, the first time it draws or is
    sliced; its slices share those keys, so a chunk of trials keys its
    profile, plan and dither seeds together.  A stack that never draws keys
    nothing.
    """

    __slots__ = ("seeds", "_keys")

    def __init__(self, seeds, keys=None):
        self.seeds = _seed_array(seeds)
        if not self.seeds.size:
            raise ValueError("a stacked draw needs at least one seed")
        self._keys = keys

    def __len__(self) -> int:
        return len(self.seeds)

    def __getitem__(self, rows: slice) -> "SeedStack":
        return SeedStack(self.seeds[rows], self._keys[:, rows] if self._keyed() else None)

    def _keyed(self) -> bool:
        """Whether the rows draw through keys, deriving them once for a long enough stack."""
        if self._keys is None and len(self.seeds) >= _KEYED_ROWS:
            self._keys = philox_keys(self.seeds)
        return self._keys is not None

    def generators(self):
        """One Generator per row, in row order; row i draws from ``Philox(seeds[i])``'s stream.

        A keyed stack builds one Philox for this call and re-keys it for each
        row, so a yielded Generator is only valid until the next one is
        taken; two calls never share a Philox.  A short stack (one seed,
        say) builds ``Philox(seed)`` for each row.
        """
        if not self._keyed():
            for seed in self.seeds.tolist():
                yield np.random.Generator(np.random.Philox(seed))
            return
        bit_generator = np.random.Philox(key=self._keys[:, 0])
        rng = np.random.Generator(bit_generator)
        state = bit_generator.state  # counter 0, empty buffer: a fresh generator's state
        for key in self._keys.T:
            state["state"]["key"] = key
            bit_generator.state = state
            yield rng


def seed_rows(seeds) -> tuple:
    """``(stack, True)`` for a SeedStack or a sequence of T seeds; ``(one-row stack, False)`` for one seed."""
    if isinstance(seeds, SeedStack):
        return seeds, True
    if np.ndim(seeds) == 0:
        return SeedStack([seeds]), False
    return SeedStack(seeds), True
