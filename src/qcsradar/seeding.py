"""Deterministic seed derivation and generator construction.

Every random object in the simulator is produced from an explicit 64-bit
seed.  Sub-seeds are derived by hashing a master seed together with a
purpose tag and the parameters that identify the random object, so any
single draw (one profile, one sampling plan, one dither) can be
regenerated in isolation.  A stacked draw takes a sequence of T seeds and
gives each row its own generator, so row i is the draw of seed i.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "generator", "seed_rows"]


def derive_seed(master_seed: int, *parts) -> int:
    """Derive a 64-bit sub-seed from a master seed and identifying parts.

    Parts may be ints, strings, or None; they are hashed in order, so
    ``derive_seed(s, "plan", 512, 3)`` and ``derive_seed(s, "plan", 5123)``
    do not collide.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(master_seed)).encode())
    for part in parts:
        h.update(b"|")
        h.update(str(part).encode())
    return int.from_bytes(h.digest(), "little")


def generator(seed) -> np.random.Generator:
    """Return a counter-based generator for ``seed``; pass through Generators."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(int(seed)))


def seed_rows(seeds) -> tuple:
    """``(list of T seeds, True)`` for a sequence; ``([seed], False)`` for one seed or Generator."""
    if np.ndim(seeds) == 0:
        return [seeds], False
    rows = list(seeds)
    if not rows:
        raise ValueError("a stacked draw needs at least one seed")
    return rows, True
