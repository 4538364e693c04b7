"""Deterministic derivation of per-task seeds from a master seed.

Every stochastic component of the package (training, query-sample
ensembles, permutation nulls) derives its substream seeds through
:func:`derive_seed` so that a single master seed pins down the entire
computation.  The derivation is a fixed function of
its inputs and will not change between versions:

    seed_i = little-endian uint64 from the first 8 bytes of
             SHA-256(master_seed as int64 LE || index as int64 LE || tag utf-8)

"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, index: int, tag: str = "") -> int:
    """Return a 64-bit seed for substream `index` of `master_seed`.

    Stable across platforms and package versions; distinct tags give
    independent substream families for the same (seed, index) pair.
    """
    h = hashlib.sha256()
    h.update(int(master_seed & _MASK64).to_bytes(8, "little"))
    h.update(int(index & _MASK64).to_bytes(8, "little"))
    h.update(tag.encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little")


def rng_from(seed: int) -> np.random.Generator:
    """A PCG64 generator seeded with `seed`."""
    return np.random.Generator(np.random.PCG64(seed))
