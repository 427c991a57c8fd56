"""Hashing utilities for the distributed hash table (Section 7).

The paper assumes a hash function that "behaves like a random function"
to spread keys uniformly over the PEs.  We use the splitmix64 finalizer
-- a cheap, well-mixed 64-bit permutation -- both scalar (for Python
dict keys) and vectorized (for NumPy key arrays).
"""

from __future__ import annotations

import numpy as np

from .. import kernels

__all__ = ["splitmix64", "splitmix64_array", "key_owner", "make_owner_fn"]

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """Scalar splitmix64 finalizer: a fixed 64-bit mixing permutation."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def splitmix64_array(keys: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 over an integer key array (the
    :func:`repro.kernels.splitmix64_array` kernel)."""
    x = np.asarray(keys).astype(np.uint64)
    with np.errstate(over="ignore"):
        return kernels.splitmix64_array(x)


def key_owner(keys: np.ndarray, p: int, salt: int = 0) -> np.ndarray:
    """Home PE of each key in a ``p``-PE distributed hash table.

    The vectorised form of :func:`make_owner_fn`: equal to it key by
    key for every integer dtype (negative keys and ``uint64`` keys
    ``>= 2**63`` hash by their 64-bit two's-complement pattern) and
    every ``salt``.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    x = np.asarray(keys).astype(np.uint64)
    if salt:
        x = x ^ np.uint64(salt & _MASK)
    return (splitmix64_array(x) % np.uint64(p)).astype(np.int64)


def make_owner_fn(p: int, salt: int = 0):
    """Scalar key -> owner-PE function (for dict-based exchanges).

    ``salt`` lets callers re-randomize placement (e.g. per query) without
    changing the machine seed.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")

    def owner(key) -> int:
        if isinstance(key, (int, np.integer)):
            h = splitmix64((int(key) ^ salt) & _MASK)
        else:
            h = splitmix64((hash(key) ^ salt) & _MASK)
        return int(h % p)

    return owner
