"""Hashing kernels: splitmix64 over arrays (key routing, sketch
fingerprints), vectorised numpy on uint64 wrap-around arithmetic."""

from __future__ import annotations

import numpy as np

__all__ = ["splitmix64_array", "fingerprint32"]

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64_array(x):
    """splitmix64 finalizer over a uint64 array."""
    z = x + np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def fingerprint32(keys, salt):
    """32-bit sketch fingerprints: ``splitmix64(key ^ salt) & 0xFFFFFFFF``
    over an int64 key array (the dsbf per-level hot loop)."""
    z = keys.astype(np.uint64) ^ np.uint64(salt & 0xFFFFFFFFFFFFFFFF)
    return (splitmix64_array(z) & np.uint64(0xFFFFFFFF)).astype(np.int64)
