"""Counter-update kernels: the Space-Saving ``offer`` batch loop.

The one kernel that stays a Python loop: each offer depends on the
summary the previous one left.  It replicates CPython dict semantics
exactly -- the eviction victim is the *first key in insertion order*
with minimal count, removal shifts everything after it left, and a new
key appends -- so it equals feeding the same ``(key, count)`` pairs one
by one through :meth:`repro.frequent.spacesaving.SpaceSaving.offer`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spacesaving_offer"]


def spacesaving_offer(keys, counts, capacity, max_evicted, new_keys,
                      new_counts):
    """Apply ``(new_keys[i], new_counts[i])`` offers to a Space-Saving
    summary given as insertion-ordered parallel arrays; returns the
    updated ``(keys, counts, max_evicted)``, the keys in ``keys``'
    dtype."""
    table = {int(k): int(c) for k, c in zip(keys, counts)}
    max_evicted = int(max_evicted)
    for k, c in zip(new_keys, new_counts):
        k, c = int(k), int(c)
        if k in table:
            table[k] += c
        elif len(table) < capacity:
            table[k] = c
        else:
            victim = min(table, key=table.__getitem__)
            floor = table.pop(victim)
            max_evicted = max(max_evicted, floor)
            table[k] = floor + c
    out_keys = np.fromiter(table.keys(), dtype=np.asarray(keys).dtype, count=len(table))
    out_counts = np.fromiter(table.values(), dtype=np.int64, count=len(table))
    return out_keys, out_counts, max_evicted
