"""Selection partition kernels: the per-PE hot loops of Section 3/4.

A selection level (Algorithm 1) splits a PE's slice around the pivot
pair into ``a < lo <= b <= hi < c``, exchanges the part *counts* and
continues in the parts that hold a rank.  ``partition_count`` is the
counting pass: it marks the lower and the upper part and sizes all
three.  Once the replicated totals have said which parts survive,
:func:`partition_take` copies those out through ``compact``, the take
kernel -- the package's one way to gather the elements a mask selects.
Theorem 1 charges ``O(n/p)`` per level; the wall cost is one mask pass
plus one copy of what survives.

``partition3`` builds all three parts at once (no selection level does
any more; it is what the ledger's ``kernels.partition3_*`` probes
time); ``topk_count`` and ``topk_cut`` are the
collapsed count + tie-grant extraction of the one-step top-k cut.  All
are numpy mask pipelines over ``compact``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "compact", "partition_count", "partition_take", "partition3",
    "topk_count", "topk_cut",
]

#: elements per compaction slab: an index block of this many int64 and
#: the source block it reads stay cache-resident (64 Ki beat 16 Ki and
#: 256 Ki on 1 Mi int64; the row is in CHANGES.md under PR 17)
_SLAB = 1 << 16


def compact(arr, mask, size, out=None):
    """The first ``size`` elements of ``arr[mask]``, by index compaction.

    ``size`` is the popcount of ``mask`` wherever the caller has counted
    already (it always has: the counts are what a selection level
    communicates).  The output -- ``out`` when given, a length-``size``
    stretch of a larger result -- is allocated once and written slab by
    slab, so no part-sized index array is ever live.
    """
    if out is None:
        out = np.empty(size, dtype=arr.dtype)
    pos = 0
    for start in range(0, arr.size, _SLAB):
        if pos == size:
            break
        idx = np.flatnonzero(mask[start:start + _SLAB])[:size - pos]
        # mode="clip": under the default, take() buffers ``out``
        arr[start:start + _SLAB].take(idx, out=out[pos:pos + idx.size], mode="clip")
        pos += idx.size
    return out


def partition_count(arr, lo, hi):
    """``((n_below, n_mid), (below, upper))``: the sizes of the parts
    ``< lo`` and ``in [lo, hi]`` of ``arr`` (the upper part is the
    rest), and the masks of the two outer parts for
    :func:`partition_take`.  Upper is whatever is neither below nor
    ``<= hi``, so NaN (it fails both tests) lands there."""
    below = arr < lo
    upper = arr <= hi
    upper |= below
    np.logical_not(upper, out=upper)
    n_lo = int(np.count_nonzero(below))
    n_mid = arr.size - n_lo - int(np.count_nonzero(upper))
    return (n_lo, n_mid), (below, upper)


def partition_take(arr, masks, part, size):
    """Part ``part`` (0 below, 1 mid, 2 upper) of the split
    :func:`partition_count` marked, order-preserving; ``size`` is that
    part's count, and a part of none copies nothing."""
    if size == 0:
        return np.empty(0, dtype=arr.dtype)  # not a view: frees ``arr``
    below, upper = masks
    mask = below if part == 0 else upper if part == 2 else ~(below | upper)
    return compact(arr, mask, size)


def partition3(arr, lo, hi):
    """Split ``arr`` into ``(below, mid, above)``: elements ``< lo``,
    ``in [lo, hi]``, ``> hi`` (and NaN) -- each part order-preserving."""
    (n_lo, n_mid), masks = partition_count(arr, lo, hi)
    below, upper = masks
    return (
        compact(arr, below, n_lo),
        compact(arr, ~(below | upper), n_mid),
        compact(arr, upper, arr.size - n_lo - n_mid),
    )


def topk_count(arr, threshold):
    """``(count below, count equal)`` against the top-k threshold."""
    return (int(np.count_nonzero(arr < threshold)),
            int(np.count_nonzero(arr == threshold)))


def topk_cut(arr, threshold, keep_eq):
    """Elements ``< threshold`` plus the first ``keep_eq`` ties, in the
    order the reference concatenation produces (all strict, then ties)."""
    below = arr < threshold
    n_below = np.count_nonzero(below)
    take = 0
    if keep_eq > 0:
        eq = arr == threshold
        take = min(keep_eq, np.count_nonzero(eq))
    out = np.empty(n_below + take, dtype=arr.dtype)
    compact(arr, below, n_below, out=out[:n_below])
    if take:
        compact(arr, eq, take, out=out[n_below:])
    return out
