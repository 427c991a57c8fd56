"""Sequential selection: quickselect and Floyd-Rivest.

These serve three roles in the reproduction:

1. the *base case* of the distributed algorithms (once the recursion has
   shrunk the problem onto one PE, the driver finishes locally),
2. the pivot-selection machinery (Floyd-Rivest picks two pivots from a
   sorted sample, the same scheme Algorithm 1 distributes), and
3. the oracle used by tests (compare against a full sort).

Both are implemented with vectorized NumPy partitioning (no
``np.partition`` -- the partition counts are exactly the quantities the
distributed algorithm communicates, so we compute them explicitly).
"""

from __future__ import annotations

import math

import numpy as np

from ..kernels import compact

__all__ = ["quickselect", "floyd_rivest_select", "kth_smallest", "fr_pivots"]


def kth_smallest(data: np.ndarray, k: int) -> float:
    """The k-th smallest element (1-based) of ``data``.

    Dispatches to Floyd-Rivest for large inputs, quickselect otherwise.
    """
    data = np.asarray(data)
    if not 1 <= k <= data.size:
        raise ValueError(f"k must satisfy 1 <= k <= {data.size}, got {k}")
    if data.size >= 4096:
        return floyd_rivest_select(data, k)
    return quickselect(data, k)


def quickselect(data: np.ndarray, k: int, rng: np.random.Generator | None = None) -> float:
    """Classic quickselect (Hoare's FIND) with random pivots.

    Expected linear work; the input array is not modified.
    """
    data = np.asarray(data)
    n = data.size
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    rng = rng if rng is not None else np.random.default_rng(0x5E1EC7)
    work = data
    while work.size > 64:
        pivot = work[int(rng.integers(work.size))]
        lt = work < pivot
        n_lt = np.count_nonzero(lt)
        if k <= n_lt:
            work = compact(work, lt, n_lt)
            continue
        eq = work == pivot
        n_eq = np.count_nonzero(eq)
        if k <= n_lt + n_eq:
            return pivot.item() if hasattr(pivot, "item") else pivot
        work = compact(work, ~(lt | eq), work.size - n_lt - n_eq)
        k -= n_lt + n_eq
    return np.sort(work)[k - 1].item()


def fr_pivots(sample: np.ndarray, k: int, n: int) -> tuple:
    """Floyd-Rivest pivot pair from a *sorted* sample.

    The target of rank ``k`` among ``n`` elements sits near sample
    position ``c = k |S| / n``; the pivots are the sample elements at
    ``c -+ Delta``, clamped to the sample.  How many of ``|S|`` sample
    elements fall below the target is binomial with mean ``c`` and
    standard deviation ``sqrt(c (|S| - c) / |S|)``, so ``Delta`` is that
    standard deviation, floored at half a gap so that the two positions
    never meet: the pair keeps the target with constant probability and
    the part between them holds about ``2 Delta n / |S|`` elements.

    The paper's ``Delta = p^(1/4+delta)`` with a sample of
    ``Theta(sqrt(p))`` (``Delta = |S|^(5/6)`` for ``delta = 1/6``) is an
    asymptotic choice: it is at least ``|S| / 2`` for every ``|S| <
    64``, so below p = 4096 both pivots sat at or next to the sample's
    extremes and a level kept most of its segment.  With ``Delta`` one
    standard deviation a level keeps an ``O(1 / sqrt(|S|))`` share.

    Returns ``(lo_pivot, hi_pivot)`` with ``lo_pivot <= hi_pivot``.
    """
    s = sample.size
    if s == 0:
        raise ValueError("cannot pick pivots from an empty sample")
    center = k * s / max(n, 1)
    delta = max(0.5, math.sqrt(max(center * (s - center), 0.0) / s))
    lo = min(max(math.floor(center - delta), 0), s - 1)
    hi = min(max(math.ceil(center + delta), 0), s - 1)
    return sample[lo], sample[hi]


def floyd_rivest_select(
    data: np.ndarray, k: int, rng: np.random.Generator | None = None
) -> float:
    """Floyd-Rivest selection [16]: two pivots from a small sorted sample.

    Each round samples ``O(n^(2/3))`` elements, sorts them, and uses the
    two pivots around the target rank to discard all but an expected
    ``O(n^(2/3))`` fraction of the data, giving ``n + min(n, k) + o(n)``
    expected comparisons.
    """
    data = np.asarray(data)
    n = data.size
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    rng = rng if rng is not None else np.random.default_rng(0xF10D)
    work = data
    while work.size > 1024:
        m = work.size
        s = max(16, int(m ** (2.0 / 3.0)))
        sample = np.sort(work[rng.integers(0, m, size=s)])
        lo_p, hi_p = fr_pivots(sample, k, m)
        below = work < lo_p
        n_below = np.count_nonzero(below)
        mid = (work >= lo_p) & (work <= hi_p)
        n_mid = np.count_nonzero(mid)
        if k <= n_below:
            work = compact(work, below, n_below)
        elif k <= n_below + n_mid:
            if lo_p == hi_p:
                return lo_p.item() if hasattr(lo_p, "item") else lo_p
            work = compact(work, mid, n_mid)
            k -= n_below
        else:
            work = compact(work, ~(below | mid), m - n_below - n_mid)
            k -= n_below + n_mid
    return np.sort(work)[k - 1].item()
