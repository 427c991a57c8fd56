"""Differential property tests: the count kernel, the take kernel
(``compact``) and the rebuilt ``partition3`` / ``topk_cut`` against the
three-mask oracle (:mod:`tests.support.partition_oracle`, the code they
replaced).

Arrays are drawn from a small pool of values, so pivots taken from the
pool hit runs of duplicates, ``lo == hi`` included; a pivot drawn fresh
may fall outside the data range, be NaN, or exceed its partner.  Sizes
sit on both sides of the compaction slab and off its multiples.  Parts
are compared byte for byte: the sign of a zero and a NaN's place count.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.kernels import (
    compact,
    partition3,
    partition_count,
    partition_take,
    topk_cut,
)
from repro.kernels.partition import _SLAB
from tests.support import partition_oracle as oracle

DTYPES = [np.int64, np.uint64, np.float64, np.float32]
SLAB_SIZES = [_SLAB - 1, _SLAB, _SLAB + 1, 2 * _SLAB + 17]


def values(dtype):
    """Scalars of ``dtype``, its extremes and special values included."""
    if np.dtype(dtype).kind in "iu":
        info = np.iinfo(dtype)
        span = st.integers(int(info.min), int(info.max))
        edge = st.sampled_from([info.min, info.min + 1, 0, info.max - 1, info.max])
        return st.one_of(span, edge, st.integers(0, 5)).map(dtype)
    info = np.finfo(dtype)
    width = 8 * np.dtype(dtype).itemsize
    special = st.sampled_from(
        [np.nan, np.inf, -np.inf, -0.0, 0.0, info.max, info.min, info.tiny]
    )
    return st.one_of(st.floats(width=width), special, st.integers(0, 5)).map(dtype)


@st.composite
def cases(draw):
    """``(arr, x, y)``: an array over a small value pool and two scalars
    of its dtype, each from the pool or drawn fresh."""
    dtype = draw(st.sampled_from(DTYPES))
    pool = draw(st.lists(values(dtype), min_size=1, max_size=8))
    n = draw(st.one_of(st.integers(0, 40), st.sampled_from(SLAB_SIZES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arr = np.array(pool, dtype=dtype)[rng.integers(0, len(pool), size=n)]
    pivot = st.one_of(st.sampled_from(pool), values(dtype))
    x = draw(pivot)
    y = x if draw(st.booleans()) else draw(pivot)
    return arr, x, y


def sample_pivots(lo, hi):
    """Pivots as a sorted sample yields them: NaN sorts last, so a NaN
    ``lo`` has a NaN ``hi``.  (Under a NaN ``lo`` alone the oracle's
    ``>= lo`` empties the middle part where the kernels keep ``<= hi``
    there; no selection level can ask.)"""
    return hi != hi or lo == lo


def same(got, want):
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestAgainstThreeMaskOracle:
    @given(cases())
    @example((np.empty(0, dtype=np.float64), np.float64(1.0), np.float64(2.0)))
    @example((np.full(_SLAB + 3, 7, dtype=np.int64), np.int64(7), np.int64(7)))
    @example((np.arange(50, dtype=np.uint64), np.uint64(60), np.uint64(70)))
    @example((np.array([np.nan, 1.0, -0.0, 0.0, np.nan]), np.float64(0.0), np.float64(np.nan)))
    @settings(max_examples=300, deadline=None)
    def test_count_then_take_builds_the_same_parts(self, case):
        arr, lo, hi = case
        assume(sample_pivots(lo, hi))
        want = oracle.partition3(arr, lo, hi)
        (n_lo, n_mid), masks = partition_count(arr, lo, hi)
        sizes = (n_lo, n_mid, arr.size - n_lo - n_mid)
        assert sizes == tuple(part.size for part in want)
        for part, size in enumerate(sizes):
            assert same(partition_take(arr, masks, part, size), want[part]), part

    @given(cases())
    @settings(max_examples=150, deadline=None)
    def test_partition3_builds_the_same_parts(self, case):
        arr, lo, hi = case
        assume(sample_pivots(lo, hi))
        want = oracle.partition3(arr, lo, hi)
        got = partition3(arr, lo, hi)
        assert all(same(g, w) for g, w in zip(got, want))

    @given(cases(), st.integers(0, 12))
    @example((np.full(2 * _SLAB, 3, dtype=np.int64), np.int64(3), np.int64(3)), _SLAB + 1)
    @settings(max_examples=200, deadline=None)
    def test_topk_cut_is_the_same_cut(self, case, keep_eq):
        arr, threshold, _ = case
        want = oracle.topk_cut(arr, threshold, keep_eq)
        assert same(topk_cut(arr, threshold, keep_eq), want)

    @given(cases())
    @settings(max_examples=100, deadline=None)
    def test_compact_is_boolean_indexing(self, case):
        arr, x, _ = case
        mask = arr <= x
        hits = int(np.count_nonzero(mask))
        assert same(compact(arr, mask, hits), arr[mask])
        assert same(compact(arr, mask, hits // 2), arr[mask][:hits // 2])
        out = np.zeros(hits + 2, dtype=arr.dtype)
        compact(arr, mask, hits, out=out[1:hits + 1])
        assert same(out[1:hits + 1], arr[mask]) and out[0] == 0 == out[-1]
