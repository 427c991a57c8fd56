"""Property-based tests: base-case segments finished by their end blocks.

A segment of at most ``base_case`` elements puts each of its ranks in
the block of its nearer end (reach ``max(T, n // 2 + 1)``) and, when
all ``p`` PEs' blocks together hold no more than the residual, finishes
in the level's all-reduction instead of allgathering its residual.
Over segments of at most ``base_case`` elements -- the root itself, and
the segments a deeper recursion leaves -- at p in 1..8 with duplicates,
all-equal data, empty PEs, dtype extremes and NaN, every value must
match numpy, and every ``n_less`` / ``n_leq`` that
:func:`multi_select_windows` reports must be exact or ``None``, never
wrong.  A root segment must take the path the rule names: one
all-reduction, or one allgather.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.machine import DistArray, Machine
from repro.machine.backends import base
from repro.selection import multi_select, multi_select_windows

BASE = 64  # the default base case up to p = 256

#: values the comparisons treat specially, per dtype
SPECIALS = {
    np.int64: [-(2**63), 2**63 - 1, -1, 0, 1],
    np.float64: [np.nan, np.inf, -np.inf, -0.0, 0.0, -1.5],
}


def _same(a, b) -> bool:
    return a == b or (a != a and b != b)


def _by_ends(p: int, n: int, ks: list) -> bool:
    """Whether a root segment of ``n <= BASE`` elements finishes by its
    end blocks: each rank in the block of its nearer end, and the ``p``
    PEs' blocks no larger than the residual."""
    reach = max(max(1, BASE // (2 * max(1, (p - 1).bit_length()))), n // 2 + 1)
    low = [k for k in ks if k <= reach]
    high = ks[len(low):]
    w_lo = low[-1] if low else 0
    w_hi = n - high[0] + 1 if high else 0
    return (w_lo + w_hi) * p <= n


@st.composite
def cases(draw):
    p = draw(st.integers(1, 8))
    n = draw(st.one_of(st.integers(1, BASE), st.integers(BASE + 1, 400)))
    dtype = draw(st.sampled_from(sorted(SPECIALS, key=lambda t: t.__name__)))
    spread = draw(st.sampled_from([0, 1, 3, 10_000]))  # 0: all equal
    cuts = draw(st.lists(st.integers(0, n), min_size=p - 1, max_size=p - 1))
    ks = draw(st.lists(st.integers(1, n), min_size=1, max_size=8))
    seed = draw(st.integers(0, 2**32 - 1))
    return p, n, dtype, spread, sorted(cuts), sorted(set(ks)), seed


def _chunks(p, n, dtype, spread, cuts, seed):
    rng = np.random.default_rng(seed)
    if spread == 0:
        values = np.full(n, 7, dtype=dtype)
    else:
        pool = np.array(SPECIALS[dtype] + list(range(2, 2 + spread)), dtype=dtype)
        values = pool[rng.integers(0, pool.size, n)]
    return np.split(values, cuts)  # repeated cuts leave PEs empty


def _kinds_of(call):
    """``call()``'s result and the kinds of collective it yielded."""
    kinds: list = []
    reference = base.spmd_collective

    def spy(kind, requests):
        kinds.append(kind)
        return reference(kind, requests)

    with mock.patch.object(base, "spmd_collective", spy):
        return call(), kinds


@given(cases())
@example((4, 64, np.int64, 10_000, [16, 32, 48], [1, 64], 1))  # ends
@example((4, 64, np.int64, 10_000, [16, 32, 48], [1, 20], 1))  # residual
@example((3, 40, np.float64, 3, [0, 0], [1, 2, 39, 40], 5))  # one PE, NaN
@settings(max_examples=150, deadline=None)
def test_small_segments_match_numpy_with_exact_or_unknown_counts(case):
    p, n, dtype, spread, cuts, ks, seed = case
    chunks = _chunks(p, n, dtype, spread, cuts, seed)
    ordered = np.sort(np.concatenate(chunks))
    with Machine(p=p, seed=seed) as m:
        want = multi_select(m, DistArray(m, chunks), ks)
    with Machine(p=p, seed=seed) as m:
        data = DistArray(m, chunks)
        got, kinds = _kinds_of(
            lambda: multi_select_windows(m, data, [(None, None, 0, n, ks)]))

    for k, w in zip(ks, want):
        assert _same(w, ordered[k - 1]), k
        assert _same(got[k][0], w), k
    for k, (value, n_less, n_leq) in got.items():
        assert _same(value, ordered[k - 1]), k
        if n_less is not None:
            assert n_less == np.searchsorted(ordered, value, "left"), k
        if n_leq is not None:
            assert n_leq == np.searchsorted(ordered, value, "right"), k
    if n <= BASE:  # the root is a base-case segment: one collective
        assert kinds == (["allreduce"] if _by_ends(p, n, ks) else ["allgather"])
