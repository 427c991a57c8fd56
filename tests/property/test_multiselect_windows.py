"""Property-based tests: windowed multiselection against the unwindowed
call.

:func:`multi_select_windows` runs the shared recursion only inside the
value windows a caller sizes from values it knows the counts of (the
serve engine's :class:`~repro.serve.rank_index.RankIndex`).  Over random
bracket sets -- brackets with both counts, with only the one on their
window's side, ties, dtype extremes, NaN, +-0 and +-inf, empty PEs --
every asked rank must come back as the value the unwindowed
:func:`multi_select` finds, and every rank the call returns (the asked
ones and those its pivots pinned) must hold its value in the sorted
data, with every count it reports the one ``np.searchsorted`` gives.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import DistArray, Machine
from repro.selection import multi_select, multi_select_windows
from repro.serve.rank_index import RankIndex

#: values the comparisons treat specially, per dtype
SPECIALS = {
    np.int64: [-(2**63), 2**63 - 1, -1, 0, 1],
    np.uint64: [0, 1, 2**63, 2**63 + 1, 2**64 - 1],
    np.float64: [np.nan, np.inf, -np.inf, -0.0, 0.0, -1.5],
}


def _same(a, b) -> bool:
    return a == b or (a != a and b != b)


def _assert_exact(got: dict, ordered: np.ndarray) -> None:
    """Every returned ``(rank, (value, n_less, n_leq))`` holds in the
    sorted data."""
    for k, (value, n_less, n_leq) in got.items():
        assert _same(value, ordered[k - 1]), k
        if n_less is not None:
            assert n_less == np.searchsorted(ordered, value, "left"), k
        if n_leq is not None:
            assert n_leq == np.searchsorted(ordered, value, "right"), k


@st.composite
def cases(draw):
    p = draw(st.sampled_from([1, 2, 3, 5, 8]))
    n = draw(st.integers(1, 1500))
    dtype = draw(st.sampled_from(sorted(SPECIALS, key=lambda t: t.__name__)))
    spread = draw(st.sampled_from([1, 5, 10_000]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pool = np.array(SPECIALS[dtype] + list(range(2, 2 + spread)), dtype=dtype)
    values = pool[rng.integers(0, pool.size, n)]
    cuts = sorted(rng.integers(0, n + 1, p - 1).tolist())
    # brackets: answered ranks, each with both counts, one or none
    brackets = draw(st.lists(
        st.tuples(st.integers(1, n), st.sampled_from(["both", "less", "leq", "none"])),
        max_size=12))
    ks = draw(st.lists(st.integers(1, n), min_size=1, max_size=10))
    return p, np.split(values, cuts), brackets, sorted(set(ks)), seed


@given(cases())
@settings(max_examples=120, deadline=None)
def test_windowed_values_equal_unwindowed(case):
    p, chunks, brackets, ks, seed = case
    ordered = np.sort(np.concatenate(chunks))
    n = ordered.size
    index = RankIndex(n)
    for k, known in brackets:
        v = ordered[k - 1].item()
        less = int(np.searchsorted(ordered, v, "left"))
        leq = int(np.searchsorted(ordered, v, "right"))
        index.record(k, v, less if known in ("both", "less") else None,
                     leq if known in ("both", "leq") else None)
    windows = index.windows(ks)

    with Machine(p=p, seed=seed) as m:
        want = multi_select(m, DistArray(m, chunks), ks)
    with Machine(p=p, seed=seed) as m:
        got = multi_select_windows(m, DistArray(m, chunks), windows)

    assert set(ks) <= set(got)
    for k, w in zip(ks, want):
        assert _same(got[k][0], w), k
    _assert_exact(got, ordered)


@given(cases())
@settings(max_examples=60, deadline=None)
def test_every_pinned_rank_is_exact_and_leaves_multi_select_alone(case):
    """The unwindowed call returns its pivots' ranks too; each is exact,
    and the asked ranks read exactly what :func:`multi_select` returns
    (value, modeled cost and draw sequence)."""
    p, chunks, _, ks, seed = case
    ordered = np.sort(np.concatenate(chunks))
    n = ordered.size
    with Machine(p=p, seed=seed) as m:
        want = multi_select(m, DistArray(m, chunks), ks)
        want_model = (m.report(), m._rng_seq)
    with Machine(p=p, seed=seed) as m:
        got = multi_select_windows(m, DistArray(m, chunks), [(None, None, 0, n, ks)])
        assert (m.report(), m._rng_seq) == want_model
    assert set(ks) <= set(got)
    for k, w in zip(ks, want):
        assert _same(got[k][0], w), k
    _assert_exact(got, ordered)
