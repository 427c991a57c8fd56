"""Differential property tests: the sorted-array tree of ``src/``
(:class:`repro.trees.Treap`) against the pointer-treap oracle, and
``treap_merge`` against ``sorted``.

Scores come from a small pool, so a generated batch repeats scores
inside itself and shares them with the tree: a shared score is what
sends the merge down its tie path (lexsort) instead of the
searchsorted placement, and batches of a *lower* rank than the tree's
keys must then land in front of their equals.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.ordering import BOTTOM, TOP
from repro.kernels import ArrayTreap, treap_merge
from repro.trees import Treap
from tests.support.pointer_treap import Treap as PointerTreap

INF = float("inf")
POOL = [-INF, -2.5, -0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 3.0, INF]


def score_lists(max_size):
    return st.lists(
        st.sampled_from(POOL) | st.floats(-4.0, 4.0, allow_nan=False),
        max_size=max_size,
    )


scores = score_lists(12)

# (op, argument); query arguments are turned into keys against the live
# tree by ``query_key`` so that they hit real keys and their neighbours
ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert_batch"), st.tuples(scores, st.integers(0, 2))),
        st.tuples(st.just("split_at_rank"), st.integers(0, 20)),
        st.tuples(
            st.sampled_from(["count_le", "rank"]),
            st.tuples(st.integers(0, 60), st.integers(-1, 1), st.integers(-1, 1)),
        ),
        st.tuples(st.sampled_from(["count_le", "rank"]), st.sampled_from([TOP, BOTTOM])),
        st.tuples(st.just("select"), st.integers(0, 60)),
        st.tuples(st.just("min"), st.none()),
    ),
    max_size=30,
)


def query_key(oracle, arg):
    """A key at or next to the ``arg[0]``-th live key (``(ra, rb)``
    nudged by ``arg[1:]``), or a pool score with a fresh uid."""
    if arg is TOP or arg is BOTTOM:
        return arg
    i, da, db = arg
    if len(oracle) == 0:
        return (POOL[i % len(POOL)], (da, db))
    s, (ra, rb) = oracle.select(i % len(oracle))
    return (s, (ra + da, rb + db))


class TestAgainstPointerOracle:
    def test_one_class_under_both_names(self):
        assert Treap is ArrayTreap

    @given(ops)
    @settings(max_examples=150, deadline=None)
    def test_op_sequences_agree(self, sequence):
        tree, oracle = Treap(), PointerTreap(np.random.default_rng(1))
        next_uid = [0, 0, 0]
        for op, arg in sequence:
            if op == "insert_batch":
                batch, rank = arg
                for t in (tree, oracle):
                    t.insert_batch(batch, rank, next_uid[rank])
                next_uid[rank] += len(batch)
            elif op == "split_at_rank":
                assert tree.split_at_rank(arg).to_list() == (
                    oracle.split_at_rank(arg).to_list()
                )
            elif op in ("count_le", "rank"):
                key = query_key(oracle, arg)
                assert getattr(tree, op)(key) == getattr(oracle, op)(key), (op, key)
            elif op == "select":
                if len(oracle):
                    i = arg % len(oracle)
                    assert tree.select(i) == oracle.select(i) == tree.item(i)
            elif len(oracle):
                assert tree.min() == oracle.min()
            assert len(tree) == len(oracle)
            assert tree.to_list() == oracle.to_list() == list(tree)
            tree.check_invariants()

    @given(scores, scores, st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=100, deadline=None)
    def test_membership_and_key_split_agree(self, first, second, ra, rb):
        tree, oracle = Treap(), PointerTreap(np.random.default_rng(2))
        for t in (tree, oracle):
            t.insert_batch(first, ra, 0)
            t.insert_batch(second, rb, 100)
        for key in [(0.5, (ra, 0)), (0.0, (rb, 100)), (INF, (1, 7))]:
            assert (key in tree) == (key in oracle)
        cut = (0.5, (1, 50))
        assert tree.split_at_key(cut).to_list() == oracle.split_at_key(cut).to_list()
        assert tree.to_list() == oracle.to_list()


def sorted_keys(draw_scores, rank, first_uid):
    """A lex-sorted ``(s, ra, rb)`` column triple, as ``insert_batch``
    builds it."""
    s = np.asarray(draw_scores, dtype=np.float64)
    order = np.argsort(s, kind="stable")
    return s[order], np.full(s.size, rank, dtype=np.int64), order + first_uid


class TestMerge:
    @given(score_lists(40), score_lists(40), st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=200, deadline=None)
    def test_merge_is_the_sorted_union(self, sa, sb, rank_a, rank_b):
        a = sorted_keys(sa, rank_a, 0)
        b = sorted_keys(sb, rank_b, 1000)
        got = treap_merge(*a, *b)
        assert [col.dtype for col in got] == [np.float64, np.int64, np.int64]
        merged = list(zip(*(col.tolist() for col in got)))
        assert merged == sorted(
            list(zip(*(c.tolist() for c in a))) + list(zip(*(c.tolist() for c in b)))
        )
