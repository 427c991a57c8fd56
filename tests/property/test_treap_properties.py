"""Property-based tests: invariants of the pointer-treap oracle
(hypothesis); the array tree is checked against it in
test_array_tree_differential.py."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.support.pointer_treap import Treap

keys = st.lists(st.integers(-1000, 1000), max_size=120)


def build(vals, seed=0):
    t = Treap(np.random.default_rng(seed))
    t.insert_many(vals)
    return t


class TestStructure:
    @given(keys)
    @settings(max_examples=60, deadline=None)
    def test_inorder_is_sorted_multiset(self, vals):
        t = build(vals)
        assert t.to_list() == sorted(vals)
        t.check_invariants()

    @given(keys, st.integers(0, 200))
    @settings(max_examples=60, deadline=None)
    def test_split_at_rank_partitions(self, vals, i):
        t = build(vals)
        s = sorted(vals)
        low = t.split_at_rank(i)
        cut = min(i, len(s))
        assert low.to_list() == s[:cut]
        assert t.to_list() == s[cut:]
        low.check_invariants()
        t.check_invariants()

    @given(keys, st.integers(-1000, 1000))
    @settings(max_examples=60, deadline=None)
    def test_split_at_key_partitions(self, vals, x):
        t = build(vals)
        low = t.split_at_key(x)
        assert all(v <= x for v in low.to_list())
        assert all(v > x for v in t.to_list())
        assert sorted(low.to_list() + t.to_list()) == sorted(vals)

    @given(keys, st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_split_concat_roundtrip(self, vals, i):
        t = build(vals)
        low = t.split_at_rank(i)
        low.concat(t)
        assert low.to_list() == sorted(vals)
        low.check_invariants()


class TestQueries:
    @given(keys, st.integers(-1000, 1000))
    @settings(max_examples=60, deadline=None)
    def test_rank_and_count_le(self, vals, x):
        t = build(vals)
        assert t.rank(x) == sum(1 for v in vals if v < x)
        assert t.count_le(x) == sum(1 for v in vals if v <= x)

    @given(keys.filter(lambda v: len(v) > 0))
    @settings(max_examples=60, deadline=None)
    def test_select_matches_sorted(self, vals):
        t = build(vals)
        s = sorted(vals)
        for i in range(0, len(s), max(1, len(s) // 7)):
            assert t.select(i) == s[i]

    @given(keys, st.integers(-1000, 1000))
    @settings(max_examples=60, deadline=None)
    def test_delete_removes_one_occurrence(self, vals, x):
        t = build(vals)
        existed = t.delete(x)
        expected = sorted(vals)
        if x in vals:
            assert existed
            expected.remove(x)
        else:
            assert not existed
        assert t.to_list() == expected
        t.check_invariants()


class TestFromSorted:
    @given(keys)
    @settings(max_examples=40, deadline=None)
    def test_from_sorted_equivalent_to_inserts(self, vals):
        s = sorted(vals)
        t = Treap.from_sorted(s, np.random.default_rng(1))
        assert t.to_list() == s
        t.check_invariants()
