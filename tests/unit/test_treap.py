"""Unit tests: the pointer treap the array tree is checked against
(tests/support/pointer_treap.py) -- an oracle has to be right itself."""

import numpy as np
import pytest

from tests.support.pointer_treap import Treap


@pytest.fixture
def rng():
    return np.random.default_rng(5)


def build(rng, values):
    t = Treap(rng)
    t.insert_many(values)
    return t


class TestBasics:
    def test_empty(self, rng):
        t = Treap(rng)
        assert len(t) == 0
        assert not t
        assert t.to_list() == []

    def test_min_max_on_empty_raise(self, rng):
        t = Treap(rng)
        with pytest.raises(IndexError):
            t.min()
        with pytest.raises(IndexError):
            t.max()

    def test_insert_iterate_sorted(self, rng):
        vals = [5, 1, 4, 1, 3]
        t = build(rng, vals)
        assert t.to_list() == sorted(vals)
        t.check_invariants()

    def test_contains(self, rng):
        t = build(rng, [2, 4, 6])
        assert 4 in t
        assert 5 not in t

    def test_min_max(self, rng):
        t = build(rng, [9, 2, 7])
        assert t.min() == 2
        assert t.max() == 9

    def test_duplicates_kept(self, rng):
        t = build(rng, [3, 3, 3])
        assert len(t) == 3


class TestOrderStatistics:
    def test_select_matches_sorted(self, rng):
        vals = list(rng.integers(0, 100, 200))
        t = build(rng, vals)
        s = sorted(vals)
        for i in (0, 1, 50, 199):
            assert t.select(i) == s[i]

    def test_select_out_of_range(self, rng):
        t = build(rng, [1, 2])
        with pytest.raises(IndexError):
            t.select(2)
        with pytest.raises(IndexError):
            t.select(-1)

    def test_rank_strict(self, rng):
        t = build(rng, [10, 20, 20, 30])
        assert t.rank(20) == 1
        assert t.rank(25) == 3
        assert t.rank(5) == 0

    def test_count_le(self, rng):
        t = build(rng, [10, 20, 20, 30])
        assert t.count_le(20) == 3
        assert t.count_le(9) == 0
        assert t.count_le(99) == 4

    def test_rank_select_inverse(self, rng):
        vals = sorted(set(rng.integers(0, 10_000, 300).tolist()))
        t = Treap.from_sorted(vals, rng)
        for i in range(0, len(vals), 37):
            assert t.rank(t.select(i)) == i


class TestDelete:
    def test_delete_existing(self, rng):
        t = build(rng, [1, 2, 3])
        assert t.delete(2)
        assert t.to_list() == [1, 3]
        t.check_invariants()

    def test_delete_missing_returns_false(self, rng):
        t = build(rng, [1, 3])
        assert not t.delete(2)
        assert len(t) == 2

    def test_delete_one_of_duplicates(self, rng):
        t = build(rng, [5, 5, 5])
        assert t.delete(5)
        assert len(t) == 2


class TestBulkOps:
    def test_split_at_rank(self, rng):
        vals = sorted(rng.integers(0, 1000, 100).tolist())
        t = build(rng, vals)
        low = t.split_at_rank(30)
        assert low.to_list() == vals[:30]
        assert t.to_list() == vals[30:]
        low.check_invariants()
        t.check_invariants()

    def test_split_at_rank_zero_and_all(self, rng):
        t = build(rng, [1, 2, 3])
        empty = t.split_at_rank(0)
        assert len(empty) == 0
        rest = t.split_at_rank(99)  # clamped
        assert rest.to_list() == [1, 2, 3]
        assert len(t) == 0

    def test_split_negative_rejected(self, rng):
        with pytest.raises(ValueError):
            build(rng, [1]).split_at_rank(-1)

    def test_split_at_key(self, rng):
        t = build(rng, [1, 2, 2, 3, 4])
        low = t.split_at_key(2)
        assert low.to_list() == [1, 2, 2]
        assert t.to_list() == [3, 4]

    def test_concat(self, rng):
        a = build(rng, [1, 2])
        b = build(rng, [3, 4])
        a.concat(b)
        assert a.to_list() == [1, 2, 3, 4]
        assert len(b) == 0
        a.check_invariants()

    def test_concat_overlap_rejected(self, rng):
        a = build(rng, [1, 5])
        b = build(rng, [3])
        with pytest.raises(ValueError, match="ordered"):
            a.concat(b)


class TestFromSorted:
    def test_roundtrip(self, rng):
        vals = sorted(rng.integers(0, 100, 64).tolist())
        t = Treap.from_sorted(vals, rng)
        assert t.to_list() == vals
        t.check_invariants()

    def test_rejects_unsorted(self, rng):
        with pytest.raises(ValueError):
            Treap.from_sorted([3, 1, 2], rng)

    def test_empty(self, rng):
        assert len(Treap.from_sorted([], rng)) == 0

    def test_subsequent_mutation_keeps_invariants(self, rng):
        t = Treap.from_sorted(list(range(0, 100, 2)), rng)
        for x in rng.integers(0, 100, 50):
            t.insert(int(x))
        t.check_invariants()


class TestTupleKeys:
    def test_score_uid_ordering(self, rng):
        t = Treap(rng)
        t.insert((1.5, (0, 1)))
        t.insert((1.5, (0, 0)))
        t.insert((0.5, (1, 7)))
        assert t.select(0) == (0.5, (1, 7))
        assert t.select(1) == (1.5, (0, 0))

    def test_access_cost_log_bounded(self, rng):
        t = build(rng, list(range(1024)))
        assert t.access_cost() == pytest.approx(10.0)
        assert t.access_cost(k=16) == pytest.approx(4.0)
