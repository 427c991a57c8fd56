"""Unit tests: the per-PE score index (repro.topk.index)."""

import pickle

import numpy as np
import pytest

from repro.machine import Machine
from repro.topk import LocalIndex, SumScore, build_distributed_index, global_topk_oracle


@pytest.fixture
def rng():
    return np.random.default_rng(41)


class TestLocalIndex:
    def test_entries_sorted_descending(self, rng):
        ix = LocalIndex(np.arange(50), rng.random((50, 3)))
        for c in range(3):
            scores = [ix.entry(c, r)[1] for r in range(50)]
            assert scores == sorted(scores, reverse=True)

    def test_scores_desc(self, rng):
        ix = LocalIndex(np.arange(20), rng.random((20, 2)))
        col = ix.scores_desc(1)
        assert np.all(np.diff(col) <= 0)

    def test_row_of(self, rng):
        scores = rng.random((10, 2))
        ix = LocalIndex(np.arange(100, 110), scores)
        assert np.array_equal(ix.row_of(105), scores[5])
        assert ix.row_of(999) is None

    def test_prefix_size(self, rng):
        scores = np.array([[0.9], [0.5], [0.5], [0.1]])
        ix = LocalIndex(np.arange(4), scores)
        assert ix.prefix_size(0, 0.5) == 3
        assert ix.prefix_size(0, 0.95) == 0
        assert ix.prefix_size(0, 0.0) == 4

    def test_prefix_rows_match_entries(self, rng):
        ix = LocalIndex(np.arange(30), rng.random((30, 2)))
        rows = ix.prefix_rows(0, 5)
        ids = [ix.entry(0, r)[0] for r in range(5)]
        assert [int(ix.ids[r]) for r in rows] == ids

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            LocalIndex(np.array([1, 1]), np.zeros((2, 1)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            LocalIndex(np.arange(3), np.zeros((2, 1)))

    def test_pickles_as_its_two_arrays(self, rng):
        """DTA / RDTA commands ship each PE's index: it pickles as
        ``(ids, scores)`` and derives the orders and the row map again
        on load."""
        n, m = 1 << 14, 4
        ix = LocalIndex(rng.permutation(1 << 20)[:n], rng.random((n, m)))
        blob = pickle.dumps(ix)
        assert len(blob) <= ix.ids.nbytes + ix.scores.nbytes + 4096
        back = pickle.loads(blob)
        assert all(np.array_equal(a, b) for a, b in zip(back.orders, ix.orders))
        assert back._row_of == ix._row_of
        np.testing.assert_array_equal(back.scores, ix.scores)
        assert back.entry(2, 7) == ix.entry(2, 7)


class TestBuilders:
    def test_build_distributed_index_charges(self, machine8, rng):
        ids = [np.arange(i * 10, i * 10 + 10) for i in range(8)]
        scores = [rng.random((10, 2)) for _ in range(8)]
        t0 = machine8.clock.makespan
        idx = build_distributed_index(machine8, ids, scores)
        assert len(idx) == 8
        assert machine8.clock.work_time.max() > 0

    def test_oracle_ranks_by_relevance(self, machine8, rng):
        ids = [np.arange(i * 10, i * 10 + 10) for i in range(8)]
        scores = [rng.random((10, 3)) for _ in range(8)]
        idx = build_distributed_index(machine8, ids, scores)
        top = global_topk_oracle(idx, SumScore(3), 5)
        rels = [r for _, r in top]
        assert rels == sorted(rels, reverse=True)
        assert len(top) == 5
