"""Unit tests: bulk-parallel priority queue (Section 5)."""

import numpy as np
import pytest

from repro.machine import Machine
from repro.pqueue import BulkParallelPQ
from repro.selection.accessors import SortedSequence, as_sorted_seq
from repro.trees import Treap


@pytest.fixture
def rng():
    return np.random.default_rng(31)


def fill(machine, rng, per_pe=100):
    pq = BulkParallelPQ(machine)
    batches = [list(rng.random(per_pe)) for _ in range(machine.p)]
    pq.insert(batches)
    allv = sorted(v for b in batches for v in b)
    return pq, allv


class TestTreeIsSortedSequence:
    def test_sequence_protocol(self):
        """The selection algorithms take the tree as it is."""
        t = Treap()
        t.insert_batch([3.0, 1.0, 2.0], rank=0, first_uid=0)
        assert isinstance(t, SortedSequence) and as_sorted_seq(t) is t
        assert len(t) == 3
        assert t.item(0) == (1.0, (0, 1))
        assert t.count_le((2.0, (0, 2))) == 2
        assert t.count_le((2.0, (0, 1))) == 1


class TestInsert:
    def test_insert_is_communication_free(self, machine8, rng):
        pq = BulkParallelPQ(machine8)
        machine8.reset()
        pq.insert([list(rng.random(50)) for _ in range(8)])
        assert machine8.metrics.total_traffic == 0

    def test_insert_wrong_arity(self, machine8):
        pq = BulkParallelPQ(machine8)
        with pytest.raises(ValueError, match="one insertion batch"):
            pq.insert([[1.0]] * 3)

    def test_insert_local_returns_uids(self, machine8):
        pq = BulkParallelPQ(machine8)
        uids = pq.insert_local(3, [0.5, 0.7])
        assert uids == [(3, 0), (3, 1)]

    def test_total_size(self, machine8, rng):
        pq, allv = fill(machine8, rng, 40)
        assert pq.total_size() == len(allv)


class TestPeekAndDelete:
    def test_peek_min(self, machine, rng):
        pq, allv = fill(machine, rng, 64)
        assert pq.peek_min() == pytest.approx(allv[0])

    def test_peek_empty_raises(self, machine8):
        pq = BulkParallelPQ(machine8)
        with pytest.raises(IndexError):
            pq.peek_min()

    def test_delete_min_exact(self, machine, rng):
        pq, allv = fill(machine, rng, 64)
        res = pq.delete_min(32)
        got = sorted(s for b in res.batches for s, _ in b)
        assert got == pytest.approx(allv[:32])
        assert res.k == 32

    def test_delete_min_removes(self, machine8, rng):
        pq, allv = fill(machine8, rng, 64)
        pq.delete_min(100)
        res2 = pq.delete_min(10)
        got = sorted(s for b in res2.batches for s, _ in b)
        assert got == pytest.approx(allv[100:110])

    def test_delete_min_invalid_k(self, machine8, rng):
        pq, _ = fill(machine8, rng, 10)
        with pytest.raises(ValueError):
            pq.delete_min(0)
        with pytest.raises(ValueError):
            pq.delete_min(81)

    def test_batches_stay_on_owner_pe(self, machine8, rng):
        """Owner-computes: extracted elements carry their origin rank."""
        pq, _ = fill(machine8, rng, 32)
        res = pq.delete_min(64)
        for rank, batch in enumerate(res.batches):
            for _, uid in batch:
                assert uid[0] == rank

    def test_batches_ascending(self, machine8, rng):
        pq, _ = fill(machine8, rng, 32)
        res = pq.delete_min(64)
        for batch in res.batches:
            scores = [s for s, _ in batch]
            assert scores == sorted(scores)


class TestDeleteFlexible:
    def test_k_in_range(self, machine, rng):
        pq, allv = fill(machine, rng, 128)
        n = len(allv)
        res = pq.delete_min_flexible(n // 8, n // 4)
        assert n // 8 <= res.k <= n // 4
        got = sorted(s for b in res.batches for s, _ in b)
        assert got == pytest.approx(allv[: res.k])

    def test_sequence_of_flexible_deletes_drains(self, machine8, rng):
        pq, allv = fill(machine8, rng, 32)
        drained = []
        while pq.total_size() > 0:
            hi = min(64, pq.total_size())
            lo = max(1, hi // 2)
            res = pq.delete_min_flexible(lo, hi)
            drained += [s for b in res.batches for s, _ in b]
        assert sorted(drained) == pytest.approx(allv)

    def test_interleaved_insert_delete(self, machine8, rng):
        pq = BulkParallelPQ(machine8)
        reference = []
        for it in range(5):
            batches = [list(rng.random(20)) for _ in range(8)]
            pq.insert(batches)
            reference += [v for b in batches for v in b]
            reference.sort()
            res = pq.delete_min(30)
            got = sorted(s for b in res.batches for s, _ in b)
            assert got == pytest.approx(reference[:30])
            reference = reference[30:]

    def test_duplicate_scores_unique_uids(self, machine8):
        pq = BulkParallelPQ(machine8)
        pq.insert([[1.0, 1.0, 1.0] for _ in range(8)])
        res = pq.delete_min(12)
        uids = [uid for b in res.batches for _, uid in b]
        assert len(set(uids)) == 12
