"""Unit tests for the driver's command engine: one command in flight.

A backend call returns once its command completed, so three stores stay
bounded by construction and are pinned here:

* the worker ``Comm`` stash (early frames of peers that started a
  command first) drains to empty once the command completes -- stale
  keys of older seqs are evicted when a newer command starts;
* the driver ``_blob`` cache is LRU-bounded at ``_BLOB_CACHE``;
* the driver/worker shm pools recycle by consumer release flags gated
  on the ack frontier: :meth:`ShmPool.release_through` recycles a
  segment only once every block in it is flagged dead and nothing
  newer than the frontier has allocated in it.

Plus the engine mechanics themselves: ``submit_spmd`` returns resolved
values, the ack frontier is the last seq collected, a result for any
other seq is a protocol error, and :class:`PendingValues` settles
idempotently.
"""

import functools

import numpy as np
import pytest

from repro.machine import Machine
from repro.machine.backends import MultiprocessingBackend
from repro.machine.backends.base import PendingValues
from repro.machine.backends.shm import ShmPool, new_token, pool_family


# ----------------------------------------------------------------------
# Module-level worker callbacks (picklable)
# ----------------------------------------------------------------------

def _make_vals(rank: int, base):
    return (np.arange(4, dtype=np.float64) + base * (rank + 1), None)


def _bump(rank: int, vals, inc):
    vals += inc
    return float(vals.sum())


def _noop(rank: int, tag):
    return tag


def _fail_on(rank: int, bad):
    if rank == bad:
        raise ValueError("boom")
    return rank


# ----------------------------------------------------------------------
# PendingValues
# ----------------------------------------------------------------------

class TestPendingValues:
    def test_thunk_runs_once(self):
        calls = []

        def settle():
            calls.append(1)
            return [1, 2, 3]

        pending = PendingValues(settle)
        assert not pending.done
        assert pending.wait() == [1, 2, 3]
        assert pending.done
        assert pending.wait() == [1, 2, 3]
        assert calls == [1]

    def test_resolved_is_immediate(self):
        pending = PendingValues.resolved(("a", "b"))
        assert pending.done
        assert pending.wait() == ("a", "b")


# ----------------------------------------------------------------------
# ShmPool ack-frontier recycling
# ----------------------------------------------------------------------

class TestShmPoolAckRecycling:
    def _pool(self):
        pool = ShmPool(pool_family(new_token()), "d", threshold=16)
        if not pool.enabled:  # pragma: no cover - shm-less platform
            pytest.skip("shared memory unavailable")
        return pool

    def _consume(self, pool, desc, nbytes):
        """Play the receiver: decode the block zero-copy and drop the
        last view, which writes the release flag."""
        name, off, foff = desc
        block = pool.materialize(name, off, nbytes, foff)
        del block

    def test_release_through_gates_on_flags_and_frontier(self):
        pool = self._pool()
        try:
            pool.begin_round(5)
            desc = pool.share(memoryview(b"x" * 64))
            assert desc is not None and desc[1] == desc[2] + 64
            seg = pool._segments[0]
            assert seg.used == 128 and seg.high_round == 5
            pool.release_through(5)  # consumer still holds it: no recycle
            assert seg.used == 128 and seg.pending
            self._consume(pool, desc, 64)  # last view dies -> flag set
            pool.release_through(4)  # frontier behind round 5: no recycle
            assert seg.used == 128
            pool.release_through(5)  # flags and frontier agree: recycle
            assert seg.used == 0 and seg.high_round == 0
        finally:
            pool.close()

    def test_one_outstanding_round_defers_the_segment_recycle(self):
        pool = self._pool()
        try:
            pool.begin_round(3)
            a = pool.share(memoryview(b"a" * 32))
            pool.begin_round(7)
            b = pool.share(memoryview(b"b" * 32))
            self._consume(pool, a, 32)
            self._consume(pool, b, 32)
            pool.release_through(3)  # round 7 shares the segment: stays
            assert pool._segments[0].used > 0
            pool.release_through(7)
            assert pool._segments[0].used == 0
        finally:
            pool.close()

    def test_release_through_without_allocations_is_safe(self):
        pool = self._pool()
        try:
            pool.release_through(0)
            pool.release_through(10)
            assert pool._segments == []
        finally:
            pool.close()


# ----------------------------------------------------------------------
# Driver blob cache bound
# ----------------------------------------------------------------------

class TestBlobCacheBound:
    def test_lru_bound_holds_under_distinct_callbacks(self):
        backend = MultiprocessingBackend(2)
        try:
            for i in range(backend._BLOB_CACHE + 50):
                backend._blob(functools.partial(_noop, tag=i))
            assert len(backend._fn_blobs) <= backend._BLOB_CACHE
        finally:
            backend.close()

    def test_hot_entry_survives_eviction_pressure(self):
        backend = MultiprocessingBackend(2)
        try:
            hot = functools.partial(_noop, tag="hot")
            blob = backend._blob(hot)
            for i in range(backend._BLOB_CACHE - 1):
                backend._blob(functools.partial(_noop, tag=i))
                backend._blob(hot)  # LRU touch keeps it resident
            assert backend._blob(hot) is blob
        finally:
            backend.close()


# ----------------------------------------------------------------------
# Engine mechanics on a live mp pool
# ----------------------------------------------------------------------

class _Results:
    """Stand-in result channel that hands out canned frames."""

    wire_rx = shm_rx = 0

    def __init__(self, frames):
        self.frames = list(frames)

    def get(self, timeout=None, pool=None):
        return self.frames.pop(0)


class TestCommandEngine:
    def test_submit_returns_resolved_values_in_issue_order(self):
        with Machine(p=2, backend="mp") as m:
            backend = m.backend
            refs, pending0 = backend.submit_spmd(
                _make_vals, [], n_out=1, args=[(10,)] * 2
            )
            assert pending0.done
            # per-rank sums after each in-place bump: base sums
            # 10+{0..3}=46 / 20+{0..3}=86, +4*inc each
            expect = [46.0, 86.0]
            for i in range(4):
                _, pending = backend.submit_spmd(
                    _bump, [refs[0]], n_out=0, args=[(i + 1,)] * 2
                )
                assert pending.done
                expect = [e + 4 * (i + 1) for e in expect]
                assert pending.wait() == expect
                assert backend._acked == backend._seq
            assert backend.max_inflight == 1

    def test_coalesced_block_is_a_no_op(self):
        with Machine(p=2, backend="mp") as m:
            backend = m.backend
            sends = backend.driver_sends
            with backend.coalesced():
                pendings = [
                    backend.submit_spmd(_noop, [], args=[(i,)] * 2)[1]
                    for i in range(3)
                ]
                assert all(p.done for p in pendings)
            assert [p.wait() for p in pendings] == [[0, 0], [1, 1], [2, 2]]
            assert backend.driver_sends - sends == 3

    def test_get_chunks_reads_the_mutated_state(self):
        with Machine(p=2, backend="mp") as m:
            backend = m.backend
            refs, _ = backend.submit_spmd(
                _make_vals, [], n_out=1, args=[(10,)] * 2
            )
            for i in range(4):
                backend.submit_spmd(
                    _bump, [refs[0]], n_out=0, args=[(2,)] * 2
                )
            chunks = backend.get_chunks(refs[0])
            np.testing.assert_array_equal(
                chunks[0], np.arange(4, dtype=np.float64) + 10 + 8
            )
            np.testing.assert_array_equal(
                chunks[1], np.arange(4, dtype=np.float64) + 20 + 8
            )

    def test_stash_empty_and_frontier_at_seq(self):
        with Machine(p=3, backend="mp") as m:
            backend = m.backend
            refs, _ = backend.submit_spmd(
                _make_vals, [], n_out=1, args=[(5,)] * 3
            )
            for i in range(5):
                backend.submit_spmd(
                    _bump, [refs[0]], n_out=0, args=[(1,)] * 3
                )
            stats = backend._run(("stats",), [None] * 3)
            assert [s["stash"] for s in stats] == [0, 0, 0]
            assert backend._acked == backend._seq

    def test_ack_frontier_tracks_seq(self):
        with Machine(p=2, backend="mp") as m:
            backend = m.backend
            backend.collective(
                "allreduce", [("allreduce", v, "sum") for v in (1, 2)])
            assert backend._acked == backend._seq
            backend.put_chunks([np.zeros(2), np.ones(2)])  # direct frames
            assert backend._acked == backend._seq

    def test_worker_error_is_collected_and_the_pool_stays_usable(self):
        """A kernel that raises on one rank fails its command once every
        rank answered; the frontier still advances and the next command
        runs on the same pool."""
        with Machine(p=2, backend="mp") as m:
            backend = m.backend
            with pytest.raises(RuntimeError, match="worker 1 failed"):
                backend.run_spmd(_fail_on, [], args=[(1,)] * 2)
            assert backend._acked == backend._seq
            assert not backend.broken
            assert backend.run_spmd(_noop, [], args=[(7,)] * 2)[1] == [7, 7]

    def test_result_for_another_seq_is_a_protocol_error(self):
        backend = MultiprocessingBackend(2)  # never started
        try:
            backend._results = _Results([(0, 4, "ok"), (1, 5, "stray")])
            with pytest.raises(RuntimeError, match="protocol error"):
                backend._collect(4, "spmd")
        finally:
            backend._results = None
            backend.close()
