"""Unit tests for the pipelined command engine's bounded resources.

Under overlapped issue (PRs before this one ran strictly
submit-then-wait) three driver/worker-side stores could in principle
grow with the number of in-flight or historical commands.  These tests
pin the bounds:

* the worker ``Comm`` stash (early frames of run-ahead peers) drains to
  empty once the engine quiesces -- stale keys of older seqs are
  evicted when a newer command starts;
* the driver ``_blob`` cache is LRU-bounded at ``_BLOB_CACHE``;
* the driver/worker shm pools recycle by consumer release flags gated
  on the ack frontier: :meth:`ShmPool.release_through` recycles a
  segment only once every block in it is flagged dead and nothing
  newer than the frontier has allocated in it.

Plus the engine mechanics themselves: futures resolve out of
completion order, ``pipeline_depth`` caps in-flight commands, direct
frames fence, and :class:`PendingValues` settles idempotently.
"""

import functools

import numpy as np
import pytest

from repro.machine import Machine
from repro.machine.backends import MultiprocessingBackend, make_backend
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

class TestPipelinedEngine:
    def test_depth_caps_inflight_and_results_demux(self):
        with Machine(p=2, backend="mp", pipeline_depth=3) as m:
            backend = m.backend
            refs, pending0 = backend.submit_spmd(
                _make_vals, [], n_out=1, args=[(10,)] * 2
            )
            ref = refs[0]
            pendings = [
                backend.submit_spmd(
                    _bump, [ref], n_out=0, args=[(i + 1,)] * 2
                )[1]
                for i in range(6)
            ]
            assert len(backend._inflight) <= backend.pipeline_depth
            assert backend.max_inflight <= backend.pipeline_depth
            pending0.wait()
            # per-rank expected sums after each in-place bump, in seq
            # order: base sums 10+{0..3}=46 / 20+{0..3}=86, +4*inc each
            expect = [46.0, 86.0]
            for i, pending in enumerate(pendings):
                expect = [e + 4 * (i + 1) for e in expect]
                assert pending.wait() == expect
            assert backend.max_inflight > 1
            assert backend._inflight == {}

    def test_depth_one_serializes(self):
        with Machine(p=2, backend="mp", pipeline_depth=1) as m:
            backend = m.backend
            refs, _ = backend.submit_spmd(
                _make_vals, [], n_out=1, args=[(1,)] * 2
            )
            for i in range(3):
                backend.submit_spmd(
                    _bump, [refs[0]], n_out=0, args=[(1,)] * 2
                )
            assert backend.max_inflight == 1

    def test_get_chunks_waits_on_inflight_mutator(self):
        with Machine(p=2, backend="mp") as m:
            backend = m.backend
            refs, _ = backend.submit_spmd(
                _make_vals, [], n_out=1, args=[(10,)] * 2
            )
            for i in range(4):
                backend.submit_spmd(
                    _bump, [refs[0]], n_out=0, args=[(2,)] * 2
                )
            # read through the sanctioned path without waiting the
            # pendings: the dependency tracker must settle the mutators
            chunks = backend.get_chunks(refs[0])
            np.testing.assert_array_equal(
                chunks[0], np.arange(4, dtype=np.float64) + 10 + 8
            )
            np.testing.assert_array_equal(
                chunks[1], np.arange(4, dtype=np.float64) + 20 + 8
            )

    def test_direct_frames_fence_the_pipe(self):
        with Machine(p=2, backend="mp") as m:
            backend = m.backend
            refs, _ = backend.submit_spmd(
                _make_vals, [], n_out=1, args=[(1,)] * 2
            )
            backend.submit_spmd(
                _bump, [refs[0]], n_out=0, args=[(1,)] * 2
            )
            assert backend._inflight
            backend.put_chunks([np.zeros(2), np.ones(2)])  # direct path
            assert backend._inflight == {}

    def test_stash_and_trackers_empty_after_quiesce(self):
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
            # the stats round trip itself fenced nothing -- but by the
            # ordered-completion lemma its results imply all earlier
            # seqs resolved, so the trackers must be empty now
            assert backend._inflight == {}
            assert backend._ref_seq == {}
            assert backend._done_seqs == set()

    def test_ack_frontier_tracks_seq(self):
        with Machine(p=2, backend="mp") as m:
            backend = m.backend
            backend.collective(
                "allreduce", [("allreduce", v, "sum") for v in (1, 2)])
            assert backend._acked == backend._seq

    def test_make_backend_threads_pipeline_depth(self):
        backend = make_backend("mp", 2, pipeline_depth=4)
        try:
            assert backend.pipeline_depth == 4
        finally:
            backend.close()
        sim = make_backend("sim", 2, pipeline_depth=4)  # knob ignored
        assert not sim.is_real

    def test_machine_knob_reaches_backend(self):
        with Machine(p=2, backend="mp", pipeline_depth=2) as m:
            assert m.backend.pipeline_depth == 2
