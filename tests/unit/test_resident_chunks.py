"""Unit tests: the resident-chunk SPMD execution path.

DistArray chunks are pinned behind opaque handles in the execution
backend; per-PE callbacks run where the data lives and only small
values travel.  These tests cover the backend protocol (put/get/free,
``map_resident``, ``run_spmd`` with and without yielded collectives),
the DistArray surface on top of it, by-value shipping of lambdas and
closures with the driver fallback for what cannot be rebuilt in a
worker, and the lifecycle guarantees (reads after close, idempotent
close, atexit guard registration).
"""

import os
import threading

import numpy as np
import pytest

from repro.machine import ChunkRef, DistArray, Machine

BACKENDS = ["sim", "mp"]


def _chunk_step(rank, chunk):
    return (chunk * 2, chunk.sum())


def _value_step(rank, chunk, offset):
    return int(chunk.sum()) + offset


def _gathered_step(rank, chunk, offset):
    value = _value_step(rank, chunk, offset)
    return value, (yield ("allgather", value))


def _summed_step(rank, chunk, offset):
    value = _value_step(rank, chunk, offset)
    return value, (yield ("allreduce", value, "sum"))


def _split_step(rank, chunk, pivot):
    lo, hi = chunk[chunk < pivot], chunk[chunk >= pivot]
    return lo, hi, (lo.size, hi.size)


def _spmd_kernel(rank, chunk, scale):
    total = yield ("allreduce", int(chunk.sum()), "sum")
    gathered = yield ("allgather", rank * scale)
    return (chunk + total, (total, tuple(gathered)))


def _spmd_alltoall_kernel(rank, chunk, p):
    received = yield ("alltoall", [(rank, j) for j in range(p)])
    return tuple(received)


def _spmd_sendrecv_kernel(rank, chunk, p):
    # ring exchange: everyone sends one payload to rank+1
    row = [None] * p
    row[(rank + 1) % p] = ("from", rank)
    srcs = [(rank - 1) % p]
    received = yield ("sendrecv", row, srcs)
    return tuple(received)


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackendResidentProtocol:
    def _machine(self, backend, p=3):
        return Machine(p=p, seed=11, backend=backend)

    def test_put_get_roundtrip(self, backend):
        with self._machine(backend) as m:
            chunks = [np.arange(i + 2) for i in range(3)]
            ref = m.backend.put_chunks(chunks)
            assert isinstance(ref, ChunkRef)
            out = m.backend.get_chunks(ref)
            for a, b in zip(chunks, out):
                np.testing.assert_array_equal(a, b)

    def test_map_resident_values_only(self, backend):
        with self._machine(backend) as m:
            ref = m.backend.put_chunks([np.full(4, i) for i in range(3)])
            _, values, collected = m.backend.map_resident(
                _value_step, [ref], 0, args=[(10,), (20,), (30,)]
            )
            assert values == [10, 24, 38]
            assert collected is None

    def test_map_resident_with_outputs(self, backend):
        with self._machine(backend) as m:
            ref = m.backend.put_chunks([np.arange(6) for _ in range(3)])
            out_refs, values, _ = m.backend.map_resident(
                _split_step, [ref], 2, args=[(3,)] * 3
            )
            assert values == [(3, 3)] * 3
            lo = m.backend.get_chunks(out_refs[0])
            hi = m.backend.get_chunks(out_refs[1])
            for c in lo:
                np.testing.assert_array_equal(c, [0, 1, 2])
            for c in hi:
                np.testing.assert_array_equal(c, [3, 4, 5])

    def test_value_and_collective_in_one_step(self, backend):
        with self._machine(backend) as m:
            ref = m.backend.put_chunks([np.full(2, i + 1) for i in range(3)])
            _, out = m.backend.run_spmd(_gathered_step, [ref], args=[(0,)] * 3)
            assert [v for v, _ in out] == [2, 4, 6]
            assert [g for _, g in out] == [[2, 4, 6]] * 3
            _, out = m.backend.run_spmd(_summed_step, [ref], args=[(0,)] * 3)
            assert [t for _, t in out] == [12] * 3

    def test_run_spmd_generator(self, backend):
        with self._machine(backend) as m:
            ref = m.backend.put_chunks([np.full(2, i) for i in range(3)])
            out_refs, values = m.backend.run_spmd(
                _spmd_kernel, [ref], n_out=1, args=[(2,)] * 3
            )
            # allreduce of chunk sums 0+2+4 = 6; allgather of rank*2
            assert values == [(6, (0, 2, 4))] * 3
            out = m.backend.get_chunks(out_refs[0])
            for rank, c in enumerate(out):
                np.testing.assert_array_equal(c, np.full(2, rank) + 6)

    def test_run_spmd_alltoall(self, backend):
        with self._machine(backend) as m:
            p = m.p
            ref = m.backend.put_chunks([np.zeros(1)] * p)
            _, values = m.backend.run_spmd(
                _spmd_alltoall_kernel, [ref], args=[(p,)] * p
            )
            for j in range(p):
                assert values[j] == tuple((i, j) for i in range(p))

    def test_run_spmd_sendrecv(self, backend):
        with self._machine(backend) as m:
            p = m.p
            ref = m.backend.put_chunks([np.zeros(1)] * p)
            _, values = m.backend.run_spmd(
                _spmd_sendrecv_kernel, [ref], args=[(p,)] * p
            )
            for j in range(p):
                expected = [None] * p
                expected[(j - 1) % p] = ("from", (j - 1) % p)
                assert values[j] == tuple(expected)

    def test_free_reclaims_slots(self, backend):
        import gc

        with self._machine(backend) as m:
            ref = m.backend.put_chunks([np.arange(3)] * 3)
            ref_id = ref.id
            del ref
            gc.collect()
            # sim frees immediately; mp piggybacks on the next command
            m.allreduce([1, 1, 1])
            if m.backend.is_real:
                stats = m.backend._run(("stats",), [None] * 3)
                assert all(s["resident"] == 0 for s in stats)
            else:
                assert ref_id not in m.backend._store


@pytest.mark.parametrize("backend", ["mp", "tcp"])
class TestClosureCallbacks:
    """Lambdas and closures ship by value: they run where the data
    lives, in one command, and lockstep tracing sees them."""

    def test_closure_runs_in_the_workers(self, backend):
        bias = 7
        with Machine(p=3, seed=12, backend=backend) as m:
            da = DistArray(m, [np.arange(3) + r for r in range(3)])
            da.map_values(_value_step, args=[(0,)] * 3)  # pins the chunks
            sends = m.backend.driver_sends
            pids = da.map_values(lambda rank, c: (os.getpid(), int(c.sum()) + bias))
            assert m.backend.driver_sends == sends + 1
            assert "get" not in m.backend.transport_bytes()
            assert [v for _, v in pids] == [10, 13, 16]
            assert len({pid for pid, _ in pids}) == 3
            assert os.getpid() not in {pid for pid, _ in pids}
            doubled = da.map_chunks(lambda rank, c: c * 2 + bias)
            assert "get" not in m.backend.transport_bytes()
            np.testing.assert_array_equal(doubled.chunks[2], [11, 13, 15])

    def test_closure_generator_kernel(self, backend):
        scale = 3

        def kernel(rank, chunk):
            total = yield ("allreduce", rank * scale, "sum")
            return os.getpid(), total

        with Machine(p=2, seed=12, backend=backend) as m:
            ref = m.backend.put_chunks([np.arange(2)] * 2)
            _, values = m.backend.run_spmd(kernel, [ref])
            assert [t for _, t in values] == [3, 3]
            assert os.getpid() not in {pid for pid, _ in values}

    def test_rebound_cell_is_reshipped(self, backend):
        """The blob of a by-value callback is not cached: sim reads the
        cell at call time, and so must the workers."""
        k = 1
        fn = lambda rank, c: int(c.sum()) * k  # noqa: E731
        with Machine(p=2, seed=12, backend=backend) as m:
            da = DistArray(m, [np.arange(3), np.arange(3) + 1])
            assert da.map_values(fn) == [3, 6]
            k = 5
            assert da.map_values(fn) == [15, 30]

    def test_divergent_closure_is_traced(self, backend):
        from repro.machine.backends import LockstepError

        odd = 1

        def swapped(rank, chunk):
            s = float(chunk.sum())
            if rank == odd:
                return (yield ("allreduce", s, "sum"))
            return (yield ("allgather", s))

        with Machine(p=2, seed=12, backend=backend) as m:
            ref = m.backend.put_chunks([np.arange(2)] * 2)
            with pytest.raises(LockstepError, match=r"rank\(s\) \[1\]"):
                m.backend.run_spmd(swapped, [ref])
            assert m.allreduce([1, 2]) == [3, 3]


@pytest.mark.parametrize("backend", ["mp", "tcp"])
class TestUnpicklableFallback:
    """A callback that cannot be rebuilt in a worker (a cell holding a
    lock) still runs -- in the driver, decided before a seq is spent."""

    def test_map_resident_falls_back(self, backend):
        lock = threading.Lock()

        def fn(rank, c):
            with lock:
                return (os.getpid(), int(c.sum()) + 7)

        with Machine(p=2, seed=12, backend=backend) as m:
            ref = m.backend.put_chunks([np.arange(3), np.arange(3) + 1])
            seq = m.backend._seq
            _, values, _ = m.backend.map_resident(fn, [ref], 0)
            assert values == [(os.getpid(), 10), (os.getpid(), 13)]
            assert m.backend._seq == seq == m.backend._acked

    def test_run_spmd_falls_back(self, backend):
        lock = threading.Lock()

        def kernel(rank, chunk):
            with lock:  # not across the yield: in process the ranks interleave
                mine = rank * 3
            total = yield ("allreduce", mine, "sum")
            return (chunk + total, total)

        with Machine(p=2, seed=12, backend=backend) as m:
            ref = m.backend.put_chunks([np.arange(2)] * 2)
            refs, values = m.backend.run_spmd(kernel, [ref], n_out=1)
            assert values == [3, 3]
            np.testing.assert_array_equal(
                m.backend.get_chunks(refs[0])[1], [3, 4])
            assert m.allreduce([1, 2]) == [3, 3]


@pytest.mark.parametrize("backend", BACKENDS)
class TestDistArrayResident:
    def test_chunks_property_fetches(self, backend):
        with Machine(p=2, seed=13, backend=backend) as m:
            da = DistArray(m, [np.array([3, 1]), np.array([2, 5])])
            sorted_da = da.sort_local()
            np.testing.assert_array_equal(sorted_da.chunks[0], [1, 3])
            np.testing.assert_array_equal(sorted_da.chunks[1], [2, 5])
            assert list(sorted_da.sizes()) == [2, 2]

    def test_negate_roundtrip(self, backend):
        with Machine(p=2, seed=13, backend=backend) as m:
            da = DistArray(m, [np.array([1, -2]), np.array([0, 4])])
            neg = da.negate()
            np.testing.assert_array_equal(neg.concat(), [-1, 2, 0, -4])
            assert neg.dtype == da.dtype

    def test_map_values_and_collect(self, backend):
        with Machine(p=2, seed=13, backend=backend) as m:
            da = DistArray(m, [np.arange(4), np.arange(4) + 10])
            values = da.map_values(_value_step, args=[(0,), (0,)])
            assert values == [6, 46]
            ref, args = da._ensure_ref(), [(0,), (0,)]
            _, out = m.backend.run_spmd(_gathered_step, [ref], args=args)
            assert [v for v, _ in out] == [6, 46] and out[0][1] == [6, 46]
            _, out = m.backend.run_spmd(_summed_step, [ref], args=args)
            assert out[0][1] == 52

    def test_sizes_never_fetch(self, backend):
        with Machine(p=2, seed=13, backend=backend) as m:
            da = DistArray.from_global(m, np.arange(10))
            out = da.map_chunks(lambda r, c: c[c % 2 == 0])
            # sizes are tracked driver-side even for resident outputs
            assert int(out.sizes().sum()) == out.global_size == 5

    def test_bernoulli_sample_matches_counter_addressed_draws(self, backend):
        from repro.common.sampling import bernoulli_sample_indices
        from repro.machine.ctrrng import DrawAddress
        from tests.support.dht_runner import sample

        with Machine(p=2, seed=14, backend=backend) as m:
            chunks = [np.arange(100), np.arange(100, 200)]
            da = DistArray(m, chunks)
            samples = sample(m, da, 0.2)
            # a fresh machine's first allocation is (seed, seq=0); the
            # kernel draws from each rank's counter-addressed stream
            addr = DrawAddress(14, 0)
            for i in range(2):
                idx = bernoulli_sample_indices(addr.local(i), 100, 0.2)
                np.testing.assert_array_equal(samples[i], chunks[i][idx])


class TestLifecycle:
    def test_results_readable_after_close(self):
        with Machine(p=2, seed=15, backend="mp") as m:
            da = DistArray(m, [np.array([3, 1, 2]), np.array([9, 7, 8])])
            out = da.sort_local()
        # the worker pool is gone; the ref's lineage replays in process
        np.testing.assert_array_equal(out.chunks[0], [1, 2, 3])
        np.testing.assert_array_equal(out.chunks[1], [7, 8, 9])

    def test_machine_context_manager_closes_backend(self):
        with Machine(p=2, seed=15, backend="mp") as m:
            m.allreduce([1, 2])
        assert m.backend.closed

    def test_close_idempotent_even_before_start(self):
        m = Machine(p=2, seed=15, backend="mp")
        m.close()
        m.close()
        assert m.backend.closed

    def test_atexit_guard_tracks_started_pools(self):
        import repro.machine.backends.runtime as rt_mod

        with Machine(p=2, seed=15, backend="mp") as m:
            m.allreduce([1, 2])
            assert m.backend in rt_mod._LIVE_POOLS
            assert rt_mod._ATEXIT_REGISTERED
        assert m.backend not in rt_mod._LIVE_POOLS

    def test_leaked_pool_closed_by_guard(self):
        import repro.machine.backends.runtime as rt_mod

        m = Machine(p=2, seed=15, backend="mp")
        m.allreduce([1, 2])
        assert m.backend in rt_mod._LIVE_POOLS
        rt_mod._close_leaked_pools()
        assert m.backend.closed
