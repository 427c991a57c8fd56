"""The zero-copy data plane: out-of-band framing + shared-memory lane.

Covers the mp transport's payload routing end to end: bit-identical
delivery of large/odd payloads over the shared-memory route, the size
threshold boundary, the byte-accounting counters the benches report,
and the segment lifecycle (nothing survives ``close()``, not even for
pools whose workers were killed).
"""

import os

import numpy as np
import pytest

from repro.machine import Machine
from repro.machine.backends import MultiprocessingBackend
from repro.machine.backends.shm import (
    DEFAULT_THRESHOLD,
    ShmPool,
    env_threshold,
    new_token,
    pool_family,
    segment_names,
)

from tests.support import listp

#: a tiny threshold makes every array payload ride shared memory without
#: needing megabyte test inputs
TINY = 256


# ----------------------------------------------------------------------
# Module-level worker callbacks (picklable for the mp backend)
# ----------------------------------------------------------------------

def _make_big(rank: int, n: int):
    """Produce a worker-resident array so a later fetch must really
    cross the transport (no driver-side alias exists)."""
    return (np.arange(n, dtype=np.float64) * (rank + 1), None)


def _rotate_spmd(rank: int, chunk, p: int):
    """One sparse sendrecv hop: every rank ships its chunk to rank+1."""
    row = [None] * p
    row[(rank + 1) % p] = chunk + rank
    got = yield ("sendrecv", row, [(rank - 1) % p])
    return got[(rank - 1) % p], None


def _alltoall_spmd(rank: int, chunk, p: int):
    """Generic personalized exchange of chunk slices."""
    parts = np.array_split(chunk, p)
    got = yield ("alltoall", [parts[j] + rank for j in range(p)])
    return np.concatenate(got), None


def _fetch_ref(backend, ref):
    """Fetch chunks through the transport, defeating the driver-side
    alias ``put_chunks`` keeps for driver-born data."""
    backend._store.pop(ref.id, None)
    return backend.get_chunks(ref)


def _roundtrip(backend, chunks):
    ref = backend.put_chunks(chunks)
    return _fetch_ref(backend, ref)


# ----------------------------------------------------------------------
# Payload parity over the shared-memory route
# ----------------------------------------------------------------------

class TestShmPayloadParity:
    @pytest.mark.parametrize(
        "make",
        [
            lambda n: np.linspace(0.0, 1.0, n),                 # float64
            lambda n: np.arange(n, dtype=np.int64) - n // 2,     # int64
            lambda n: np.arange(2 * n, dtype=np.float64)[::2],   # non-contiguous
            lambda n: np.empty(0, dtype=np.float64),             # zero-length
        ],
        ids=["float64", "int64", "non_contiguous", "zero_length"],
    )
    def test_chunk_roundtrip_bit_identical(self, make):
        n = 9000  # 72 kB of float64: above the default threshold too
        with MultiprocessingBackend(2, shm_threshold=TINY) as backend:
            chunks = [make(n), make(n) * 3 if make(n).size else make(n)]
            got = _roundtrip(backend, chunks)
            for a, b in zip(chunks, got):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    def test_mixed_lane_frame(self):
        """One message carrying below- and above-threshold buffers plus
        plain objects reassembles exactly."""
        with MultiprocessingBackend(2, shm_threshold=1 << 10) as backend:
            chunks = [
                {"big": np.arange(4096, dtype=np.float64), "small": np.ones(3),
                 "meta": ("tag", 7)},
                {"big": np.zeros(4096), "small": np.arange(5), "meta": None},
            ]
            got = _roundtrip(backend, chunks)
            for a, b in zip(chunks, got):
                assert a["meta"] == b["meta"]
                np.testing.assert_array_equal(a["big"], b["big"])
                np.testing.assert_array_equal(a["small"], b["small"])

    def test_worker_produced_payload_fetch(self):
        """Worker-to-driver results ride the workers' own pools."""
        n = 20000
        with MultiprocessingBackend(3, shm_threshold=TINY) as backend:
            refs, _, _ = backend.map_resident(
                _make_big, [], n_out=1, args=[(n,)] * 3
            )
            got = backend.get_chunks(refs[0])
            for rank, arr in enumerate(got):
                np.testing.assert_array_equal(
                    arr, np.arange(n, dtype=np.float64) * (rank + 1)
                )
            assert backend.transport_bytes()["get"]["shm"] > 0

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_spmd_sendrecv_parity_with_sim(self, p):
        sim = Machine(p=p, seed=3)
        with Machine(p=p, seed=3, backend=MultiprocessingBackend(
                p, shm_threshold=TINY)) as real:
            rng = np.random.default_rng(8)
            chunks = [rng.random(5000) for _ in range(p)]
            ref_s = sim.backend.put_chunks(chunks)
            ref_r = real.backend.put_chunks([c.copy() for c in chunks])
            out_s, _ = sim.backend.run_spmd(
                _rotate_spmd, [ref_s], n_out=1, args=[(p,)] * p
            )
            out_r, _ = real.backend.run_spmd(
                _rotate_spmd, [ref_r], n_out=1, args=[(p,)] * p
            )
            for a, b in zip(sim.backend.get_chunks(out_s[0]),
                            _fetch_ref(real.backend, out_r[0])):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("p", [2, 4])
    def test_spmd_alltoall_parity_with_sim(self, p):
        sim = Machine(p=p, seed=4)
        with Machine(p=p, seed=4, backend=MultiprocessingBackend(
                p, shm_threshold=TINY)) as real:
            rng = np.random.default_rng(9)
            chunks = [rng.random(4000) for _ in range(p)]
            ref_s = sim.backend.put_chunks(chunks)
            ref_r = real.backend.put_chunks([c.copy() for c in chunks])
            out_s, _ = sim.backend.run_spmd(
                _alltoall_spmd, [ref_s], n_out=1, args=[(p,)] * p
            )
            out_r, _ = real.backend.run_spmd(
                _alltoall_spmd, [ref_r], n_out=1, args=[(p,)] * p
            )
            for a, b in zip(sim.backend.get_chunks(out_s[0]),
                            _fetch_ref(real.backend, out_r[0])):
                np.testing.assert_array_equal(a, b)

    def test_value_collective_large_payload(self):
        """Large values in plain collectives (broadcast/allgather) ride
        the same lanes with bit-identical results."""
        with Machine(p=4, seed=5, backend=MultiprocessingBackend(
                4, shm_threshold=TINY)) as m:
            big = np.arange(6000, dtype=np.float64)
            out = listp.broadcast(m, big, root=2)
            for arr in out:
                np.testing.assert_array_equal(arr, big)
            gathered = m.allgather([big * i for i in range(4)])
            for row in gathered:
                for i, arr in enumerate(row):
                    np.testing.assert_array_equal(arr, big * i)


# ----------------------------------------------------------------------
# Threshold routing + byte accounting
# ----------------------------------------------------------------------

class TestThresholdRouting:
    def test_boundary_just_below_stays_on_the_wire(self):
        threshold = 1 << 12
        with MultiprocessingBackend(2, shm_threshold=threshold) as backend:
            below = np.zeros(threshold // 8 - 1, dtype=np.float64)
            _roundtrip(backend, [below, below.copy()])
            tb = backend.transport_bytes()
            assert tb["put"]["shm"] == 0
            assert tb["get"]["shm"] == 0
            assert tb["put"]["wire"] > 2 * below.nbytes  # rode the pipe

    def test_boundary_at_cutoff_rides_shm(self):
        threshold = 1 << 12
        with MultiprocessingBackend(2, shm_threshold=threshold) as backend:
            at = np.zeros(threshold // 8, dtype=np.float64)
            _roundtrip(backend, [at, at.copy()])
            tb = backend.transport_bytes()
            assert tb["put"]["shm"] == 2 * at.nbytes
            assert tb["get"]["shm"] == 2 * at.nbytes
            # only descriptors crossed the pipe
            assert tb["put"]["wire"] < at.nbytes

    def test_disabled_pool_keeps_everything_inline(self):
        with MultiprocessingBackend(2, shm_threshold=None) as backend:
            assert not backend.supports_shm
            big = np.arange(50000, dtype=np.float64)
            got = _roundtrip(backend, [big, big * 2])
            np.testing.assert_array_equal(got[1], big * 2)
            tb = backend.transport_bytes()
            assert tb["put"]["shm"] == tb["get"]["shm"] == 0
            assert segment_names(backend._shm_family) == []

    def test_zero_threshold_disables_like_the_env_knob(self):
        """``shm_threshold=0`` must disable the lane (not share every
        tiny buffer), matching the REPRO_SHM_THRESHOLD convention."""
        backend = MultiprocessingBackend(2, shm_threshold=0)
        try:
            assert backend.shm_threshold is None
            assert not backend.supports_shm
        finally:
            backend.close()
        pool = ShmPool(pool_family(new_token()), "d", threshold=0)
        assert pool.share(memoryview(b"xy")) is None
        pool.close()

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_THRESHOLD", "0")
        assert env_threshold() is None
        backend = MultiprocessingBackend(2)
        assert backend.shm_threshold is None and not backend.supports_shm
        backend.close()
        monkeypatch.setenv("REPRO_SHM_THRESHOLD", "4096")
        assert env_threshold() == 4096
        backend = MultiprocessingBackend(2)
        assert backend.shm_threshold == 4096
        backend.close()
        monkeypatch.delenv("REPRO_SHM_THRESHOLD")
        assert env_threshold() == DEFAULT_THRESHOLD

    def test_capability_flags(self):
        from repro.machine.backends import SimBackend

        sim = SimBackend(2)
        assert not sim.supports_shm and not sim.supports_oob_pickle
        assert sim.transport_bytes() == {}
        with MultiprocessingBackend(2) as backend:
            assert backend.supports_oob_pickle and backend.supports_shm

    def test_machine_mirrors_transport_into_metrics(self):
        with Machine(p=2, seed=6, backend=MultiprocessingBackend(
                2, shm_threshold=TINY)) as m:
            big = np.arange(8000, dtype=np.float64)
            listp.broadcast(m, big)
            m.sync_transport()
            assert m.metrics.shm_bytes.get("spmd", 0) > 0
            first = dict(m.metrics.shm_bytes)
            m.sync_transport()  # repeated syncs must not double-count
            assert m.metrics.shm_bytes == first
            rep = m.report()
            assert rep.shm_bytes >= first["spmd"]
            assert rep.wire_bytes > 0


# ----------------------------------------------------------------------
# Segment lifecycle
# ----------------------------------------------------------------------

#: the liveness assertions below watch /dev/shm directly, which only
#: Linux exposes (segment_names() degrades to [] elsewhere)
_observable = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="/dev/shm not observable"
)


class TestSegmentLifecycle:
    @_observable
    def test_pool_share_materialize_roundtrip(self):
        pool = ShmPool(pool_family(new_token()), "d", threshold=64)
        try:
            payload = os.urandom(5000)
            assert pool.share(memoryview(b"tiny")) is None  # below cutoff
            name, offset, flag_off = pool.share(memoryview(payload))
            assert offset == flag_off + 64  # data follows the block header
            assert bytes(pool.materialize(name, offset, len(payload))) == payload
            # round recycling reuses the segment in place
            pool.release_round()
            name2, offset2, flag2 = pool.share(memoryview(payload))
            assert (name2, offset2, flag2) == (name, offset, flag_off)
        finally:
            pool.close()
        assert segment_names(pool.family) == []

    def test_release_round_retains_the_largest_segments(self):
        """Trimming drops small idle segments, never the hot big ones --
        steady-state rounds keep reusing stable segment names."""
        from repro.machine.backends.shm import _MAX_SEGMENTS, _SEGMENT_MIN

        pool = ShmPool(pool_family(new_token()), "d", threshold=64)
        try:
            big = memoryview(bytearray(2 * _SEGMENT_MIN))
            big_name = pool.share(big)[0]
            for _ in range(_MAX_SEGMENTS + 2):  # overflow with default-size segs
                pool.share(memoryview(bytearray(_SEGMENT_MIN)))
            pool.release_round()
            names = {seg.shm.name for seg in pool._segments}
            assert len(names) == _MAX_SEGMENTS
            assert big_name in names  # the largest survived the trim
            # and the next big share reuses it in place
            assert pool.share(big)[0] == big_name
        finally:
            pool.close()

    def test_attach_cache_evicts_least_recently_used(self, monkeypatch):
        """A hot attachment must survive a parade of one-shot names."""
        from repro.machine.backends import shm as shm_mod

        monkeypatch.setattr(shm_mod, "_MAX_ATTACHED", 3)
        owners = [ShmPool(pool_family(new_token()), f"o{i}", threshold=1)
                  for i in range(5)]  # distinct pools -> distinct segment names
        reader = ShmPool(pool_family(new_token()), "r", threshold=1)
        try:
            hot_name, hot_off, _ = owners[0].share(memoryview(b"hot payload"))
            reader.materialize(hot_name, hot_off, 11)
            for owner in owners[1:]:
                name, off, _ = owner.share(memoryview(b"cold"))
                reader.materialize(name, off, 4)
                # touching hot between one-shot names keeps it most recent
                reader.materialize(hot_name, hot_off, 11)
            assert hot_name in reader._attached
            assert len(reader._attached) <= 3
        finally:
            reader.close()
            for owner in owners:
                owner.close()

    @_observable
    def test_no_segments_survive_close(self):
        with MultiprocessingBackend(2, shm_threshold=TINY) as backend:
            family = backend._shm_family
            big = np.arange(30000, dtype=np.float64)
            _roundtrip(backend, [big, big + 1])  # driver + worker segments
            assert segment_names(family)  # live while the pool runs
        assert segment_names(family) == []

    @_observable
    def test_killed_pool_segments_are_reaped(self):
        backend = MultiprocessingBackend(2, shm_threshold=TINY)
        family = backend._shm_family
        big = np.arange(30000, dtype=np.float64)
        _roundtrip(backend, [big, big + 1])
        assert segment_names(family)
        # kill the workers uncleanly: their pools never run close()
        for w in backend._workers:
            w.terminate()
            w.join(timeout=5.0)
        backend.close()  # the reaping backstop
        assert segment_names(family) == []

    @_observable
    def test_zero_copy_block_aliases_the_segment(self):
        """A flagged materialize returns a live view of the owner's
        segment, not a copy."""
        pool = ShmPool(pool_family(new_token()), "d", threshold=16)
        try:
            payload = bytes(range(256)) * 32
            name, off, foff = pool.share(memoryview(payload))
            block = pool.materialize(name, off, len(payload), foff)
            assert isinstance(block, np.ndarray)
            assert bytes(block) == payload
            seg = pool._segments[0]
            seg.shm.buf[off] = (payload[0] + 1) % 256  # write as the owner
            assert int(block[0]) == (payload[0] + 1) % 256  # the view sees it
        finally:
            pool.close()

    @_observable
    def test_legacy_descriptor_materializes_a_copy(self):
        pool = ShmPool(pool_family(new_token()), "d", threshold=16)
        try:
            name, off, _ = pool.share(memoryview(b"q" * 256))
            out = pool.materialize(name, off, 256)
            assert isinstance(out, bytearray)
            out[0] = 0  # private memory: the segment is untouched
            assert pool._segments[0].shm.buf[off] == ord("q")
        finally:
            pool.close()

    @_observable
    def test_release_flag_fires_on_last_deref(self):
        """The block stays pending while any alias of the zero-copy
        carrier is alive; the last deref flags it and the owner
        recycles."""
        pool = ShmPool(pool_family(new_token()), "d", threshold=16)
        try:
            name, off, foff = pool.share(memoryview(b"z" * 128))
            seg = pool._segments[0]
            block = pool.materialize(name, off, 128, foff)
            pool.release_through(10)  # live view: no recycle
            assert seg.used and seg.pending
            view = memoryview(block)  # a second alias pins it too
            del block
            pool.release_through(10)
            assert seg.pending
            view.release()
            del view
            pool.release_through(10)  # last alias gone -> flag -> recycle
            assert seg.used == 0 and not seg.pending
        finally:
            pool.close()

    def test_resident_zero_copy_chunks_survive_later_rounds(self):
        """Workers keep decoded put-payloads as zero-copy views of the
        driver's segments; later rounds must never recycle over them."""
        n = 20000
        with MultiprocessingBackend(2, shm_threshold=TINY) as backend:
            keep = [np.arange(n, dtype=np.float64) * (r + 1) for r in range(2)]
            ref = backend.put_chunks([c.copy() for c in keep])
            # churn: enough later traffic that a wrongly-recycled block
            # would be overwritten
            for i in range(8):
                backend.put_chunks([np.full(n, float(i)),
                                    np.full(n, float(-i))])
            got = _fetch_ref(backend, ref)
            for a, b in zip(keep, got):
                np.testing.assert_array_equal(a, b)

    def test_many_rounds_recycle_driver_segments(self):
        """Release flags + the ack frontier keep the driver pool's
        footprint bounded across many rounds."""
        with Machine(p=2, seed=11, backend=MultiprocessingBackend(
                2, shm_threshold=TINY)) as m:
            big = np.arange(1 << 17, dtype=np.float64)  # 1 MiB payload
            for i in range(12):
                out = listp.broadcast(m, big * i)
                del out
            assert len(m.backend._pool._segments) <= 3
        assert segment_names(m.backend._shm_family) == []

    def test_share_prefaults_each_fresh_page_once(self, monkeypatch):
        """A block populates exactly the page-aligned range from its
        segment's mark to its own end; later blocks populate only pages
        past the mark, a recycled segment none, and the mark stops at
        the segment's capacity."""
        from repro.machine.backends import shm as shm_mod
        from repro.machine.backends.shm import _PAGE, _SEGMENT_MIN

        calls = []
        real = shm_mod._prefault

        def recording(shm, start, stop):
            calls.append((shm.name, start, stop))
            real(shm, start, stop)

        monkeypatch.setattr(shm_mod, "_prefault", recording)
        pool = ShmPool(pool_family(new_token()), "d", threshold=64)
        try:
            payload = os.urandom(5000)
            name, off, foff = pool.share(memoryview(payload))
            seg = pool._segments[0]
            assert (foff, off) == (0, 64)
            assert calls == [(name, 0, 2 * _PAGE)]  # covers bytes 0..5064
            assert seg.populated == 2 * _PAGE
            # the next block starts inside the populated second page:
            # only the pages past the mark up to its end are populated
            _, off2, foff2 = pool.share(memoryview(payload))
            end2 = off2 + len(payload)
            assert foff2 < 2 * _PAGE < end2 <= 3 * _PAGE
            assert calls[1:] == [(name, 2 * _PAGE, 3 * _PAGE)]
            # a block that ends below the mark populates nothing
            pool.share(memoryview(payload[:100]))
            assert len(calls) == 2
            # a recycled segment reuses its populated pages as they are
            pool.release_round()
            assert pool.share(memoryview(payload))[0] == name
            assert pool.share(memoryview(payload))[0] == name
            assert len(calls) == 2
            # a segment sized to one odd block: the mark stops at its
            # capacity, not at the page boundary past it
            big = memoryview(bytearray(_SEGMENT_MIN + 1))
            big_name = pool.share(big)[0]
            big_seg = next(s for s in pool._segments if s.shm.name == big_name)
            assert big_seg.capacity % _PAGE != 0
            assert calls[2:] == [(big_name, 0, big_seg.capacity)]
            for seg in pool._segments:
                assert seg.used <= seg.populated <= seg.capacity
        finally:
            pool.close()

    @pytest.mark.parametrize("advice", [None, 0x7FFF],
                             ids=["not-linux", "refused"])
    def test_share_falls_back_when_prefault_is_unavailable(self, monkeypatch,
                                                           advice):
        """Without the advice (another platform) or when the kernel
        refuses it (an unknown advice value raises ``OSError``), the copy
        faults its pages in itself and the consumer reads identical
        bytes."""
        from repro.machine.backends import shm as shm_mod

        monkeypatch.setattr(shm_mod, "_MADV_POPULATE_WRITE", advice)
        pool = ShmPool(pool_family(new_token()), "d", threshold=64)
        try:
            payload = os.urandom(3 << 20)
            name, off, foff = pool.share(memoryview(payload))
            if advice is not None:
                with pytest.raises(OSError):
                    pool._segments[0].shm._mmap.madvise(advice, 0, 4096)
            block = pool.materialize(name, off, len(payload), foff)
            assert bytes(block) == payload
            del block
        finally:
            pool.close()

    def test_prefaulted_round_trip_keeps_bytes_and_counts(self):
        """A 5 MiB put -> get round trip on a real pool is
        byte-identical, and each direction counts exactly its payload on
        the shm lane (the figures before the prefault existed)."""
        nbytes = 5 << 20
        big = np.random.default_rng(3).integers(
            0, 1 << 62, size=nbytes // 8, dtype=np.int64)
        with MultiprocessingBackend(2) as backend:
            got = _roundtrip(backend, [big, big[:10].copy()])
            assert got[0].tobytes() == big.tobytes()
            assert got[1].tobytes() == big[:10].tobytes()
            tb = backend.transport_bytes()
            assert tb["put"]["shm"] == nbytes  # driver shm_tx
            assert tb["get"]["shm"] == nbytes  # driver shm_rx
            worker_tx = backend.worker_transport_counts()
            assert [w["shm_tx"] for w in worker_tx] == [nbytes, 0]

    @_observable
    def test_machine_close_reaps(self):
        m = Machine(p=2, seed=7, backend=MultiprocessingBackend(
            2, shm_threshold=TINY))
        family = m.backend._shm_family
        _roundtrip(m.backend, [np.arange(20000.0), np.arange(20000.0) * 2])
        m.close()
        assert segment_names(family) == []


# ----------------------------------------------------------------------
# Soak: the shm lane stays bounded over many cycles on one pool
# ----------------------------------------------------------------------

def _driver_rss_mib() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise AssertionError("no VmRSS line")  # pragma: no cover


class TestShmSoak:
    @pytest.mark.skipif(not os.path.isdir("/dev/shm")
                        or not os.path.exists("/proc/self/status"),
                        reason="/dev/shm or /proc not observable")
    def test_upload_redistribute_fetch_cycles_stay_bounded(self):
        """200 cycles of upload -> ``redistribute`` -> fetch on ~1 MiB
        chunks, every result dropped before the next cycle: once warm,
        the pool family's segment count and the driver's RSS stay flat,
        and ``close()`` leaves no segment behind."""
        from repro import redistribution
        from repro.machine import DistArray

        rng = np.random.default_rng(17)
        chunks = [rng.integers(0, 1 << 62, size=n, dtype=np.int64)
                  for n in (3 << 16, 1 << 16)]  # 1.5 MiB + 0.5 MiB
        total = sum(c.size for c in chunks)
        segments, rss = {}, {}
        with Machine(p=2, seed=17, backend="mp") as m:
            family = m.backend._shm_family
            for cycle in range(1, 201):
                data = DistArray(m, chunks, resident=True)
                out, stats = redistribution.redistribute(m, data)
                got = out.chunks
                assert stats.moved == chunks[0].size - total // 2
                assert [g.size for g in got] == [total // 2] * 2
                del data, out, got
                if cycle >= 20 and cycle % 20 == 0:
                    segments[cycle] = len(segment_names(family))
                    rss[cycle] = _driver_rss_mib()
        assert segment_names(family) == []
        assert segments[200] <= segments[20], segments
        # one leaked cycle per cycle would add ~2 MiB each time
        assert max(rss.values()) - rss[20] < 8.0, rss

