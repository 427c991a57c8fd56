"""Unit: the extracted transport layer (framing, channels), no pool.

Exercises :mod:`repro.machine.backends.transport` directly against
pipes and socketpairs -- the edge cases a full worker pool would bury:
partial reads, short writes, EINTR retries, zero-length out-of-band
buffers, the large-frame direct-receive path, multi-producer frame
interleaving and the MultiInbox EOF rules.
"""

import multiprocessing
import os
import pickle
import queue
import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.machine.backends.transport import (
    ALIAS_MIN,
    DIRECT_RX_MIN,
    FrameDecoder,
    MultiInbox,
    NO_FRAME,
    PipeChannel,
    SMALL_MAX,
    SocketChannel,
    encode_frame,
    write_views,
)


def _sock_pair():
    a, b = socket.socketpair()
    return SocketChannel(a), SocketChannel(b)


def _flatten(views) -> bytes:
    return b"".join(bytes(v) for v in views)


# ----------------------------------------------------------------------
# Frame encoding
# ----------------------------------------------------------------------

class TestEncodeFrame:
    def test_roundtrip_through_decoder(self):
        obj = {"a": np.arange(100), "b": "text", "c": (1, 2.5)}
        views, frame_len, shm_bytes = encode_frame(obj)
        assert shm_bytes == 0
        raw = _flatten(views)
        assert len(raw) == 8 + frame_len
        dec = FrameDecoder()
        out = dec._decode(memoryview(raw)[8:], None, copy_buffers=True)
        np.testing.assert_array_equal(out["a"], obj["a"])
        assert out["b"] == "text" and out["c"] == (1, 2.5)
        assert dec.wire_rx == 8 + frame_len

    def test_zero_length_buffer_emits_no_empty_iovec(self):
        """A zero-size array must not contribute an empty view --
        ``os.writev`` reports 0 bytes for those and the advance loop
        would spin forever."""
        # complex arrays stay out-of-band buffers at any size
        obj = ("tag", np.empty(0, dtype=np.complex128), np.arange(3))
        views, _, _ = encode_frame(obj)
        assert all(len(v) > 0 for v in views)
        dec = FrameDecoder()
        out = dec._decode(memoryview(_flatten(views))[8:], None, True)
        assert out[0] == "tag"
        assert out[1].size == 0 and out[1].dtype == np.complex128
        np.testing.assert_array_equal(out[2], np.arange(3))

    def test_frame_without_buffers_has_no_meta(self):
        obj = ("msg", 7, np.arange(3))  # the array rides in-band
        views, frame_len, _ = encode_frame(obj)
        raw = _flatten(views)
        assert int.from_bytes(raw[8:16], "little") == 0
        assert len(raw) == 8 + frame_len
        out = FrameDecoder()._decode(memoryview(raw)[8:], None, True)
        assert out[:2] == ("msg", 7)
        np.testing.assert_array_equal(out[2], np.arange(3))

    def test_shm_descriptor_without_pool_fails_loudly(self):
        """A descriptor frame arriving on a pool-less channel (e.g. a
        socket) must raise, not silently decode garbage."""
        class FakePool:
            threshold = 1  # shares every buffer it is offered

            def share(self, view):
                return ("segname", 64, 0)

        # above the small-array lane, so the array is a buffer at all
        arr = np.arange(SMALL_MAX // 8 + 1, dtype=np.int64)
        views, _, shm_bytes = encode_frame(arr, pool=FakePool())
        assert shm_bytes == arr.nbytes
        dec = FrameDecoder()
        with pytest.raises(RuntimeError, match="no pool attached"):
            dec._decode(memoryview(_flatten(views))[8:], None, True)

    def test_non_contiguous_arrays_fall_back_inband(self):
        arr = np.arange(100).reshape(10, 10)[:, ::2]  # non-contiguous view
        views, _, _ = encode_frame(arr)
        dec = FrameDecoder()
        out = dec._decode(memoryview(_flatten(views))[8:], None, True)
        np.testing.assert_array_equal(out, arr)


# ----------------------------------------------------------------------
# The small-array lane
# ----------------------------------------------------------------------

PLAIN_DTYPES = ["bool", "int8", "int16", "int32", "int64", "uint8", "uint16",
                "uint32", "uint64", "float16", "float32", "float64"]


class _Tagged(np.ndarray):
    """An ndarray subclass (must keep pickle's own path)."""


def _lane_roundtrip(obj, pool=None):
    """Decode ``obj``'s frame; also return its out-of-band buffer count
    and whether the spec used the small-array lane."""
    raw = _flatten(encode_frame(obj, pool)[0])
    meta_len = int.from_bytes(raw[8:16], "little")
    n_buffers = len(pickle.loads(raw[16:16 + meta_len])[1]) if meta_len else 0
    out = FrameDecoder()._decode(memoryview(raw)[8:], None, True)
    return out, n_buffers, b"_small_array" in raw


def _same_array(a, b) -> bool:
    return (type(a) is type(b) and a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


class TestSmallArrayLane:
    @settings(max_examples=150, deadline=None)
    @given(
        dtype=st.sampled_from(PLAIN_DTYPES),
        swapped=st.booleans(),
        shape=st.sampled_from([(), (0,), (1,), (7,), (0, 3), (2, 3), (3, 5)]),
        wrap=st.sampled_from(["bare", "list", "tuple", "dict"]),
        data=st.data(),
    )
    def test_plain_arrays_roundtrip_writable(self, dtype, swapped, shape, wrap, data):
        dt = np.dtype(dtype)
        if swapped:
            dt = dt.newbyteorder()
        arr = data.draw(hnp.arrays(dt, shape))
        obj = {"bare": arr, "list": [1, arr, "x"], "tuple": (arr, 2.5),
               "dict": {"a": arr, "b": None}}[wrap]
        out, n_buffers, lane = _lane_roundtrip(obj)
        got = {"bare": lambda o: o, "list": lambda o: o[1],
               "tuple": lambda o: o[0], "dict": lambda o: o["a"]}[wrap](out)
        assert _same_array(got, arr)
        assert got.flags.writeable
        assert lane and n_buffers == 0

    @pytest.mark.parametrize("nbytes, lane", [
        (SMALL_MAX - 1, True), (SMALL_MAX, False), (SMALL_MAX + 1, False),
    ])
    def test_size_limit(self, nbytes, lane):
        arr = np.arange(nbytes, dtype=np.uint8)
        out, n_buffers, used = _lane_roundtrip([arr, arr[:3].copy()])
        assert _same_array(out[0], arr) and out[0].flags.writeable
        assert used  # the 3-byte array always rides in-band
        assert n_buffers == (0 if lane else 1)

    def test_pool_threshold_caps_the_lane(self):
        """An array the pool would share keeps the shm lane."""
        class FakePool:
            threshold = 64

            def share(self, view):
                return ("segname", 0, 0)

        views, _, shm_bytes = encode_frame(
            (np.zeros(7), np.zeros(8)), pool=FakePool()
        )
        assert shm_bytes == 64

    @pytest.mark.parametrize("arr", [
        np.arange(20.0).reshape(4, 5)[:, ::2],                # non-contiguous
        np.asfortranarray(np.arange(6.0).reshape(2, 3)),      # F-ordered
        np.array([1, "a", None], dtype=object),               # object
        np.zeros(3, dtype=[("k", "<i8"), ("v", "<f4")]),      # structured
        np.arange(3).astype("datetime64[s]"),                 # datetime
        np.arange(3.0) + 1j,                                  # complex
        np.arange(4.0).view(_Tagged),                         # subclass
    ])
    def test_other_arrays_keep_pickles_path(self, arr):
        # what plain protocol-5 pickling makes out-of-band
        plain: list = []
        pickle.dumps(arr, protocol=5, buffer_callback=plain.append)
        out, n_buffers, lane = _lane_roundtrip(arr)
        assert type(out) is type(arr) and out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert out.tolist() == arr.tolist()
        assert not lane and n_buffers == len(plain)


# ----------------------------------------------------------------------
# Decoder reassembly
# ----------------------------------------------------------------------

class TestPartialReads:
    def test_byte_by_byte_arrival(self):
        """A frame dribbling in one byte at a time reassembles intact."""
        tx, rx = _sock_pair()
        obj = ("msg", 7, np.arange(50))
        raw = _flatten(encode_frame(obj)[0])
        sender = tx._sock
        for i in range(len(raw) - 1):
            sender.sendall(raw[i:i + 1])
            # no complete frame yet
            assert rx.fill() or True
            assert rx.pop() is NO_FRAME
        sender.sendall(raw[-1:])
        out = rx.get(timeout=1.0)
        assert out[0] == "msg" and out[1] == 7
        np.testing.assert_array_equal(out[2], np.arange(50))

    def test_two_frames_in_one_read(self):
        """Back-to-back frames landing in one recv buffer pop in order."""
        tx, rx = _sock_pair()
        raw = b"".join(
            _flatten(encode_frame(("n", i))[0]) for i in range(5)
        )
        tx._sock.sendall(raw)
        assert [rx.get(timeout=1.0)[1] for _ in range(5)] == list(range(5))

    def test_incomplete_timeout_raises_empty(self):
        tx, rx = _sock_pair()
        raw = _flatten(encode_frame(("x", 1))[0])
        tx._sock.sendall(raw[: len(raw) // 2])
        with pytest.raises(queue.Empty):
            rx.get(timeout=0.05)

    def test_large_frame_direct_receive_path(self):
        """Frames >= DIRECT_RX_MIN land in a dedicated buffer the decoded
        arrays own (no shared-read-buffer copy)."""
        tx, rx = _sock_pair()
        big = np.arange(DIRECT_RX_MIN, dtype=np.int64)  # 8x the threshold
        done = threading.Event()
        thread = threading.Thread(
            target=lambda: (tx.put(("big", big)), done.set()))
        thread.start()
        out = rx.get(timeout=5.0)
        thread.join(timeout=5.0)
        assert done.is_set()
        np.testing.assert_array_equal(out[1], big)
        # the big array aliases the direct frame buffer, not a copy
        assert out[1].size * 8 >= ALIAS_MIN

    def test_eof_raises(self):
        tx, rx = _sock_pair()
        tx.close()
        with pytest.raises(EOFError):
            rx.get(timeout=1.0)


# ----------------------------------------------------------------------
# Short writes and EINTR
# ----------------------------------------------------------------------

class TestWritePath:
    def test_short_writes_recover(self, monkeypatch):
        """writev advancing a few bytes per call still ships the frame."""
        real_writev = os.writev

        def tiny_writev(fd, views):
            v = memoryview(views[0])
            return real_writev(fd, [v[:3]])

        monkeypatch.setattr(os, "writev", tiny_writev)
        tx, rx = _sock_pair()
        # consume concurrently: thousands of 3-byte writes exhaust the
        # kernel's per-skb accounting long before the frame is through,
        # so the writer must block until the reader drains
        out = {}
        thread = threading.Thread(
            target=lambda: out.__setitem__("v", rx.get(timeout=10.0)))
        thread.start()
        tx.put(("short-writes", np.arange(200)))
        thread.join(timeout=10.0)
        assert out["v"][0] == "short-writes"
        np.testing.assert_array_equal(out["v"][1], np.arange(200))

    def test_writev_eintr_retried(self, monkeypatch):
        real_writev = os.writev
        calls = {"n": 0}

        def flaky_writev(fd, views):
            calls["n"] += 1
            if calls["n"] % 2 == 1:
                raise InterruptedError  # EINTR
            return real_writev(fd, views)

        monkeypatch.setattr(os, "writev", flaky_writev)
        tx, rx = _sock_pair()
        tx.put(("eintr", 42))
        assert rx.get(timeout=1.0) == ("eintr", 42)
        assert calls["n"] >= 2

    def test_read_eintr_retried(self, monkeypatch):
        real_read = os.read
        calls = {"n": 0}

        def flaky_read(fd, n):
            calls["n"] += 1
            if calls["n"] == 1:
                raise InterruptedError
            return real_read(fd, n)

        tx, rx = _sock_pair()
        tx.put(("readback", 3))
        monkeypatch.setattr(os, "read", flaky_read)
        assert rx.get(timeout=1.0) == ("readback", 3)
        assert calls["n"] >= 2

    def test_full_buffer_invokes_drain(self):
        """A frame bigger than the socket buffer blocks until the other
        side consumes; the writer's drain callback keeps firing.  The
        reader starts from the first drain callback, so the buffer is
        full before anything is read."""
        tx, rx = _sock_pair()
        drained = {"n": 0}
        out = {}

        def consume():
            out["v"] = rx.get(timeout=10.0)

        thread = threading.Thread(target=consume)

        def drain():
            drained["n"] += 1
            if thread.ident is None:
                thread.start()

        big = np.arange(1 << 20, dtype=np.int64)  # 8 MiB >> socket buffer
        tx.put(("bulk", big), drain=drain)
        if thread.ident is None:  # never full: read it anyway, fail below
            thread.start()
        thread.join(timeout=10.0)
        np.testing.assert_array_equal(out["v"][1], big)
        assert drained["n"] > 0


# ----------------------------------------------------------------------
# Pipe channel (multi-producer) and frame interleaving
# ----------------------------------------------------------------------

def _producer(chan, sender_id, n):
    for seq in range(n):
        chan.put(("msg", seq, sender_id, b"x" * (17 * (seq % 5))))


class TestPipeChannel:
    def test_same_process_roundtrip(self):
        chan = PipeChannel(multiprocessing.get_context())
        chan.put({"k": np.arange(10)})
        out = chan.get(timeout=1.0)
        np.testing.assert_array_equal(out["k"], np.arange(10))
        chan.close()

    def test_interleaved_sequence_numbers_from_two_producers(self):
        """Two processes writing whole frames under the channel lock:
        every frame arrives intact and per-producer seq order holds."""
        ctx = multiprocessing.get_context()
        chan = PipeChannel(ctx)
        n = 40
        procs = [
            ctx.Process(target=_producer, args=(chan, sid, n))
            for sid in (1, 2)
        ]
        for pr in procs:
            pr.start()
        seen = {1: [], 2: []}
        for _ in range(2 * n):
            tag, seq, sid, payload = chan.get(timeout=10.0)
            assert tag == "msg" and len(payload) == 17 * (seq % 5)
            seen[sid].append(seq)
        for pr in procs:
            pr.join(timeout=5.0)
        # both producers' frames all arrived, each in FIFO order
        assert seen[1] == list(range(n)) and seen[2] == list(range(n))
        chan.close()

    def test_counters_account_frame_bytes(self):
        chan = PipeChannel(multiprocessing.get_context())
        counters = {"wire_tx": 0, "shm_tx": 0}
        chan.put(("x", np.arange(100)), counters=counters)
        chan.get(timeout=1.0)
        assert counters["wire_tx"] == chan.wire_rx > 800  # array + spec
        assert counters["shm_tx"] == 0
        chan.close()


# ----------------------------------------------------------------------
# Byte accounting and the decoder's own non-blocking switch
# ----------------------------------------------------------------------

class _DictPool:
    """A stand-in shm pool: buffers of at least ``threshold`` bytes are
    'shared' into a dict under a fixed name (so the descriptor, and with
    it the frame, has a fixed size) and materialized back out of it."""

    threshold = 1 << 16

    def __init__(self):
        self.segs = {}

    def share(self, view):
        if view.nbytes < self.threshold:
            return None
        self.segs["seg-0"] = bytes(view)
        return ("seg-0", 0, 64)

    def materialize(self, name, offset, nbytes, flag_off=None):
        return bytearray(self.segs[name][offset:offset + nbytes])


def _channel_pair(kind):
    if kind == "pipe":
        chan = PipeChannel(multiprocessing.get_context())
        return chan, chan
    return _sock_pair()


class TestByteAccounting:
    @pytest.mark.parametrize("kind", ["pipe", "socket"])
    def test_a_mixed_frame_keeps_its_exact_byte_counts(self, kind):
        """One frame with all three lanes: a small array in-band, an
        8 KiB buffer out-of-band inline and a 128 KiB one as a shm
        descriptor.  The counts are the ones recorded before the
        encoder was reused and the small-frame decode path was split
        off; they must not move."""
        small = np.arange(8, dtype=np.int64)
        inline = np.arange(1024, dtype=np.int64)        # > SMALL_MAX
        shared = np.arange(16384, dtype=np.int64)      # >= the pool threshold
        tx, rx = _channel_pair(kind)
        pool = _DictPool()
        counters = {"wire_tx": 0, "shm_tx": 0}
        tx.put(("mix", 7, small, inline, shared), pool=pool, counters=counters)
        out = rx.get(timeout=5.0, pool=pool)
        assert out[:2] == ("mix", 7)
        for got, want in zip(out[2:], (small, inline, shared)):
            np.testing.assert_array_equal(got, want)
        assert counters == {"wire_tx": 8536, "shm_tx": 131072}
        assert (rx.wire_rx, rx.shm_rx) == (8536, 131072)
        # a small frame (every in-worker collective message) likewise
        tx.put(("msg", 5, 100, 1, {0: (np.array([3, 1]), [2])}),
               counters=counters)
        assert rx.get(timeout=5.0)[:4] == ("msg", 5, 100, 1)
        assert counters["wire_tx"] == rx.wire_rx == 8536 + 140

    def test_fill_makes_a_blocking_fd_nonblocking_itself(self):
        """The decoder's first fill on a fresh blocking pipe returns once
        the available bytes are read (a decoder that trusted its channel
        to have switched the fd would block in the second read).  The
        wait is bounded: a regression fails here instead of hanging."""
        raw = _flatten(encode_frame(("probe", np.arange(96)))[0])
        rfd, wfd = os.pipe()
        try:
            assert os.get_blocking(rfd)
            os.write(wfd, raw)
            dec = FrameDecoder()
            done = {}
            reader = threading.Thread(
                target=lambda: done.setdefault("filled", dec.fill(rfd)),
                daemon=True)
            reader.start()
            reader.join(timeout=5.0)
            if reader.is_alive():  # unblock the stuck read, then fail
                os.close(wfd)
                wfd = -1
                reader.join(timeout=5.0)
                pytest.fail("FrameDecoder.fill blocked on a blocking fd")
            assert done["filled"] is True
            assert not os.get_blocking(rfd)
            out = dec.pop()
            assert out[0] == "probe"
            np.testing.assert_array_equal(out[1], np.arange(96))
            # nothing more: a second fill reports no bytes, immediately
            assert dec.fill(rfd) is False
            assert dec.pop() is NO_FRAME
        finally:
            os.close(rfd)
            if wfd >= 0:
                os.close(wfd)


# ----------------------------------------------------------------------
# MultiInbox
# ----------------------------------------------------------------------

class TestMultiInbox:
    def test_drains_multiple_sources(self):
        tx1, rx1 = _sock_pair()
        tx2, rx2 = _sock_pair()
        inbox = MultiInbox()
        inbox.add(rx1, primary=True)
        inbox.add(rx2)
        tx1.put(("from", 1))
        tx2.put(("from", 2))
        got = {inbox.get(timeout=1.0)[1], inbox.get(timeout=1.0)[1]}
        assert got == {1, 2}
        with pytest.raises(queue.Empty):
            inbox.get(timeout=0.05)

    def test_secondary_eof_is_tolerated(self):
        tx1, rx1 = _sock_pair()
        tx2, rx2 = _sock_pair()
        inbox = MultiInbox()
        inbox.add(rx1, primary=True)
        inbox.add(rx2)
        tx2.put(("last", 2))
        tx2.close()  # peer shut down after its final frame
        tx1.put(("alive", 1))
        got = {inbox.get(timeout=1.0)[0], inbox.get(timeout=1.0)[0]}
        assert got == {"last", "alive"}
        with pytest.raises(queue.Empty):  # rx2 was dropped, rx1 still live
            inbox.get(timeout=0.05)

    def test_primary_eof_raises(self):
        tx1, rx1 = _sock_pair()
        inbox = MultiInbox()
        inbox.add(rx1, primary=True)
        tx1.close()
        with pytest.raises(EOFError):
            inbox.get(timeout=1.0)

    def test_rx_accounting_survives_source_removal(self):
        tx1, rx1 = _sock_pair()
        tx2, rx2 = _sock_pair()
        inbox = MultiInbox()
        inbox.add(rx1, primary=True)
        inbox.add(rx2)
        tx2.put(("bye", np.arange(50)))
        inbox.get(timeout=1.0)
        before = inbox.wire_rx
        assert before > 0
        tx2.close()
        tx1.put(("ping",))
        inbox.get(timeout=1.0)  # triggers the rx2 EOF drop
        assert inbox.wire_rx > before  # rx2's bytes retained + rx1's added


# ----------------------------------------------------------------------
# TCP launcher lifecycle (registration edge cases, no algorithm pool)
# ----------------------------------------------------------------------

class TestTcpRegistration:
    def test_failed_start_releases_resources(self):
        """A rank that never registers must not leak the listener, the
        registered channels or the forked local workers."""
        from repro.machine.backends.tcp import TcpBackend

        backend = TcpBackend(
            2, hosts=["127.0.0.1", "never-launched-host"],
            bind="127.0.0.1", connect_timeout=1.0,
        )
        with pytest.raises(RuntimeError, match="never registered"):
            backend.collective(
                "allreduce", [("allreduce", v, "sum") for v in (1, 2)])
        assert backend._listener is None
        assert backend._workers == [] and backend._inboxes == []
        backend.close()  # idempotent after the failed start

    def test_stray_connection_does_not_claim_a_slot(self):
        """Garbage or volunteer connections with no open slot are
        dropped; real workers still register and the pool runs."""
        from repro.machine.backends.tcp import TcpBackend, worker_main

        backend = TcpBackend(1, hosts=["elsewhere"], bind="127.0.0.1",
                             connect_timeout=15.0)
        result = {}

        def run():
            try:
                result["out"] = backend.collective(
                    "allreduce", [("allreduce", 7, "sum")])
            except Exception as exc:  # pragma: no cover - surfaced below
                result["err"] = exc

        driver = threading.Thread(target=run)
        driver.start()
        while backend._listener is None:  # wait for the bind
            pass
        addr = ("127.0.0.1", backend._listener.getsockname()[1])
        # a well-formed frame with the wrong tag: rejected, not fatal
        bogus = SocketChannel(socket.create_connection(addr))
        bogus.put(("nonsense", 1, 2))
        # the real (externally launched) worker registers rank 0
        ctx = multiprocessing.get_context()
        worker = ctx.Process(target=worker_main, args=(addr,), daemon=True)
        worker.start()
        driver.join(timeout=30.0)
        assert result.get("out") == [7], result
        backend.close()
        worker.join(timeout=5.0)
        bogus.close()

    def test_register_timeout_bounds_a_missing_rank(self):
        """The overall registration deadline -- not the much longer
        per-connection timeout -- bounds a rank that never shows up,
        and the error names the missing ranks."""
        import time

        from repro.machine.backends.tcp import TcpBackend

        backend = TcpBackend(
            2, hosts=["127.0.0.1", "unlaunched-host"], bind="127.0.0.1",
            connect_timeout=60.0, register_timeout=1.5,
        )
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match=r"ranks \[1\] never registered"):
            backend.collective(
                "allreduce", [("allreduce", v, "sum") for v in (1, 2)])
        assert time.monotonic() - t0 < 30.0  # nowhere near connect_timeout
        backend.close()


# ----------------------------------------------------------------------
# Injected corruption (the transport half of the fault plans)
# ----------------------------------------------------------------------

class TestInjectedCorruption:
    def test_truncated_frame_stays_pending_then_eofs(self):
        """A worker dying mid-result-write leaves a frame prefix on the
        stream: the decoder must never surface a partial object, and the
        subsequent FIN is an EOF, not garbage."""
        from repro.machine.faults import truncated_frame_bytes

        obj = ("result", 3, {"x": np.arange(200)})
        a, b = socket.socketpair()
        rx = SocketChannel(b)
        a.sendall(truncated_frame_bytes(obj, fraction=0.5))
        with pytest.raises(queue.Empty):  # incomplete: keeps waiting
            rx.get(timeout=0.05)
        a.close()  # the death's FIN
        with pytest.raises(EOFError):
            rx.get(timeout=1.0)
        rx.close()

    def test_pipe_writer_severed_mid_frame(self):
        """The mp ``sever`` hook closes one inbox's writer end; with the
        frame half-written the reader gets EOF, never a partial frame."""
        from repro.machine.faults import truncated_frame_bytes

        ctx = multiprocessing.get_context()
        chan = PipeChannel(ctx)
        raw = truncated_frame_bytes(("item", 1, list(range(50))))
        write_views(chan._writer.fileno(), [memoryview(raw)])
        chan.close_writer()
        with pytest.raises(EOFError):
            chan.get(timeout=1.0)
        chan.close()

    def test_severed_secondary_socket_is_dropped_mid_stream(self):
        """The tcp ``sever`` fault shuts a pair socket down hard; the
        victim's MultiInbox drops that source and keeps serving the
        rest (the stall then surfaces as the driver's 'hung' phase)."""
        tx1, rx1 = _sock_pair()
        tx2, rx2 = _sock_pair()
        inbox = MultiInbox()
        inbox.add(rx1, primary=True)
        inbox.add(rx2)
        tx2.put(("pre", 2))
        assert inbox.get(timeout=1.0) == ("pre", 2)
        tx2.shutdown()  # the injected sever
        tx1.put(("alive", 1))
        assert inbox.get(timeout=1.0) == ("alive", 1)
        assert len(inbox._chans) == 1  # the severed source is gone
        with pytest.raises(queue.Empty):
            inbox.get(timeout=0.05)

    def test_severed_primary_socket_raises(self):
        """Losing the driver channel is fatal for a worker, sever or
        not: EOF propagates instead of being swallowed."""
        tx1, rx1 = _sock_pair()
        inbox = MultiInbox()
        inbox.add(rx1, primary=True)
        tx1.shutdown()
        with pytest.raises(EOFError):
            inbox.get(timeout=1.0)
