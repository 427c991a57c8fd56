"""Transport layer: the wire protocol shared by every real backend.

This module owns the *framing* half of a real backend -- how one Python
object becomes bytes on a byte stream and back -- independent of what
that stream is.  Three stream flavors are wrapped today:

* :class:`PipeChannel` -- an OS pipe pair with a cross-process write
  lock (the ``mp`` backend's channel: many producer processes, one
  consumer);
* :class:`SocketChannel` -- one connected stream socket (the ``tcp``
  backend's channel: exactly one producer per direction, so no lock);
* :class:`MultiInbox` -- a single consumer endpoint multiplexing
  several channels (a tcp worker's inbox: commands from the driver and
  peer messages arrive on different sockets but drain through one
  ``get``).

Wire format
-----------
A *frame* is the unit every channel moves::

    [8B frame_len][8B meta_len][meta][spec][inline buffers...]

where ``spec`` is the protocol-5 pickle of the object with its
out-of-band ``PickleBuffer``\\ s elided and ``meta`` describes each
buffer: either ``(0, nbytes)`` -- the raw bytes follow inline in the
frame -- or ``(1, name, offset, nbytes)`` -- the bytes sit in a
shared-memory block (:mod:`repro.machine.backends.shm`) and only this
descriptor crosses the wire.  A frame with no buffer has an empty
``meta`` (``meta_len`` 0) and the spec fills the rest of it.

Small arrays never become buffers (the *small-array lane*): an exact
``np.ndarray`` of a bool / int / uint / float dtype that is C-contiguous
and smaller than ``SMALL_MAX`` bytes -- and than the sender pool's shm
threshold -- rides *in-band* as ``(bytes, dtype.str, shape)`` and
decodes into a writable array owning a private ``bytearray``.  A buffer
slot (meta entry, extra view, slice and copy at decode) costs more than
the bytes of a two-element sample; the lane works the same on pipes
and sockets.  Every other array keeps the buffer path.

The sender never concatenates: header,
spec and buffer views go out through scatter-gather ``os.writev``
(:func:`write_views`), skipping zero-length views (``os.writev``
reports 0 bytes for them, which the advance loop would spin on
forever).  The receiver (:class:`FrameDecoder`) reassembles partial
reads, slices buffers back out of the frame as ``memoryview``\\ s --
frames of at least ``DIRECT_RX_MIN`` bytes land in a dedicated
``bytearray`` the decoded arrays then own -- and rebuilds the object
with ``pickle.loads(spec, buffers=...)``.  Shared-memory descriptors
are materialized (copied out of their segment) exactly once, at decode
time, which is what makes the sender's round-based block recycling
safe.  Channels whose peers never attach a pool (sockets) simply never
see a descriptor: the sender's ``pool`` is ``None`` and every buffer
rides inline.

All reads and writes are non-blocking with explicit ``EINTR`` retry;
writers invoke their ``drain`` callback while the stream is full so a
cycle of mutually-sending peers always makes progress (the deadlock
freedom the worker mesh relies on).
"""

from __future__ import annotations

import copyreg
import os
import pickle
import queue as queue_mod
import select
import socket as socket_mod
import struct
import time
import types
from typing import Callable

import numpy as np

__all__ = [
    "ALIAS_MIN",
    "COMPACT_MIN",
    "DIRECT_RX_MIN",
    "FrameDecoder",
    "MultiInbox",
    "NO_FRAME",
    "PipeChannel",
    "SMALL_MAX",
    "SocketChannel",
    "encode_frame",
    "write_views",
]

#: frames at least this big are received straight into a dedicated
#: buffer (skipping the shared read buffer entirely)
DIRECT_RX_MIN = 1 << 16

#: inline out-of-band buffers below this size are copied out of a
#: dedicated frame instead of aliasing it (a tiny array must not pin a
#: multi-megabyte frame alive)
ALIAS_MIN = 1 << 12

#: plain numeric arrays smaller than this many bytes ride inside the
#: pickle stream instead of as an out-of-band buffer (the decoder
#: copies buffers this small anyway, see ``ALIAS_MIN``; in-band it
#: skips the buffer's meta entry, view and slice)
SMALL_MAX = 1 << 12

#: compact the shared read buffer once this many bytes are consumed
COMPACT_MIN = 1 << 16

#: sentinel: the decoder holds no complete frame yet
NO_FRAME = object()


# ----------------------------------------------------------------------
# Encoding (producer side)
# ----------------------------------------------------------------------

def _small_array(data: bytes, dtype: str, shape: tuple) -> np.ndarray:
    """Rebuild an in-band array as a writable array owning its bytes."""
    return np.frombuffer(bytearray(data), dtype=dtype).reshape(shape)


#: one frame header: ``frame_len`` (everything after these 8 bytes) and
#: ``meta_len``, parsed and packed in one call
_HEAD = struct.Struct("<QQ")

#: bytes asked for per ``os.read`` of the shared read buffer; a shorter
#: read means the stream held no more for now
_READ_MAX = 1 << 16


class _Encoder:
    """One reusable protocol-5 pickler and the sinks it writes into.

    The pickler is built once: its output lands in ``parts`` (what
    pickle writes, normally one piece per dump), out-of-band buffers in
    ``bufs``, and the small-array lane is an ``np.ndarray`` entry of its
    dispatch table (a copy of :data:`copyreg.dispatch_table`), so no
    Python hook runs for any other object.  An exact ``np.ndarray`` of a
    bool / int / uint / float dtype, C-ordered and smaller than
    ``limit`` bytes, travels as its raw bytes plus ``dtype.str`` and
    shape; every other array takes numpy's own protocol-5 reduction, so
    larger arrays stay out-of-band buffers.  The spec bytes are those a
    fresh pickler would write: the memo is cleared after every dump.
    """

    __slots__ = ("parts", "bufs", "limit", "pickler", "table_len")

    def __init__(self):
        self.parts: list = []
        self.bufs: list[pickle.PickleBuffer] = []
        self.limit = SMALL_MAX
        self.table_len = len(copyreg.dispatch_table)
        sink = types.SimpleNamespace(write=self.parts.append)
        self.pickler = pickle.Pickler(sink, pickle.HIGHEST_PROTOCOL,
                                      buffer_callback=self._keep_oob)
        self.pickler.dispatch_table = {**copyreg.dispatch_table,
                                       np.ndarray: self._reduce_array}

    def _keep_oob(self, pb: pickle.PickleBuffer):
        # pickle's convention: a falsy return takes the buffer
        # out-of-band, a truthy one serializes it in-band
        try:
            pb.raw()
        except BufferError:  # non-contiguous: let pickle copy in-band
            return True
        self.bufs.append(pb)
        return False

    def _reduce_array(self, obj: np.ndarray):
        if (obj.dtype.kind in "biuf" and obj.nbytes < self.limit
                and obj.flags.c_contiguous):
            return _small_array, (obj.tobytes(), obj.dtype.str, obj.shape)
        return obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)


#: idle encoders (a list's pop / append are atomic, so threads and
#: re-entrant calls each take their own)
_IDLE: list[_Encoder] = []


def encode_frame(obj, pool=None) -> tuple[list[memoryview], int, int]:
    """Encode ``obj`` into scatter-gather views ready for ``writev``.

    ``pool`` (a :class:`~repro.machine.backends.shm.ShmPool`) routes
    large pickle buffers through shared memory; ``None`` keeps every
    buffer inline.  Returns ``(views, frame_len, shm_bytes)`` where
    ``frame_len`` excludes the 8-byte length prefix and ``shm_bytes``
    counts payload bytes that left the wire for a segment.

    A *small* frame -- one without out-of-band buffers, which is every
    in-worker collective message -- is one dump and one view: header
    and spec in a single bytes object.
    """
    try:
        enc = _IDLE.pop()
    except IndexError:
        enc = _Encoder()
    else:
        if enc.table_len != len(copyreg.dispatch_table):
            enc = _Encoder()  # a reducer was registered since
    # an array the pool would share keeps the shm lane
    threshold = pool.threshold if pool is not None else None
    enc.limit = SMALL_MAX if threshold is None else min(SMALL_MAX, threshold)
    parts, bufs = enc.parts, enc.bufs
    enc.pickler.dump(obj)  # raising drops the half-used encoder
    enc.pickler.clear_memo()
    spec = b"".join(parts)  # one part comes back as itself
    parts.clear()
    if not bufs:
        _IDLE.append(enc)
        frame_len = 8 + len(spec)
        return [memoryview(_HEAD.pack(frame_len, 0) + spec)], frame_len, 0
    pbs = bufs[:]
    bufs.clear()
    _IDLE.append(enc)
    bufspecs: list[tuple] = []
    tail: list[memoryview] = []
    inline_bytes = 0
    shm_bytes = 0
    for pb in pbs:
        raw = pb.raw()
        nbytes = raw.nbytes
        desc = pool.share(raw) if pool is not None else None
        if desc is None:
            bufspecs.append((0, nbytes))
            tail.append(raw)
            inline_bytes += nbytes
        else:
            # (lane, segment, data offset, nbytes, release-flag offset)
            bufspecs.append((1, desc[0], desc[1], nbytes, desc[2]))
            shm_bytes += nbytes
    meta = pickle.dumps((len(spec), tuple(bufspecs)),
                        protocol=pickle.HIGHEST_PROTOCOL)
    frame_len = 8 + len(meta) + len(spec) + inline_bytes
    head = _HEAD.pack(frame_len, len(meta)) + meta
    # drop empty views (zero-length buffers): os.writev reports 0
    # bytes for them, which the advance loop would spin on forever
    views = [v for v in [memoryview(head), memoryview(spec), *tail] if len(v)]
    return views, frame_len, shm_bytes


def write_views(fd: int, views: list[memoryview],
                drain: Callable | None = None) -> None:
    """Write the views to a non-blocking ``fd``, handling short writes,
    ``EINTR`` and full buffers (``drain()`` is invoked while waiting so
    the caller can keep consuming its own inbox)."""
    os.set_blocking(fd, False)
    while views:
        try:
            written = os.writev(fd, views[:1024])
        except InterruptedError:  # EINTR: retry the call itself
            continue
        except BlockingIOError:
            if drain is not None:
                drain()
            _wait(fd, 0.005, write=True)
            continue
        while written:
            v = views[0]
            if written >= len(v):
                written -= len(v)
                views.pop(0)
            else:
                views[0] = v[written:]
                written = 0


def _wait(fd: int, timeout: float, write: bool = False) -> None:
    try:
        if write:
            select.select([], [fd], [], timeout)
        else:
            select.select([fd], [], [], timeout)
    except InterruptedError:  # EINTR: the caller's loop re-waits
        pass


# ----------------------------------------------------------------------
# Decoding (consumer side)
# ----------------------------------------------------------------------

class FrameDecoder:
    """Reassembles length-prefixed frames out of one byte stream.

    Stateful and fd-agnostic: :meth:`fill` drains whatever the given
    non-blocking fd holds into the read buffer (partial frames stay
    buffered; frames of at least ``DIRECT_RX_MIN`` bytes switch to a
    dedicated buffer the decoded arrays later own), :meth:`pop` decodes
    the next complete frame or returns :data:`NO_FRAME`.  The shared
    read buffer compacts amortizedly (``COMPACT_MIN``) instead of being
    ``del``-shifted per frame.
    """

    __slots__ = ("_rbuf", "_roff", "_direct", "wire_rx", "shm_rx")

    def __init__(self):
        self._rbuf = bytearray()
        self._roff = 0           # consumed prefix of _rbuf
        self._direct = None      # [bytearray, filled] of an in-flight big frame
        #: consumer-side byte counters
        self.wire_rx = 0
        self.shm_rx = 0

    def fill(self, fd: int) -> bool:
        """Read what ``fd`` holds; returns True if bytes arrived.  A read
        shorter than asked for ends the fill: the stream held no more."""
        os.set_blocking(fd, False)
        got = False
        while True:
            direct = self._direct
            if direct is not None:
                frame, filled = direct
                want = len(frame) - filled
                if want == 0:
                    return got
                try:
                    n = os.readv(fd, [memoryview(frame)[filled:]])
                except InterruptedError:  # EINTR: retry
                    continue
                except BlockingIOError:
                    return got
                if n == 0:
                    raise EOFError("channel closed by peer")
                direct[1] = filled + n
                got = True
                continue
            try:
                piece = os.read(fd, _READ_MAX)
            except InterruptedError:  # EINTR: retry
                continue
            except BlockingIOError:
                return got
            if not piece:
                raise EOFError("channel closed by peer")
            self._rbuf += piece
            if len(piece) < _READ_MAX:
                # pop() moves a large frame to the direct buffer
                return True
            got = True
            # a large frame header may just have landed: switch the
            # remainder of that frame to the dedicated direct buffer
            self._maybe_go_direct()

    def _maybe_go_direct(self) -> bool:
        """If the buffer starts with a large, incomplete frame, move its
        prefix into a dedicated buffer that the rest is read into."""
        avail = len(self._rbuf) - self._roff
        if avail < 8:
            return False
        n = int.from_bytes(self._rbuf[self._roff:self._roff + 8], "little")
        if n < DIRECT_RX_MIN or avail >= 8 + n:
            return False
        frame = bytearray(n)
        have = avail - 8
        frame[:have] = memoryview(self._rbuf)[self._roff + 8:]
        self._rbuf.clear()
        self._roff = 0
        self._direct = [frame, have]
        return True

    def _decode(self, body: memoryview, pool, copy_buffers: bool):
        """Reassemble one frame body (everything after the length
        prefix) into its object, materializing buffer descriptors."""
        meta_len = int.from_bytes(body[:8], "little")
        # a frame without buffers has no meta: the rest is the spec
        spec_len, bufspecs = (pickle.loads(body[8:8 + meta_len]) if meta_len
                              else (len(body) - 8, ()))
        off = 8 + meta_len
        spec = body[off:off + spec_len]
        off += spec_len
        buffers = []
        for bs in bufspecs:
            if bs[0] == 0:
                nbytes = bs[1]
                piece = body[off:off + nbytes]
                off += nbytes
                if copy_buffers or nbytes < ALIAS_MIN:
                    piece = bytearray(piece)
                buffers.append(piece)
            else:
                # 5-tuple descriptors carry the block's release-flag
                # offset and decode zero-copy; 4-tuple ones (legacy
                # producers) fall back to a private copy
                _, name, boff, nbytes, *rest = bs
                if pool is None:
                    raise RuntimeError(
                        "received a shared-memory payload descriptor on a "
                        "channel with no pool attached"
                    )
                foff = rest[0] if rest else None
                buffers.append(pool.materialize(name, boff, nbytes, foff))
                self.shm_rx += nbytes
        obj = pickle.loads(spec, buffers=buffers)
        self.wire_rx += 8 + len(body)
        return obj

    def pop(self, pool=None):
        """Decode the next complete frame, or return :data:`NO_FRAME`."""
        direct = self._direct
        if direct is not None:
            frame, filled = direct
            if filled < len(frame):
                return NO_FRAME
            self._direct = None
            # the decoded arrays alias (and keep alive) the dedicated
            # frame buffer -- no further copy
            return self._decode(memoryview(frame), pool, copy_buffers=False)
        rbuf, off = self._rbuf, self._roff
        size = len(rbuf)
        if size - off < 16:
            return NO_FRAME
        n, meta_len = _HEAD.unpack_from(rbuf, off)
        end = off + 8 + n
        if size < end:
            if n >= DIRECT_RX_MIN:
                self._maybe_go_direct()
            return NO_FRAME
        view = memoryview(rbuf)
        try:
            if meta_len:
                # copy_buffers: decoded objects must not alias the
                # shared read buffer (compaction would corrupt them)
                obj = self._decode(view[off + 8:end], pool, copy_buffers=True)
            else:
                # a small frame: the rest is the spec, nothing aliases it
                obj = pickle.loads(view[off + 16:end])
                self.wire_rx += 8 + n
        finally:
            view.release()
        if end == size:
            rbuf.clear()
            self._roff = 0
        elif end >= COMPACT_MIN:
            del rbuf[:end]
            self._roff = 0
        else:
            self._roff = end
        return obj


# ----------------------------------------------------------------------
# Channels
# ----------------------------------------------------------------------

class PipeChannel:
    """Multi-producer, single-consumer frame channel over an OS pipe.

    ``multiprocessing.Queue`` routes every message through a per-process
    feeder thread -- two scheduler hops per hop, which dominates the
    latency of fine-grained collective schedules.  This channel writes
    frames straight into the pipe under a cross-process lock (like
    ``SimpleQueue``), with two additions that make it safe for worker
    meshes:

    * **timed receive** -- ``get(timeout)`` waits on the pipe with
      ``select``, so workers can still detect an orphaned driver;
    * **deadlock-free sends** -- writes are non-blocking; when the pipe
      is full (payload bigger than the kernel buffer and a busy
      receiver) the writer invokes its ``drain`` callback to consume its
      *own* inbox while waiting, so a cycle of mutually-sending workers
      always makes progress.

    Frames stay contiguous because the write lock is held for the whole
    frame; the single reader reassembles partial reads through its
    :class:`FrameDecoder`.
    """

    def __init__(self, ctx):
        self._reader, self._writer = ctx.Pipe(duplex=False)
        self._wlock = ctx.Lock()
        self._dec = FrameDecoder()

    @property
    def wire_rx(self) -> int:
        return self._dec.wire_rx

    @property
    def shm_rx(self) -> int:
        return self._dec.shm_rx

    # -- producer side -------------------------------------------------
    def put(self, obj, drain: Callable | None = None, pool=None,
            counters: dict | None = None) -> None:
        """Send one message.  ``pool`` routes large pickle buffers
        through shared memory; ``counters`` (keys ``wire_tx``/``shm_tx``)
        receives this message's byte accounting."""
        views, frame_len, shm_bytes = encode_frame(obj, pool)
        while not self._wlock.acquire(timeout=0.005):
            if drain is not None:
                drain()
        try:
            write_views(self._writer.fileno(), views, drain)
        finally:
            self._wlock.release()
        if counters is not None:
            counters["wire_tx"] += 8 + frame_len
            counters["shm_tx"] += shm_bytes

    # -- consumer side (single reader) ---------------------------------
    def get(self, timeout: float | None = None, pool=None):
        deadline = None if timeout is None else time.monotonic() + timeout
        fd = self._reader.fileno()
        while True:
            obj = self._dec.pop(pool)
            if obj is not NO_FRAME:
                return obj
            try:
                filled = self._dec.fill(fd)
            except EOFError:
                # the peer's final frame and its EOF can land in one
                # fill: surface buffered frames before reporting EOF
                obj = self._dec.pop(pool)
                if obj is NO_FRAME:
                    raise
                return obj
            if filled:
                continue
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise queue_mod.Empty
            _wait(fd, remaining if remaining is not None else 1.0)

    # -- lifecycle (mirrors the mp.Queue calls the pool makes) ---------
    def close_writer(self) -> None:
        """Close only this process's write end (injected ``sever``
        fault): once every writer end is gone the reader sees EOF."""
        try:
            self._writer.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def close(self) -> None:
        try:
            self._reader.close()
            self._writer.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def cancel_join_thread(self) -> None:  # no feeder thread to join
        pass


class SocketChannel:
    """One connected stream socket as a frame channel.

    Each direction of a TCP connection has exactly one producer process
    (the mesh gives every ordered peer pair its own direction), so no
    write lock is needed; a frame stays contiguous because ``put``
    writes it whole before returning.  ``TCP_NODELAY`` is set so the
    fine-grained collective schedules are not serialized by Nagle
    batching.
    """

    def __init__(self, sock: socket_mod.socket):
        self._sock = sock
        try:
            sock.setsockopt(socket_mod.IPPROTO_TCP, socket_mod.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - e.g. AF_UNIX socketpair
            pass
        self._dec = FrameDecoder()

    @property
    def wire_rx(self) -> int:
        return self._dec.wire_rx

    @property
    def shm_rx(self) -> int:
        return self._dec.shm_rx

    def fileno(self) -> int:
        return self._sock.fileno()

    # -- producer side -------------------------------------------------
    def put(self, obj, drain: Callable | None = None, pool=None,
            counters: dict | None = None) -> None:
        views, frame_len, shm_bytes = encode_frame(obj, pool)
        write_views(self._sock.fileno(), views, drain)
        if counters is not None:
            counters["wire_tx"] += 8 + frame_len
            counters["shm_tx"] += shm_bytes

    # -- consumer side ---------------------------------------------------
    def fill(self) -> bool:
        return self._dec.fill(self._sock.fileno())

    def pop(self, pool=None):
        return self._dec.pop(pool)

    def get(self, timeout: float | None = None, pool=None):
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            obj = self._dec.pop(pool)
            if obj is not NO_FRAME:
                return obj
            try:
                filled = self.fill()
            except EOFError:
                # final frame and FIN can land in one fill: surface
                # buffered frames before reporting EOF
                obj = self._dec.pop(pool)
                if obj is NO_FRAME:
                    raise
                return obj
            if filled:
                continue
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise queue_mod.Empty
            _wait(self._sock.fileno(), remaining if remaining is not None else 1.0)

    # -- lifecycle -------------------------------------------------------
    def shutdown(self) -> None:
        """Hard-cut both directions (injected ``sever`` fault): the peer
        sees EOF on its next read, unlike ``close`` which only drops our
        fd reference."""
        try:
            self._sock.shutdown(socket_mod.SHUT_RDWR)
        except OSError:  # pragma: no cover - already disconnected
            pass

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def cancel_join_thread(self) -> None:
        pass


class MultiInbox:
    """Single consumer endpoint over several frame channels.

    ``get`` returns the next complete frame from *any* source channel
    (per-source FIFO order is preserved -- each fd has its own decoder;
    cross-source order is irrelevant because runtime items are tagged).
    EOF on a non-primary source quietly removes it (a peer that already
    shut down); EOF on the ``primary`` channel raises, because losing
    the driver is fatal.
    """

    def __init__(self):
        self._chans: dict[int, SocketChannel] = {}
        self._primary: SocketChannel | None = None
        # counters of removed channels live on (cumulative accounting)
        self._rx_base = [0, 0]

    def add(self, chan: SocketChannel, primary: bool = False) -> None:
        self._chans[chan.fileno()] = chan
        if primary:
            self._primary = chan

    @property
    def wire_rx(self) -> int:
        return self._rx_base[0] + sum(c.wire_rx for c in self._chans.values())

    @property
    def shm_rx(self) -> int:
        return self._rx_base[1] + sum(c.shm_rx for c in self._chans.values())

    def _drop(self, fd: int) -> None:
        chan = self._chans.pop(fd)
        self._rx_base[0] += chan.wire_rx
        self._rx_base[1] += chan.shm_rx
        chan.close()

    def get(self, timeout: float | None = None, pool=None):
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            moved = False
            for fd in list(self._chans):
                chan = self._chans.get(fd)
                if chan is None:  # pragma: no cover - dropped this pass
                    continue
                obj = chan.pop(pool)
                if obj is not NO_FRAME:
                    return obj
                try:
                    moved |= chan.fill()
                except EOFError:
                    # a peer's final frame and its FIN can land in the
                    # same fill -- drain buffered frames before the
                    # channel is dropped (or the driver loss surfaced)
                    obj = chan.pop(pool)
                    if obj is not NO_FRAME:
                        return obj
                    if chan is self._primary:
                        raise
                    self._drop(fd)
            if moved:
                continue
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise queue_mod.Empty
            if not self._chans:
                raise EOFError("every source channel closed")
            try:
                select.select(list(self._chans), [], [],
                              remaining if remaining is not None else 1.0)
            except InterruptedError:  # EINTR: loop re-waits
                pass

    def close(self) -> None:
        for fd in list(self._chans):
            self._drop(fd)

    def cancel_join_thread(self) -> None:
        pass
