"""Shared-memory segment pool: the bulk-payload lane of the mp backend.

The mp transport frames every message as a protocol-5 pickle whose
out-of-band buffers are split into two lanes (see
:mod:`repro.machine.backends.transport`):

* buffers *below* the size threshold ride the pipe inline, written by
  scatter-gather ``os.writev`` with no intermediate concatenation;
* buffers *at or above* the threshold are copied once into a block of a
  :class:`multiprocessing.shared_memory.SharedMemory` segment and only a
  ``(name, offset, nbytes, flag_offset)`` descriptor crosses the pipe.
  The receiver consumes the block **in place**: :meth:`ShmPool.
  materialize` returns a zero-copy view of the owner's segment, so a
  payload is copied exactly once end to end (producer into the
  segment), not twice.

Block release protocol
----------------------
Zero-copy consumption means the arrival of a *newer* message no longer
proves an older block is dead -- the receiver may hold views of it
indefinitely (a resident :class:`~repro.machine.dist_array.DistArray`
chunk decoded straight out of a ``put`` frame, a fetched result the
caller kept).  Each block therefore carries a 64-byte header in the
segment itself, holding an 8-byte *release flag*:

* the owner zeroes the flag when it allocates the block
  (:meth:`ShmPool.share`);
* the (single) consumer arms a :func:`weakref.finalize` on the
  zero-copy carrier it hands to ``pickle``; when the last decoded view
  dies, the finalizer writes the flag through the still-open mapping;
* the owner recycles a segment (:meth:`ShmPool.release_through`) only
  once **every** block in it is flagged *and* the runtime's ack
  frontier -- the last command seq whose results the driver collected,
  piggybacked on every command envelope -- has passed the newest round
  that allocated in it.  The frontier gate is the leak backstop: flags
  are authoritative for liveness, the frontier bounds how early a round
  may be reclaimed.

Every block has exactly one consumer: the driver addresses each frame
to a single worker (tree fan-out re-encodes per hop on the forwarding
worker's own pool), so one flag per block suffices -- no refcounts.

Segments are bump-allocated; recycling is wholesale per segment, so a
long-lived view pins only its own segment (fresh shares go to new
segments) and footprint stays bounded by the command in flight plus
whatever the receivers genuinely keep alive.  Segments of *other*
pools are attached lazily and cached (:meth:`ShmPool.materialize`), so
a recycled segment is never re-mmapped.

Prefaulting
-----------
tmpfs without huge pages takes one page fault per 4 KiB page the first
time a process writes it, and an untouched page costs 20-40 times a
warm one, so the staging copy into a fresh segment is dominated by
faults.  :meth:`ShmPool.share` therefore populates the pages a block is
about to write with one ``madvise(MADV_POPULATE_WRITE)`` before the
copy.  Each owned segment keeps a page-aligned mark of how far it is
populated; a block populates only its pages beyond the mark, so every
page is populated at most once, no page past a block's end is touched
(resident memory is what the copy would fault in anyway), and a
recycled segment never populates again.  The advice is Linux 5.14+;
anywhere it is unknown or refused (``OSError`` / ``ValueError``), the
copy faults page by page as before.  The consumer side is left alone:
populating the pages a reader maps would make resident what a reader
never reads.

``close()`` unlinks owned segments and detaches cached ones; both are
safe while zero-copy views are still alive (POSIX keeps the memory
until the last mapping closes, and mappings with exported views simply
stay open until those views die).  Because all segment names carry the
pool family's prefix (``reproshm-<driver pid>-<token>-``), a driver can
additionally reap the segments of workers that died without cleaning up
(:func:`reap_segments`), so leaked pools never outlive the backend --
the mp backend calls it from ``close()`` and from its ``atexit`` guard.

The size threshold is ``DEFAULT_THRESHOLD`` bytes, overridable per
backend (``MultiprocessingBackend(p, shm_threshold=...)``) or globally
through the ``REPRO_SHM_THRESHOLD`` environment variable (``0`` or a
negative value disables the shared-memory lane entirely; payloads then
ride the pipe inline, still out-of-band pickled).
"""

from __future__ import annotations

import mmap
import os
import secrets
import sys
import weakref
from multiprocessing import resource_tracker, shared_memory

import numpy as np

__all__ = [
    "DEFAULT_THRESHOLD",
    "ShmPool",
    "env_threshold",
    "reap_segments",
    "segment_names",
]

#: payloads of at least this many bytes ride shared memory (64 KiB --
#: below it the pipe's copy costs less than a segment round trip)
DEFAULT_THRESHOLD = 1 << 16

#: granularity of fresh segments (blocks are bump-allocated inside)
_SEGMENT_MIN = 1 << 22

#: keep at most this many idle segments across rounds
_MAX_SEGMENTS = 4

#: cached attachments to foreign segments (LRU-evicted beyond this)
_MAX_ATTACHED = 32

#: per-block header: 8-byte release flag, padded so payloads start
#: 64-byte aligned (cache-line; also a happy alignment for any dtype)
_HEADER = 64

_PREFIX_FMT = "reproshm-{pid}-{token}-"

_FLAG_CLEAR = b"\x00" * 8

_PAGE = mmap.PAGESIZE

#: ``madvise`` advice that prefaults a range writable (Linux 5.14+).
#: Python 3.11's ``mmap`` has no constant for it, and the value means
#: something else on other platforms, where no prefault is attempted.
_MADV_POPULATE_WRITE = 23 if sys.platform.startswith("linux") else None


def env_threshold(default: int | None = DEFAULT_THRESHOLD) -> int | None:
    """Resolve ``REPRO_SHM_THRESHOLD``: unset -> ``default``; ``0`` or
    negative -> ``None`` (shared-memory lane disabled)."""
    raw = os.environ.get("REPRO_SHM_THRESHOLD")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return value if value > 0 else None


def pool_family(token: str) -> str:
    """The segment-name prefix shared by a driver pool and its workers'
    pools (the reapable unit)."""
    return _PREFIX_FMT.format(pid=os.getpid(), token=token)


def new_token() -> str:
    return secrets.token_hex(4)


def segment_names(family: str) -> list[str]:
    """Live ``/dev/shm`` segments of one pool family (Linux; empty list
    where the tmpfs mount is not observable)."""
    try:
        return sorted(n for n in os.listdir("/dev/shm") if n.startswith(family))
    except OSError:  # pragma: no cover - non-Linux or restricted /dev
        return []


def reap_segments(family: str) -> int:
    """Force-unlink every surviving segment of ``family``; returns the
    number reaped.  Used for pools whose owners died uncleanly."""
    reaped = 0
    for name in segment_names(family):
        try:
            os.unlink(os.path.join("/dev/shm", name))
            reaped += 1
        except OSError:  # pragma: no cover - raced with owner cleanup
            continue
        _untrack("/" + name)
    return reaped


def _untrack(tracked_name: str) -> None:
    """Drop a resource_tracker registration we satisfied out of band."""
    try:
        resource_tracker.unregister(tracked_name, "shared_memory")
    except Exception:  # pragma: no cover - tracker already gone
        pass


def _prefault(shm: shared_memory.SharedMemory, start: int, stop: int) -> None:
    """Populate bytes ``[start, stop)`` of an owned mapping writable
    with one ``madvise`` call; where the advice is unknown or refused
    the caller's copy simply faults the pages in itself."""
    if _MADV_POPULATE_WRITE is None:
        return
    try:
        shm._mmap.madvise(_MADV_POPULATE_WRITE, start, stop - start)
    except (OSError, ValueError):
        pass


def _flag_release(shm: shared_memory.SharedMemory, flag_off: int) -> None:
    """Finalizer of a zero-copy carrier: tell the owning pool the block
    is dead.  ``shm`` is held by the finalizer itself, so the mapping is
    guaranteed open here; anything failing means the interpreter is
    tearing down and the owner's close/reap backstop covers us."""
    try:
        shm.buf[flag_off] = 1
    except Exception:  # pragma: no cover - interpreter shutdown
        pass


class _SafeSharedMemory(shared_memory.SharedMemory):
    """A segment handle whose ``close`` tolerates live exports.

    With zero-copy consumption a mapping legitimately outlives its
    handle: decoded views pin the pages until they die (the OS reclaims
    them with the last mapping), so closing a handle while views exist
    must be a deferral, not an error -- in particular inside ``__del__``
    at interpreter shutdown, where ``weakref.finalize``'s atexit pass
    can drop the handle before long-lived views are torn down."""

    def close(self) -> None:
        try:
            super().close()
        except BufferError:
            pass


class _Segment:
    """One owned shared-memory segment with a bump allocator."""

    __slots__ = ("shm", "capacity", "used", "pending", "high_round",
                 "populated")

    def __init__(self, name: str, capacity: int):
        self.shm = _SafeSharedMemory(name=name, create=True, size=capacity)
        self.capacity = self.shm.size  # kernel may round up
        self.used = 0
        #: flag offsets of blocks not yet confirmed dead by their consumer
        self.pending: list[int] = []
        #: newest round that allocated here since the last recycle
        self.high_round = 0
        #: bytes ``[0, populated)`` are faulted in (by the prefault, or by
        #: the copy where it was refused); page-aligned or the capacity.
        #: Survives recycling, so a reused range is never populated again
        self.populated = 0


class ShmPool:
    """Per-process shared-memory allocator + attach cache.

    Parameters
    ----------
    family:
        Name prefix shared with the sibling pools of one backend (see
        :func:`pool_family`).
    role:
        Distinguishes this pool's segments inside the family
        (``"d"`` for the driver, ``"w<rank>"`` per worker).
    threshold:
        Minimum payload size (bytes) routed through shared memory;
        ``None`` disables sharing (:meth:`share` always returns ``None``).
    """

    def __init__(self, family: str, role: str, threshold: int | None = DEFAULT_THRESHOLD):
        self.family = family
        # a non-positive threshold means "disabled", matching the
        # REPRO_SHM_THRESHOLD convention (0 turns the lane off)
        if threshold is not None and threshold <= 0:
            threshold = None
        self.threshold = threshold
        self._role = role
        self._segments: list[_Segment] = []
        self._seg_counter = 0
        self._attached: dict[str, shared_memory.SharedMemory] = {}
        self._closed = False
        #: command seq currently allocating blocks (set by begin_round)
        self._round = 0
        #: cumulative bytes copied into owned segments (tx accounting)
        self.bytes_shared = 0
        #: cumulative bytes consumed out of foreign segments (rx
        #: accounting; zero-copy reads count their mapped bytes)
        self.bytes_materialized = 0

    @property
    def enabled(self) -> bool:
        return self.threshold is not None and not self._closed

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def share(self, view: memoryview) -> tuple[str, int, int] | None:
        """Copy ``view`` into an owned block if it clears the threshold.

        Returns ``(segment_name, data_offset, flag_offset)`` for the
        descriptor, or ``None`` when the payload should stay on the
        pipe.  The block's release flag starts cleared; the consumer
        sets it once its last zero-copy view dies.
        """
        nbytes = view.nbytes
        if self.threshold is None or self._closed or nbytes < self.threshold:
            return None
        seg, flag_off, data_off = self._block(nbytes)
        end = data_off + nbytes
        if end > seg.populated:
            stop = min(-(-end // _PAGE) * _PAGE, seg.capacity)
            _prefault(seg.shm, seg.populated, stop)
            seg.populated = stop
        seg.shm.buf[flag_off:flag_off + 8] = _FLAG_CLEAR
        seg.shm.buf[data_off:data_off + nbytes] = view
        seg.used = end
        seg.pending.append(flag_off)
        # max, not assignment: the high-water mark must never regress,
        # or a block of a newer round could be recycled early
        seg.high_round = max(seg.high_round, self._round)
        self.bytes_shared += nbytes
        return seg.shm.name, data_off, flag_off

    def begin_round(self, seq: int) -> None:
        """Tag subsequent allocations with command ``seq`` (rounds are
        monotone: the runtime issues seqs in increasing order)."""
        self._round = seq

    def _block(self, nbytes: int) -> tuple[_Segment, int, int]:
        """Reserve header + payload space; returns the segment and the
        (flag, data) offsets of the fresh block."""
        for seg in self._segments:
            flag_off = -(-seg.used // _HEADER) * _HEADER
            if flag_off + _HEADER + nbytes <= seg.capacity:
                return seg, flag_off, flag_off + _HEADER
        name = f"{self.family}{self._role}.{self._seg_counter}"
        self._seg_counter += 1
        seg = _Segment(name, max(_SEGMENT_MIN, _HEADER + nbytes))
        self._segments.append(seg)
        return seg, 0, _HEADER

    def release_round(self) -> None:
        """Recycle every owned block unconditionally (the caller asserts
        all receivers are done -- e.g. a quiesced pool between runs).

        Idle segments beyond ``_MAX_SEGMENTS`` are unlinked so one burst
        of huge payloads does not pin its peak footprint forever; the
        *largest* segments are the ones retained, so a steady-state
        workload keeps reusing the same hot segments (stable names the
        peers' attach caches already hold) instead of churning fresh
        ones every round.
        """
        for seg in self._segments:
            seg.used = 0
            seg.pending.clear()
            seg.high_round = 0
        self._trim()

    def release_through(self, acked: int) -> None:
        """Recycle every segment whose blocks are all flagged dead by
        their consumers and whose newest allocating round is ``<=
        acked`` (the caller's ack frontier).  Flags are authoritative --
        a receiver may legitimately hold a zero-copy view long after its
        command settled -- and the frontier is the backstop: a block is
        never reclaimed before the driver has collected the results of
        the round that shared it."""
        for seg in self._segments:
            if not seg.used:
                continue
            if seg.pending:
                buf = seg.shm.buf
                seg.pending = [f for f in seg.pending if buf[f] == 0]
            if not seg.pending and seg.high_round <= acked:
                seg.used = 0
                seg.high_round = 0
        self._trim()

    def _trim(self) -> None:
        """Unlink the smallest idle segments beyond ``_MAX_SEGMENTS``
        (segments with live or unconfirmed blocks are never touched)."""
        excess = len(self._segments) - _MAX_SEGMENTS
        if excess <= 0:
            return
        idle = sorted(
            (s for s in self._segments if not s.used and not s.pending),
            key=lambda s: s.capacity,
        )
        for seg in idle[:excess]:
            self._segments.remove(seg)
            self._unlink(seg)

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def materialize(self, name: str, offset: int, nbytes: int,
                    flag_off: int | None = None):
        """Consume one block of a (possibly foreign) segment.

        With ``flag_off`` (the descriptor's flag offset) the block is
        consumed **zero-copy**: the returned carrier is a view of the
        owner's segment, and a finalizer on it writes the release flag
        once the last decoded object aliasing it dies.  Without
        ``flag_off`` the block is copied into private memory (legacy
        descriptors and direct reads).  Attachments are cached so a
        recycled segment is mapped once per process."""
        shm = self._attached.get(name)
        if shm is not None:
            # true LRU: re-insert on every hit so eviction below (which
            # pops the *least* recently used front entry) never throws
            # out a hot attachment
            self._attached[name] = self._attached.pop(name)
        else:
            own = next((s.shm for s in self._segments if s.shm.name == name), None)
            shm = own if own is not None else _SafeSharedMemory(name=name)
            if own is None:
                while len(self._attached) >= _MAX_ATTACHED:
                    lru = next(iter(self._attached))
                    self._detach(self._attached.pop(lru))
                self._attached[name] = shm
        self.bytes_materialized += nbytes
        if flag_off is None:
            return bytearray(shm.buf[offset:offset + nbytes])
        block = np.frombuffer(shm.buf, dtype=np.uint8, count=nbytes,
                              offset=offset)
        # the finalizer owns a reference to ``shm``, so the mapping
        # outlives every view no matter what the attach cache does
        weakref.finalize(block, _flag_release, shm, flag_off)
        return block

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _detach(self, shm: shared_memory.SharedMemory) -> None:
        # no unregister here: with the default fork start method every
        # process shares one resource tracker, where the attach-time
        # registration (py<3.13 registers unconditionally) deduplicates
        # against the owner's -- the owner's unlink drops the single
        # entry, and a second unregister would make the tracker complain
        try:
            # a close with live zero-copy views is a deferral (see
            # _SafeSharedMemory): the mapping dies with its last view
            shm.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def _unlink(self, seg: _Segment) -> None:
        try:
            seg.shm.close()
        except OSError:  # pragma: no cover - interpreter teardown
            pass
        try:
            seg.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - reaped by sibling
            pass  # the reaper already dropped the tracker entry
        except OSError:  # pragma: no cover - interpreter teardown
            pass

    def close(self) -> None:
        """Unlink owned segments and detach cached foreign ones."""
        if self._closed:
            return
        self._closed = True
        while self._segments:
            self._unlink(self._segments.pop())
        while self._attached:
            _, shm = self._attached.popitem()
            self._detach(shm)

    def __del__(self):  # pragma: no cover - interpreter-shutdown safety
        try:
            self.close()
        except Exception:
            pass
