"""Distributed arrays: one NumPy chunk per PE, resident in the backend.

:class:`DistArray` is the input/output container of every algorithm in
this package.  Chunks are pinned behind an opaque
:class:`~repro.machine.backends.base.ChunkRef` handle in the machine's
execution backend -- in worker-process memory for real backends
(``"mp"``), in a driver-side store for the in-process default
(``"sim"``).  Per-PE algorithm callbacks therefore execute *where the
data lives* (:meth:`map_chunks`, :meth:`map_values`) and only small
per-PE values travel.  Generated input (:meth:`DistArray.generate`) never
crosses the process boundary at all: every worker draws its own chunk
and the driver keeps the command that did it -- a recipe of a few
hundred bytes -- instead of a copy.  Driver-born input (:meth:`from_global`,
``DistArray(machine, chunks)``) crosses once, when it is pinned, and any
array crosses once more if the driver asks for it (:attr:`chunks`,
:meth:`concat`).  On the ``mp`` backend those crossings ride the
zero-copy payload lanes (out-of-band pickling; shared-memory blocks
above the size threshold -- see the README's "Transports" section), so
pinning and fetching cost one memcpy per side instead of an in-band
pickle through the pipe.

Cross-PE data flow still goes exclusively through
:class:`repro.machine.Machine` collectives or the collectives an SPMD
kernel yields (:meth:`~repro.machine.backends.base.Backend.run_spmd`):
the resident map methods never communicate by themselves.
"""

from __future__ import annotations

import weakref
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .backends.base import ChunkRef, PureStep
from .comm import Machine

__all__ = ["DistArray", "generate_resident"]


# ----------------------------------------------------------------------
# Resident callbacks
# ----------------------------------------------------------------------

def _sort_chunk(rank: int, chunk: np.ndarray) -> tuple:
    return (np.sort(chunk), None)

def _negate_chunk(rank: int, chunk: np.ndarray) -> tuple:
    return (-chunk, None)

def _measured(fn: Callable, rank: int, chunk: np.ndarray) -> tuple:
    """Wrap a chunk->chunk callback so the driver learns the new size
    and dtype without fetching the (worker-resident) result."""
    out = np.asarray(fn(rank, chunk))
    if out.ndim != 1:
        raise ValueError(
            f"map_chunks callback must return a one-dimensional array, "
            f"got shape {out.shape} on PE {rank}"
        )
    return (out, (out.size, out.dtype.str))


def _generate_step(step: Callable, rank: int, state: dict) -> tuple:
    """Worker half of :func:`generate_resident`: run ``step`` on a
    generator resumed at ``state`` (a snapshot of the driver's
    ``machine.rngs[rank]``) and return its chunk, its meta and the
    advanced state, which the driver installs so its streams move
    exactly as if it had drawn the chunk itself."""
    bit_generator = getattr(np.random, state["bit_generator"])()
    bit_generator.state = state
    chunk, meta = step(rank, np.random.Generator(bit_generator))
    return (chunk, (meta, bit_generator.state))


def _shaped_chunk(make_chunk: Callable, rank: int, rng) -> tuple:
    chunk = np.asarray(make_chunk(rank, rng))
    return chunk, (chunk.shape, chunk.dtype.str)


def generate_resident(
    machine: Machine, step: Callable, immutable: bool = True,
) -> tuple[ChunkRef, list]:
    """Run ``step(rank, rng) -> (chunk, meta)`` on every PE of a real
    backend as ONE ``spmd`` command, each PE drawing from a snapshot of
    ``machine.rngs[rank]``; returns the chunks' ref and the per-PE metas.

    ``step`` must be a pure function of ``(rank, rng)``, so the command
    is the ref's whole lineage: the backend records it instead of the
    chunks.  ``immutable`` says that nothing changes the chunks later
    (the command is then a :class:`PureStep`, and commands that only
    read them record nothing); pass ``False`` for a state the kernels
    update in place.  Every stream is advanced before this
    returns, so a caller that then refuses a meta has moved the streams
    as far as sim, which draws all ``p`` chunks before it checks one.
    """
    wrap = PureStep if immutable else partial
    refs, metas = machine.backend.run_spmd(
        wrap(_generate_step, step), [], n_out=1,
        args=[(g.bit_generator.state,) for g in machine.rngs],
    )
    for g, (_, state) in zip(machine.rngs, metas):
        g.bit_generator.state = state
    return refs[0], [meta for meta, _ in metas]


def _chunks_dtype(dtypes: Sequence, sizes: Sequence[int]) -> np.dtype:
    """An array's dtype: its first non-empty chunk's (an empty chunk's
    dtype says nothing about the data; chunk 0's if all are empty)."""
    return np.dtype(next((d for d, n in zip(dtypes, sizes) if n), dtypes[0]))


def _require_1d(rank: int, shape: tuple) -> None:
    if len(shape) != 1:
        raise ValueError(
            f"chunk {rank} must be one-dimensional, got shape {shape}"
        )


#: wrapped-callback cache: repeated map_chunks with the same fn must
#: reuse one partial so real backends' pickle caches can hit (weak keys,
#: so user callbacks are not pinned alive)
_measured_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _measured_wrapper(fn: Callable) -> Callable:
    try:
        wrapped = _measured_cache.get(fn)
    except TypeError:  # unhashable or non-weakrefable callable
        return partial(_measured, fn)
    if wrapped is None:
        wrapped = partial(_measured, fn)
        try:
            _measured_cache[fn] = wrapped
        except TypeError:
            pass
    return wrapped


class DistArray:
    """A vector distributed over the PEs of a :class:`Machine`.

    Attributes
    ----------
    chunks:
        List of per-PE one-dimensional NumPy arrays.  ``chunks[i]``
        lives in PE ``i``'s memory; reading this property from the
        driver fetches resident chunks out of the backend (cheap for
        ``sim``, a real transfer for ``mp``) -- algorithms should prefer
        the resident map methods and :meth:`sizes`, which never move
        chunk data.  Cross-PE access requires machine collectives.
    """

    def __init__(
        self,
        machine: Machine,
        chunks: Sequence[np.ndarray] | None = None,
        *,
        ref: ChunkRef | None = None,
        sizes: Sequence[int] | None = None,
        dtype=None,
        resident: bool = False,
    ):
        self.machine = machine
        if (chunks is None) == (ref is None):
            raise ValueError("exactly one of chunks/ref is required")
        if chunks is not None:
            if len(chunks) != machine.p:
                raise ValueError(
                    f"need one chunk per PE: got {len(chunks)} chunks for p={machine.p}"
                )
            arr = [np.asarray(c) for c in chunks]
            for i, c in enumerate(arr):
                _require_1d(i, c.shape)
            self._chunks: list[np.ndarray] | None = arr
            self._sizes = np.array([c.size for c in arr], dtype=np.int64)
            self._dtype = _chunks_dtype([c.dtype for c in arr], self._sizes)
            self._ref: ChunkRef | None = None
            if resident:
                self._ensure_ref()
        else:
            if sizes is None:
                raise ValueError("resident construction requires sizes")
            self._chunks = None
            self._sizes = np.asarray(sizes, dtype=np.int64)
            self._dtype = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
            self._ref = ref

    # ------------------------------------------------------------------
    # Residency plumbing
    # ------------------------------------------------------------------
    def _ensure_ref(self) -> ChunkRef:
        """Pin the chunks in the backend (no-op if already resident)."""
        if self._ref is None:
            self._ref = self.machine.backend.put_chunks(self._chunks)
        return self._ref

    @property
    def chunks(self) -> list[np.ndarray]:
        if self._chunks is None:
            self._chunks = list(self.machine.backend.get_chunks(self._ref))
            if self._chunks and hasattr(self._chunks[0], "dtype"):
                self._dtype = _chunks_dtype(
                    [c.dtype for c in self._chunks], [c.size for c in self._chunks])
        return self._chunks

    def _map_resident(
        self,
        fn: Callable,
        n_out: int = 0,
        args: Sequence[tuple] | None = None,
    ) -> tuple[list[ChunkRef], list, None]:
        """Raw resident map (no charging -- call sites charge in their
        own order so modeled time is schedule-exact)."""
        return self.machine.backend.map_resident(
            fn, [self._ensure_ref()], n_out, args
        )

    def _wrap(self, ref: ChunkRef, sizes, dtype=None) -> "DistArray":
        return DistArray(
            self.machine, ref=ref, sizes=sizes,
            dtype=self._dtype if dtype is None else dtype,
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_global(cls, machine: Machine, data: np.ndarray) -> "DistArray":
        """Split ``data`` into ``p`` nearly equal contiguous chunks.

        This models the paper's input convention: each PE holds
        ``O(n/p)`` elements.  No communication is charged -- the input is
        assumed to already reside on the PEs (real backends pin the
        chunks into their workers here, before any timer starts).
        """
        data = np.asarray(data)
        return cls(
            machine,
            np.array_split(data, machine.p),
            resident=machine.backend.is_real,
        )

    @classmethod
    def generate(
        cls, machine: Machine, make_chunk: Callable[[int, np.random.Generator], np.ndarray]
    ) -> "DistArray":
        """Build per-PE chunks with each PE's own RNG stream.

        ``make_chunk(rank, rng)`` must return the local chunk for
        ``rank`` and must be a **pure function of** ``(rank, rng)``: on
        a real backend it runs in PE ``rank``'s worker, all PEs at once,
        and the chunk is born where it will be used -- it never visits
        the driver, which keeps the command (the callback and ``p``
        generator snapshots) instead of a copy of the data and re-runs
        it to restore the array after a worker failure or to read it
        after ``close()``.  State the callback captures is *copied* to
        each PE, not shared: capture sizes and distribution parameters,
        draw only from the ``rng`` argument (a driver-side generator
        captured by a lambda would hand every PE the same draws).
        ``machine.rngs[rank]`` advances exactly as if the driver had
        drawn the chunk, so data and every later draw are bit-identical
        on every backend.  A callback that cannot be rebuilt in a worker
        (see the ``mp`` backend's caveats) is run in the driver and its
        chunks are uploaded.
        """
        if not machine.backend.is_real:
            return cls(
                machine,
                [make_chunk(i, machine.rngs[i]) for i in range(machine.p)],
            )
        ref, metas = generate_resident(machine, partial(_shaped_chunk, make_chunk))
        for i, (shape, _) in enumerate(metas):
            _require_1d(i, shape)
        sizes = [shape[0] for shape, _ in metas]
        return cls(
            machine, ref=ref, sizes=sizes,
            dtype=_chunks_dtype([dtype for _, dtype in metas], sizes),
        )

    @classmethod
    def empty_like(cls, other: "DistArray") -> "DistArray":
        return cls(
            other.machine,
            [np.empty(0, dtype=other._dtype) for _ in range(other.machine.p)],
        )

    # ------------------------------------------------------------------
    # Inspection (driver-side; used by tests and result assembly, not by
    # the distributed algorithms themselves)
    # ------------------------------------------------------------------
    def sizes(self) -> np.ndarray:
        """Per-PE chunk lengths (a local quantity on each PE; tracked
        driver-side, so no chunk data moves)."""
        return self._sizes.copy()

    @property
    def global_size(self) -> int:
        return int(self._sizes.sum())

    def concat(self) -> np.ndarray:
        """Concatenate all chunks in rank order (test/driver-side oracle)."""
        if not self.chunks:
            return np.empty(0, dtype=self._dtype)
        return np.concatenate(self.chunks)

    @property
    def dtype(self):
        return self._dtype

    def __len__(self) -> int:
        return self.global_size

    # ------------------------------------------------------------------
    # Resident transforms: the callback runs where the chunk lives
    # ------------------------------------------------------------------
    def map_chunks(self, fn: Callable[[int, np.ndarray], np.ndarray], ops_per_elem: float = 1.0) -> "DistArray":
        """Apply ``fn(rank, chunk)`` on every PE, charging local work.

        On a real backend (``Machine(backend="mp")``) the per-PE
        applications run in the worker processes -- genuinely in
        parallel, with the chunks staying resident.  Lambdas and
        closures are shipped by value (what they capture is *copied* to
        each PE); only an ``fn`` that cannot be rebuilt in a worker --
        one that captures a lock, say -- falls back to the driver
        process.
        """
        refs, metas, _ = self._map_resident(_measured_wrapper(fn), n_out=1)
        self.machine.charge_ops(self._sizes.astype(np.float64) * ops_per_elem)
        sizes = [m[0] for m in metas]
        return DistArray(
            self.machine, ref=refs[0], sizes=sizes,
            dtype=_chunks_dtype([m[1] for m in metas], sizes),
        )

    def sort_local(self) -> "DistArray":
        """Sort each chunk locally (charges ``m log m`` per PE)."""
        sizes = self._sizes.astype(np.float64)
        self.machine.charge_ops(sizes * np.log2(np.maximum(sizes, 2.0)))
        refs, _, _ = self._map_resident(_sort_chunk, n_out=1)
        return self._wrap(refs[0], self._sizes)

    def negate(self) -> "DistArray":
        """Elementwise negation, in place in the workers (free in the
        cost model, like the sign flips the selection duals perform)."""
        refs, _, _ = self._map_resident(_negate_chunk, n_out=1)
        return self._wrap(refs[0], self._sizes)

    def map_values(
        self, fn: Callable, args: Sequence[tuple] | None = None
    ) -> list:
        """Apply ``fn(rank, chunk, *args[rank])`` on every PE and return
        only the per-PE values (no new chunks; nothing charged -- the
        call site charges its own op count)."""
        _, values, _ = self._map_resident(fn, n_out=0, args=args)
        return values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DistArray(p={self.machine.p}, n={self.global_size}, dtype={self.dtype})"
