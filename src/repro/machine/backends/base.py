"""The execution-backend protocol: who actually moves the bytes.

A :class:`~repro.machine.comm.Machine` splits every collective into two
planes:

* the **control plane** (cost charging, per-PE clocks, communication
  metering) stays in :class:`~repro.machine.comm.Machine` -- it is what
  makes the alpha-beta model's predictions reportable regardless of how
  the data plane is executed;
* the **data plane** (computing the per-PE result values of a
  collective) is delegated to a :class:`Backend`.

There is one data plane and two dialects of reaching it.  An SPMD step
(:meth:`Backend.run_spmd`) runs per-PE code where the chunks live and
``yield``s its collectives; a list-of-p collective
(:meth:`Backend.collective`) hands over every rank's request at once
and is the same thing as a step of one yield.  Both resolve through one
table of kinds, :func:`spmd_collective`.  Writing a backend is four
methods: ``collective``, ``put_chunks``, ``get_chunks`` and
``submit_spmd``.  Every backend runs one command at a time: a call
returns once its command completed.  Three backends ship with the
package:

``sim`` (:class:`~repro.machine.backends.sim.SimBackend`)
    Inherits everything here: results are computed in-process with
    deterministic combination orders (binomial-tree reductions, linear
    prefix scans).  The default; all reported *time* is modeled
    alpha-beta cost.

``mp`` (:class:`~repro.machine.backends.mp.MultiprocessingBackend`)
    Runs one OS worker process per PE; collectives physically move
    pickled payloads between the workers.  Combination orders replicate
    the simulated backend exactly, so results are bit-identical for the
    package's integer/array payloads.  Reported *wall-clock* reflects
    genuine parallel execution (the modeled cost is still charged, so
    both metrics stay available).

``tcp`` (:class:`~repro.machine.backends.tcp.TcpBackend`)
    The same worker runtime over length-framed stream sockets, so
    workers can live on other hosts (host list via ``hosts=`` /
    ``REPRO_TCP_HOSTS``; loopback by default).  Bit-identical to the
    other two backends as well.

Real backends share one three-layer architecture: the *transport*
(:mod:`repro.machine.backends.transport`) frames objects onto byte
streams, the *worker runtime* (:mod:`repro.machine.backends.runtime`)
owns the command loop, resident chunk store, exchange schedules and
driver dispatch, and a thin *launcher* per transport (``mp.py``,
``tcp.py``) wires workers to channels.

Reduction ``op`` arguments follow :data:`repro.machine.collectives.
REDUCTION_OPS`: the strings ``"sum"``/``"min"``/``"max"`` or a callable.
Real backends require ops and payloads to be picklable; the named
string ops always are.  SPMD callbacks need not be: the runtime ships a
lambda or closure by value (see ``mp.py``'s caveats).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import weakref
from typing import Callable, Sequence

from ..collectives import inclusive_scan, tree_reduce_order

__all__ = ["Backend", "ChunkRef", "LockstepError", "PendingValues", "PureStep"]


class PendingValues:
    """Handle to the per-PE values of a backend command.

    Returned by :meth:`Backend.submit_spmd`, already resolved: every
    backend runs a command to completion before it returns.  ``wait()``
    returns the values (idempotent; a thunk-built handle runs its thunk
    once).
    """

    __slots__ = ("_thunk", "_values")

    def __init__(self, thunk: Callable[[], object]):
        self._thunk = thunk
        self._values = None

    @classmethod
    def resolved(cls, values) -> "PendingValues":
        """A handle whose command already completed."""
        pending = cls(None)
        pending._values = values
        return pending

    @property
    def done(self) -> bool:
        return self._thunk is None

    def wait(self):
        if self._thunk is not None:
            self._values = self._thunk()
            self._thunk = None
        return self._values


class LockstepError(ValueError):
    """SPMD ranks diverged from the lockstep collective sequence.

    Every backend checks every SPMD step: the sim data plane compares
    the ranks' yields at each collective, real backends compare the
    per-rank collective traces each command returns with its values.
    Two ranks agree when their yields have the same
    :func:`_collective_signature`.  Subclasses :class:`ValueError`
    because a divergent kernel is a caller bug, not a transport
    failure.
    """


class PureStep(functools.partial):
    """An SPMD callback (a :func:`functools.partial`, called like one)
    whose output chunks are a pure function of the command: no state
    but its per-PE args and its input refs, and nothing mutates the
    outputs afterwards (``DistArray.generate``, and the tables the
    frequent-objects commands keep, ``Machine.run_command(PureStep(kernel),
    ..., keep=True)``).

    The type is the promise.  A real backend records the command --
    callback blob plus args, a few hundred bytes for ``generate`` --
    and the inputs' lineage as the output's whole lineage: a lost pool
    regenerates the ref and a read after close re-runs it in process.
    Because the outputs are immutable, the promise also ends their
    lineage there: a later command that only reads them records
    nothing.  In process it is just the callable.
    """


class ChunkRef:
    """Opaque handle to per-PE chunks pinned inside a backend.

    A ``ChunkRef`` names one resident object per PE (for real backends
    the objects live in the worker processes; for in-process backends
    they live in a driver-side store).  The handle frees its slots
    automatically when garbage collected, so intermediate arrays built
    by recursive algorithms never leak worker memory.
    """

    __slots__ = ("id", "p", "_finalizer", "__weakref__")

    def __init__(self, ref_id: int, p: int, free_fn: Callable[[int], None]):
        self.id = ref_id
        self.p = p
        self._finalizer = weakref.finalize(self, free_fn, ref_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChunkRef(id={self.id}, p={self.p})"


class Backend:
    """Data-plane executor for the collectives of one :class:`Machine`,
    and the in-process implementation of it (``sim`` adds nothing).

    Attributes
    ----------
    name:
        Registry key (``"sim"``, ``"mp"``, ...).
    is_real:
        True when collectives physically move data between OS processes
        (wall-clock is then a meaningful parallel-execution metric).
    wall_time:
        Cumulative seconds spent inside data-plane calls.
    """

    name: str = "abstract"
    is_real: bool = False
    #: transport capability flags (the zero-copy data plane).  In-process
    #: backends move no bytes and leave both False; real transports that
    #: frame messages as protocol-5 pickles with out-of-band buffers set
    #: ``supports_oob_pickle``, and those that additionally route large
    #: buffers through shared-memory segments set ``supports_shm``.
    #: Future socket/MPI backends opt out simply by not setting them.
    supports_oob_pickle: bool = False
    supports_shm: bool = False

    def __init__(self, p: int):
        if p < 1:
            raise ValueError(f"need at least one PE, got p={p}")
        self.p = int(p)
        self.wall_time: float = 0.0
        #: driver-side resident store (default data plane for in-process
        #: backends; real backends override the resident methods and keep
        #: the chunks in their workers instead)
        self._store: dict[int, list] = {}
        self._next_ref_id: int = 0

    # ------------------------------------------------------------------
    # Collectives (list-in, list-out; one entry per PE)
    # ------------------------------------------------------------------
    def collective(self, kind: str, requests: Sequence[tuple]) -> list:
        """One list-of-p collective; returns one result per PE.

        ``requests[i]`` is what rank ``i`` would yield from an SPMD
        kernel for this ``kind`` (the table is :func:`spmd_collective`),
        so the list-of-p dialect and the kernels share one data plane.
        In process that is the reference itself; real backends run the
        requests as a one-yield SPMD step in their workers.
        """
        return spmd_collective(kind, requests)

    # ------------------------------------------------------------------
    # Resident chunks (the SPMD data plane of DistArray)
    # ------------------------------------------------------------------
    # Per-PE chunks are pinned behind ChunkRef handles so per-PE
    # algorithm callbacks execute where the data lives and only small
    # values travel.  The default implementations below keep the store
    # in the driver process -- correct for any backend and free for the
    # in-process ``sim`` backend; ``mp`` overrides them to pin the
    # chunks inside its worker processes.

    def put_chunks(self, chunks: Sequence) -> ChunkRef:
        """Pin one object per PE; returns the opaque handle."""
        if len(chunks) != self.p:
            raise ValueError(f"need one chunk per PE, got {len(chunks)} for p={self.p}")
        ref_id = self._next_ref_id
        self._next_ref_id += 1
        self._store[ref_id] = list(chunks)
        return ChunkRef(ref_id, self.p, self._free_ref)

    def get_chunks(self, ref: ChunkRef) -> list:
        """Fetch the per-PE objects back to the driver (result assembly)."""
        return self._store[ref.id]

    def _free_ref(self, ref_id: int) -> None:
        """Release one handle's slots (called by ChunkRef finalizers)."""
        self._store.pop(ref_id, None)

    def map_resident(
        self,
        fn: Callable,
        refs: Sequence[ChunkRef],
        n_out: int = 0,
        args: Sequence[tuple] | None = None,
    ) -> tuple[list[ChunkRef], list, None]:
        """:meth:`run_spmd` spelled with a three-slot return,
        ``(out_refs, values, None)``, which the frozen ledger benchmark
        unpacks."""
        out_refs, values = self.run_spmd(fn, refs, n_out=n_out, args=args)
        return out_refs, values, None

    def run_spmd(
        self,
        fn: Callable,
        refs: Sequence[ChunkRef],
        n_out: int = 0,
        args: Sequence[tuple] | None = None,
    ) -> tuple[list[ChunkRef], list]:
        """Run ``fn(rank, *chunks, *args[rank])`` as one SPMD step on
        every PE, where the chunks live.

        ``fn`` returns ``n_out`` new chunks followed by a small per-PE
        value (just the value when ``n_out == 0``); the chunks stay
        resident behind fresh handles and only the values return.  A
        generator ``fn`` communicates on the way: it ``yield``s
        collective requests (the table is :func:`spmd_collective`) and
        receives their results::

            sample = chunk[idx]
            gathered = yield ("allgather", sample)
            ...
            totals = yield ("allreduce", counts, "sum")
            received = yield ("alltoall", row)  # row[j] -> PE j
            return part_a, part_b, value        # n_out chunks + a value

        Every rank must issue the identical yield sequence (standard
        SPMD discipline); a ``fn`` that returns without yielding is a
        step of zero collectives.  Real backends execute the whole step -- local
        work *and* the embedded collectives -- inside the workers in a
        single command round trip; chunks never leave the workers.  The
        embedded collectives use the same combination orders as the
        machine's, so results are bit-identical across backends.  Cost
        charging stays with the caller: ``Machine.run_command`` appends
        each yield's charge entry to the kernel's log and replays the
        logs.

        Returns ``(out_refs, values)``.
        """
        out_refs, pending = self.submit_spmd(fn, refs, n_out=n_out, args=args)
        return out_refs, pending.wait()

    def submit_spmd(
        self,
        fn: Callable,
        refs: Sequence["ChunkRef"],
        n_out: int = 0,
        args: Sequence[tuple] | None = None,
    ) -> tuple[list["ChunkRef"], PendingValues]:
        """:meth:`run_spmd` returning ``(out_refs, pending)``, where
        ``pending`` is a resolved :class:`PendingValues` of the per-PE
        values: the command has completed when this returns.  The one
        method a backend overrides to run SPMD steps elsewhere.
        """
        chunk_lists = [self._store[r.id] for r in refs]
        outs, values = _run_spmd_inprocess(self.p, fn, chunk_lists, n_out, args)
        out_refs = [self.put_chunks(chunks) for chunks in outs]
        return out_refs, PendingValues.resolved(values)

    @contextlib.contextmanager
    def coalesced(self):
        """A no-op block, kept because the frozen ledger benchmark
        enters it: commands run one at a time, so there is nothing to
        pack."""
        yield

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def worker_message_counts(self) -> list[int]:
        """Per-PE count of peer-to-peer transport messages sent so far.

        In-process backends move no physical messages and report zeros;
        real backends report their actual worker-exchange traffic (the
        quantity the O(p log p) schedules bound).
        """
        return [0] * self.p

    def transport_bytes(self) -> dict[str, dict[str, int]]:
        """Measured driver-side transport bytes per command kind:
        ``{kind: {"wire": ..., "shm": ...}}`` where ``wire`` counts bytes
        that physically crossed the command/result pipes and ``shm``
        counts payload bytes that rode shared-memory blocks instead.
        In-process backends move no bytes and return ``{}``; the machine
        mirrors these counters into :class:`~repro.machine.metrics.
        CommMetrics` (``wire_bytes``/``shm_bytes``).
        """
        return {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release backend resources (worker processes, queues).

        The driver-side resident store is deliberately left intact so
        results remain readable after close (real backends fetch
        nothing: a read after close replays the ref's lineage in
        process).
        """

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(p={self.p})"


def spmd_collective(kind: str, requests: Sequence[tuple]) -> list:
    """The collective table: reference data plane of every kind.

    ``requests[i]`` is rank i's request, as an SPMD kernel yields it and
    as :meth:`Backend.collective` passes it; the result is one entry per
    rank.  Reductions combine in binomial-tree order and prefixes in
    rank order, which is what the worker schedules reproduce.  ``op`` is
    a :data:`~repro.machine.collectives.REDUCTION_OPS` name or a
    callable; ``root`` / ``src`` / ``dst`` are read from rank 0's
    request (replicated by SPMD discipline).

    ======================================  ================================
    request                                 result at rank i
    ======================================  ================================
    ``("broadcast", v, root)``              the root's ``v``
    ``("reduce", v, op, root)``             the reduction at root, else None
    ``("allreduce", v, op)``                the reduction
    ``("scan", v, op)``                     ``op(v_0 .. v_i)``
    ``("allreduce_exscan", v, op, init)``   ``(reduction, op(v_0 .. v_i-1))``
    ``("reduce_allgather", v, op, w)``      ``(reduction of v, [w_0, ...])``
    ``("gather", v, root)``                 ``[v_0, ...]`` at root, else None
    ``("allgather", v)``                    ``[v_0, ...]``
    ``("scatter", pieces, root)``           the root's ``pieces[i]``
    ``("alltoall", row)``                   ``[row_0[i], row_1[i], ...]``
    ``("sendrecv", row, srcs)``             ``row_j[i]`` for j in ``srcs``
    ``("p2p", v, src, dst)``                ``src``'s ``v`` at dst, else None
    ======================================  ================================
    """
    p = len(requests)
    head = requests[0]
    # the kinds one rank feeds read that rank's request alone: a send
    # must not cost O(p) in process
    if kind == "broadcast":
        return [requests[head[2]][1]] * p
    if kind == "scatter":
        return list(requests[head[2]][1])
    if kind == "p2p":
        out: list = [None] * p
        out[head[3]] = requests[head[2]][1]
        return out
    payloads = [req[1] for req in requests]
    if kind == "reduce":
        out = [None] * p
        out[head[3]] = tree_reduce_order(payloads, head[2])
        return out
    if kind == "allreduce":
        return [tree_reduce_order(payloads, head[2])] * p
    if kind == "scan":
        return inclusive_scan(payloads, head[2])
    if kind == "allreduce_exscan":
        op, initial = head[2], head[3]
        total = tree_reduce_order(payloads, op)
        inc = inclusive_scan(payloads, op)
        return [(total, initial if i == 0 else inc[i - 1]) for i in range(p)]
    if kind == "reduce_allgather":
        total = tree_reduce_order(payloads, head[2])
        return [(total, [req[3] for req in requests])] * p
    if kind == "gather":
        out = [None] * p
        out[head[2]] = payloads
        return out
    if kind == "allgather":
        return [payloads] * p
    if kind == "alltoall":
        return [[payloads[i][j] for i in range(p)] for j in range(p)]
    if kind == "sendrecv":
        # Sparse personalized exchange: row[j] is this rank's payload
        # for j (None = no message) and srcs lists the ranks it expects
        # messages from (driver-derived, so real backends can deliver
        # directly in one hop without a discovery round).  The declared
        # srcs must match the non-None row entries exactly -- a mismatch
        # would silently drop or indefinitely await a message on a real
        # backend, so the reference path fails loudly.
        out = []
        for j in range(p):
            declared = set(requests[j][2])
            actual = {i for i in range(p) if i != j and payloads[i][j] is not None}
            if declared - {j} != actual:
                raise ValueError(
                    f"sendrecv mismatch at rank {j}: declared senders "
                    f"{sorted(declared)} but actual senders {sorted(actual)}"
                )
            out.append(
                [payloads[i][j] if (i == j or i in declared) else None for i in range(p)]
            )
        return out
    raise ValueError(f"unknown SPMD collective {kind!r}")


def _collective_signature(req: tuple) -> tuple:
    """Rank-comparable signature of one yielded collective.

    Kind plus whatever shapes the exchange: the reduction op (named ops
    compare as strings, callables by their ``__name__``) and the root or
    the sender-receiver pair.  Payloads stay out -- they legitimately
    differ per rank, and so does the sender set a ``sendrecv`` declares
    (a hypercube hop names its partner).
    """
    kind = req[0]
    if kind == "sendrecv":
        return (kind,)
    # the fourth slot of the fused kinds is a payload (initial / gathered)
    shape = req[2:3] if kind in ("allreduce_exscan", "reduce_allgather") else req[2:]
    return (kind, *(
        x if isinstance(x, (str, int))
        else getattr(x, "__name__", type(x).__name__)
        for x in shape
    ))


def _check_lockstep(traces: Sequence[Sequence[tuple]], where: str) -> None:
    """Raise :class:`LockstepError` unless every rank's collective trace
    (its :func:`_collective_signature` per yield, in order) equals rank
    0's; the message names ``where`` (the command), the diverging ranks
    and the first collective at which the first of them differs."""
    ref = traces[0]
    bad = [r for r in range(1, len(traces)) if traces[r] != ref]
    if not bad:
        return
    rank = bad[0]
    trace = traces[rank]
    step = next(
        (i for i, (x, y) in enumerate(zip(ref, trace)) if x != y),
        min(len(ref), len(trace)),
    )
    mine = trace[step] if step < len(trace) else "<kernel returned>"
    theirs = ref[step] if step < len(ref) else "<kernel returned>"
    raise LockstepError(
        f"SPMD lockstep violation in {where}: rank(s) {bad} diverged "
        f"from rank 0; first divergence at collective #{step}: rank "
        f"{rank} issued {mine} where rank 0 issued {theirs}"
    )


def _run_spmd_inprocess(
    p: int, fn: Callable, chunk_lists: Sequence[Sequence], n_out: int,
    args: Sequence[tuple] | None,
) -> tuple[list[list], list]:
    """Run one SPMD step in the driver process: call ``fn`` on every
    rank and drive the ranks that turned out generators in lockstep,
    checking at every collective that all ranks yielded the same
    signature (:func:`_check_lockstep`)."""
    gens: list = [None] * p
    results: list = [None] * p
    # each rank's pending yield; None once it returned
    requests: list = [None] * p
    done = 0
    for rank in range(p):
        ins = [chunks[rank] for chunks in chunk_lists]
        extra = tuple(args[rank]) if args is not None else ()
        res = fn(rank, *ins, *extra)
        if inspect.isgenerator(res):
            gens[rank] = res
            try:
                # advance to the first yield
                requests[rank] = res.send(None)
                continue
            except StopIteration as stop:
                res = stop.value
        results[rank] = res
        done += 1
    # the signatures every rank has yielded so far
    agreed: list[tuple] = []
    while done == 0:
        sigs = [_collective_signature(req) for req in requests]
        if sigs.count(sigs[0]) != p:
            _check_lockstep([agreed + [sig] for sig in sigs], "an in-process SPMD step")
        agreed.append(sigs[0])
        shared = spmd_collective(sigs[0][0], requests)
        for rank, gen in enumerate(gens):
            try:
                requests[rank] = gen.send(shared[rank])
            except StopIteration as stop:
                requests[rank] = None
                results[rank] = stop.value
                done += 1
    if done != p:
        _check_lockstep([
            agreed if req is None else agreed + [_collective_signature(req)]
            for req in requests
        ], "an in-process SPMD step")
    outs: list[list] = [[None] * p for _ in range(n_out)]
    values: list = [None] * p
    for rank, res in enumerate(results):
        if n_out:
            if not isinstance(res, tuple) or len(res) != n_out + 1:
                raise ValueError(
                    f"SPMD callback must return {n_out} chunks + 1 value, "
                    f"got {type(res).__name__}"
                )
            for j in range(n_out):
                outs[j][rank] = res[j]
            values[rank] = res[n_out]
        else:
            values[rank] = res
    return outs, values
