"""Transport-agnostic worker runtime shared by every real backend.

A real backend is three layers:

* the **transport** (:mod:`repro.machine.backends.transport`) frames
  objects onto byte streams -- pipes for ``mp``, sockets for ``tcp``;
* this **runtime** owns everything above the bytes: the per-worker
  command loop (:func:`worker_loop`), the resident ``ChunkRef`` store,
  the logarithmic worker-exchange schedules, the SPMD generator driver,
  the broadcast-command fan-out and the driver-side command dispatch
  (:class:`RuntimeBackend`);
* the **launcher** (``mp.py`` / ``tcp.py``) wires the two together:
  it starts workers, builds their :class:`WorkerLinks`, and tears the
  pool down.

Because every real backend executes this same runtime, results and
modeled costs are bit-identical across ``sim``, ``mp`` and ``tcp`` for
every pipeline in the package (see
``tests/integration/test_resident_parity.py``).

Protocol
--------
The driver issues one command per operation, tagged with a
monotonically increasing sequence number.  A worker runs four command
kinds (:func:`_execute`): ``put`` and ``get`` move a resident chunk,
``stats`` reads the counters, and ``spmd`` runs per-PE code where the
chunks live -- a plain callback, a generator kernel that yields
collectives, or the one-yield kernel a list-of-p collective is issued
as (:meth:`RuntimeBackend.collective`); the callback may be a lambda or
a closure, which travels by value (:class:`_CallbackPickler`), and a
:class:`~repro.machine.backends.base.PureStep` command is kept as the
recipe of the chunks it made.  Every command but ``put`` rides
the **broadcast command channel**: the driver writes a single frame
(spec + the per-PE locals map) to rank 0's inbox and the workers fan it
out along the binomial tree, each forwarding its children their
subtree's slice of the locals -- O(1) driver sends
(:attr:`RuntimeBackend.driver_sends`) and exactly ``p - 1`` worker
forwards (:meth:`RuntimeBackend.command_fanout_counts`) instead of ``p``
serialized driver writes.  Workers exchange peer messages tagged with
the same sequence number (plus a per-schedule round tag) and stash
anything that arrives early, so fast workers can run ahead without
confusing slow ones.  A yielded collective becomes a logarithmic
exchange instead of direct O(p^2) delivery (:func:`_run_collective`,
the one place a kind meets its schedule):

* rooted kinds (broadcast, reduce, gather, scatter) walk a binomial
  tree -- ``p - 1`` messages, ``log p`` depth;
* replicated-result kinds (allgather, allreduce, scan, the fused
  ``allreduce_exscan``/``reduce_allgather``) share ONE dissemination
  (Bruck) schedule -- ``ceil(log2 p)`` rounds on the critical path,
  ``p * ceil(log2 p)`` messages on any ``p``, power of two or not; the
  reducing kinds combine the rank-ordered list locally in binomial-tree
  order, so values stay bit-identical to ``sim``;
* ``alltoall`` store-and-forwards along the same hop sequence
  (hypercube routing, Leighton Thm 3.24) -- ``p * ceil(log2 p)``
  messages instead of ``p * (p - 1)``;
* ``sendrecv`` and ``p2p`` payloads travel exactly one hop.

Every worker counts its sends; :meth:`RuntimeBackend.
worker_message_counts` exposes the totals so tests can assert the
O(p log p) bound.

One command in flight
---------------------
The driver issues a command and collects every rank's result before it
issues the next (:meth:`RuntimeBackend._run`), so a result for any seq
but the current one is a protocol error.  Each command envelope
carries the driver's *ack frontier* (the last seq whose results it
collected); shm pools recycle a segment only once every block in it is
flagged dead by its zero-copy consumer *and* the frontier has passed
the newest round that allocated in it
(:meth:`~repro.machine.backends.shm.ShmPool.release_through`) -- with
in-place consumption a collected command's blocks may outlive it
(resident chunks decoded straight out of the segment).
"""

from __future__ import annotations

import atexit
import hashlib
import importlib
import inspect
import io
import marshal
import os
import pickle
import queue as queue_mod
import sys
import time
import types
import weakref
from collections import deque
from typing import Callable, Sequence

from ..collectives import (
    binomial_edges,
    binomial_subtrees,
    bruck_hops,
    bruck_send_blocks,
    inclusive_scan,
    tree_reduce_order,
)
from .base import (
    Backend,
    ChunkRef,
    LockstepError,
    PendingValues,
    PureStep,
    _run_spmd_inprocess,
)

__all__ = [
    "Comm",
    "LockstepError",
    "PendingValues",
    "RuntimeBackend",
    "WorkerError",
    "WorkerFailure",
    "WorkerLinks",
    "worker_loop",
]

#: default per-command deadline (overridable per backend via
#: ``command_timeout``); also the worker-side peer-wait bound
_TIMEOUT = 120.0

#: how often a blocked worker re-checks driver liveness while waiting
_LIVENESS_INTERVAL = 5.0

#: how often the blocked driver probes worker liveness while waiting
_PROBE_INTERVAL = 0.25

#: pools that still own live worker processes (for the atexit guard)
_LIVE_POOLS: "weakref.WeakSet[RuntimeBackend]" = weakref.WeakSet()
_ATEXIT_REGISTERED = False


def _close_leaked_pools() -> None:  # pragma: no cover - interpreter exit path
    for backend in list(_LIVE_POOLS):
        try:
            backend.close()
        except Exception:
            pass


class WorkerFailure(RuntimeError):
    """A worker died or stopped answering during a command.

    Structured replacement for the raw ``EOFError`` / indefinite wait a
    dead rank used to cause: ``rank`` is the first known-affected rank
    (``None`` when it could not be attributed), ``seq`` the command it
    happened in, and ``phase`` is ``"dead"`` (the process is gone --
    EOF / waitpid) or ``"hung"`` (alive but past the command deadline).
    ``ranks`` lists every implicated rank.
    """

    def __init__(self, rank: int | None, seq: int, phase: str,
                 detail: str = "", ranks: tuple[int, ...] = ()):
        self.rank = rank
        self.seq = seq
        self.phase = phase
        self.ranks = tuple(ranks) if ranks else (
            (rank,) if rank is not None else ())
        who = (f"rank {rank}" if len(self.ranks) <= 1
               else f"ranks {list(self.ranks)}")
        if rank is None:
            who = "unknown rank"
        msg = f"worker {phase}: {who} during command seq {seq}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

class WorkerLinks:
    """Transport binding of one worker: where its bytes come from and go.

    The runtime never touches fds or frames; it sends runtime *items*
    (tagged tuples) to peers and the driver and receives its own inbox
    through this object.  Launchers subclass it per transport:

    * ``send(dst, item, drain)`` -- deliver ``item`` to peer ``dst``'s
      inbox (pipes: write the peer's pipe; sockets: write the pair's
      socket);
    * ``send_result(item, drain, pool)`` -- deliver to the driver
      (``pool=False`` forces the inline lane -- used for error markers
      and the stop acknowledgement, which must not depend on a
      shared-memory pool about to close);
    * ``recv(timeout)`` -- next item from this worker's own inbox, any
      source (raises ``queue.Empty`` on timeout, ``EOFError`` when the
      driver hung up).
    """

    def __init__(self, rank: int, p: int, pool=None, parent_pid: int | None = None,
                 faults=None):
        self.rank = rank
        self.p = p
        self.pool = pool
        self.parent_pid = parent_pid
        #: this rank's slice of an installed fault plan (None = no faults)
        self.faults = faults
        self.counters = {"msgs": 0, "cmd_fwd": 0, "wire_tx": 0, "shm_tx": 0}

    # -- liveness --------------------------------------------------------
    def orphaned(self) -> bool:
        """True when the spawning driver process is gone (fork-launched
        workers only; externally launched workers rely on driver EOF)."""
        return self.parent_pid is not None and os.getppid() != self.parent_pid

    def check_parent(self) -> None:
        """Hard-exit if orphaned: a worker spinning on a full channel or
        a contended lock would otherwise outlive a killed driver forever
        (inherited pipe/socket ends keep EOF from ever firing)."""
        if self.orphaned():
            os._exit(1)

    # -- transport hooks (subclass responsibility) -----------------------
    def send(self, dst: int, item, drain: Callable | None = None) -> None:
        raise NotImplementedError

    def send_result(self, item, drain: Callable | None = None,
                    pool: bool = True) -> None:
        raise NotImplementedError

    def recv(self, timeout: float | None = None):
        raise NotImplementedError

    def close(self) -> None:
        """Release transport resources (called as the loop exits)."""

    # -- fault-injection hooks (optional per transport) ------------------
    def sever(self, peer: int) -> None:
        """Cut this worker's link to ``peer`` (injected ``sever`` fault);
        transports without a severable lane treat it as a no-op."""

    def send_result_truncated(self, item) -> None:
        """Write only a prefix of ``item``'s result frame (injected
        ``truncate`` fault); the caller hard-exits right after.  The
        default writes nothing, degrading to a plain mid-command kill."""


class Comm:
    """Per-collective messaging context of one worker.

    Messages are addressed by ``(seq, tag, src)`` where ``tag`` is the
    schedule round, so multi-round schedules can never confuse two
    messages from the same peer, and out-of-order arrivals from
    run-ahead peers are stashed for their own collective.
    """

    __slots__ = ("rank", "p", "seq", "links", "backlog", "stash", "counters")

    def __init__(self, links: WorkerLinks, backlog: deque, stash: dict):
        self.rank = links.rank
        self.p = links.p
        self.seq = 0
        self.links = links
        self.backlog = backlog
        self.stash = stash
        self.counters = links.counters

    def send(self, dst: int, tag: int, payload) -> None:
        self.links.send(dst, ("msg", self.seq, tag, self.rank, payload),
                        drain=self.drain)
        self.counters["msgs"] += 1

    def drain(self) -> None:
        """Consume whatever already sits in this worker's inbox (called
        while a send waits on a full channel, keeping the mesh live).

        Doubles as the liveness check of every blocked wait loop.
        """
        self.links.check_parent()
        while True:
            try:
                item = self.links.recv(timeout=0)
            except queue_mod.Empty:
                return
            if item[0] != "msg":
                self.backlog.append(item)
            else:
                _, mseq, mtag, msrc, payload = item
                self.stash[(mseq, mtag, msrc)] = payload

    def recv(self, src: int, tag: int):
        key = (self.seq, tag, src)
        if key in self.stash:
            return self.stash.pop(key)
        # wait in liveness-interval slices rather than one long block, so
        # a worker stuck mid-collective still notices a vanished driver
        # within one cycle (and a dead peer within the overall bound)
        deadline = time.monotonic() + _TIMEOUT
        while True:
            try:
                item = self.links.recv(timeout=_LIVENESS_INTERVAL)
            except queue_mod.Empty:
                self.links.check_parent()
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"rank {self.rank}: no message from peer {src} "
                        f"(seq {self.seq}, tag {tag}) within {_TIMEOUT:.0f}s"
                    ) from None
                continue
            if item[0] != "msg":
                self.backlog.append(item)
                continue
            _, mseq, mtag, msrc, payload = item
            if (mseq, mtag, msrc) == key:
                return payload
            self.stash[(mseq, mtag, msrc)] = payload


# -- logarithmic worker schedules --------------------------------------

def _tree_bcast(comm: Comm, root: int, value, tag: int):
    """Binomial-tree broadcast: p-1 messages, log p depth."""
    edges = binomial_edges(comm.p, root)
    if comm.rank != root:
        parent = next(s for _, s, d in edges if d == comm.rank)
        value = comm.recv(parent, tag)
    for _, s, d in edges:
        if s == comm.rank:
            comm.send(d, tag, value)
    return value


def _tree_gather(comm: Comm, root: int, local, tag: int):
    """Binomial-tree gather of subtree bundles; rank-ordered list at
    ``root``, ``None`` elsewhere."""
    bundle = {comm.rank: local}
    for _, s, d in reversed(binomial_edges(comm.p, root)):
        if s == comm.rank:
            bundle.update(comm.recv(d, tag))
        elif d == comm.rank:
            comm.send(s, tag, bundle)
            return None
    return [bundle[j] for j in range(comm.p)]


def _tree_scatter(comm: Comm, root: int, pieces, tag: int):
    """Binomial-tree scatter: parents forward each child its subtree's
    bundle; returns this PE's piece."""
    edges = binomial_edges(comm.p, root)
    if comm.rank == root:
        bundle = {j: pieces[j] for j in range(comm.p)}
    else:
        parent = next(s for _, s, d in edges if d == comm.rank)
        bundle = comm.recv(parent, tag)
    subtrees = binomial_subtrees(comm.p, root)
    for _, s, d in edges:
        if s == comm.rank:
            comm.send(d, tag, {j: bundle[j] for j in subtrees[d]})
    return bundle[comm.rank]


def _bruck_allgather(comm: Comm, myval, tag_base: int) -> list:
    """Dissemination allgather: ceil(log2 p) rounds on any p, one
    message per PE per round; returns the rank-ordered value list.

    The one schedule under every replicated-result collective: the
    reducing kinds combine the returned list with ``tree_reduce_order``
    / ``inclusive_scan`` locally, so results keep the binomial-tree
    combination order of the sim backend while the critical path is
    ``ceil(log2 p)`` hops (a gather-to-root + broadcast pays twice
    that)."""
    rank, p = comm.rank, comm.p
    blocks = {rank: myval}
    for tag, hop in enumerate(bruck_hops(p)):
        dst = (rank + hop) % p
        src = (rank - hop) % p
        send = bruck_send_blocks(p, rank, hop, list(blocks))
        comm.send(dst, tag_base + tag, {b: blocks[b] for b in send})
        blocks.update(comm.recv(src, tag_base + tag))
    return [blocks[j] for j in range(p)]


def _bruck_alltoall(comm: Comm, row, tag_base: int) -> list:
    """Store-and-forward personalized exchange along the dissemination
    hop sequence: each payload travels the binary decomposition of its
    rank offset, p * ceil(log2 p) messages total."""
    rank, p = comm.rank, comm.p
    # (src, remaining_offset, payload); offset 0 means delivered
    pending = [(rank, (j - rank) % p, row[j]) for j in range(p) if j != rank]
    delivered = {rank: row[rank]}
    for tag, hop in enumerate(bruck_hops(p)):
        dst = (rank + hop) % p
        src = (rank - hop) % p
        moving = [(s, d - hop, v) for s, d, v in pending if d & hop]
        pending = [e for e in pending if not (e[1] & hop)]
        comm.send(dst, tag_base + tag, moving)
        for s, d, v in comm.recv(src, tag_base + tag):
            if d == 0:
                delivered[s] = v
            else:
                pending.append((s, d, v))
    return [delivered[j] for j in range(p)]


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


class _VerifiedValue:
    """Worker result of a ``verify=True`` SPMD command: the kernel's
    value plus this rank's collective trace and its digest (module-level
    so it pickles across the transport)."""

    def __init__(self, value, trace: tuple):
        self.value = value
        self.trace = trace
        # content digest rather than hash(): stable across worker
        # processes regardless of PYTHONHASHSEED
        self.digest = hashlib.sha1(repr(trace).encode()).hexdigest()


def _run_collective(comm: Comm, req: tuple, tag: int):
    """The worker half of the collective table
    (:func:`~repro.machine.backends.base.spmd_collective` is the
    reference): run one request as a logarithmic exchange in the tag
    block starting at ``tag`` and return this rank's result.  Rooted
    kinds walk the binomial tree, replicated-result kinds share the
    dissemination schedule and combine locally in the reference's
    order, ``alltoall`` routes along the hypercube and ``sendrecv`` /
    ``p2p`` payloads travel exactly one hop."""
    kind, rank = req[0], comm.rank
    if kind == "broadcast":
        return _tree_bcast(comm, req[2], req[1], tag)
    if kind == "gather":
        return _tree_gather(comm, req[2], req[1], tag)
    if kind == "reduce":
        recv = _tree_gather(comm, req[3], req[1], tag)
        return None if recv is None else tree_reduce_order(recv, req[2])
    if kind == "scatter":
        return _tree_scatter(comm, req[2], req[1], tag)
    if kind == "alltoall":
        return _bruck_alltoall(comm, list(req[1]), tag)
    if kind == "p2p":
        src, dst = req[2], req[3]
        if src == dst:
            return req[1] if rank == dst else None
        if rank == src:
            comm.send(dst, tag, req[1])
        return comm.recv(src, tag) if rank == dst else None
    if kind == "sendrecv":
        # message count = number of non-empty pairs; the expected-sender
        # lists come from the driver so no discovery round is needed
        row, srcs = list(req[1]), req[2]
        for dst, payload in enumerate(row):
            if dst != rank and payload is not None:
                comm.send(dst, tag, payload)
        res = [None] * comm.p
        res[rank] = row[rank]
        for src in srcs:
            if src != rank:
                res[src] = comm.recv(src, tag)
        return res
    if kind == "reduce_allgather":
        pairs = _bruck_allgather(comm, (req[1], req[3]), tag)
        total = tree_reduce_order([rv for rv, _ in pairs], req[2])
        return total, [gv for _, gv in pairs]
    if kind not in ("allgather", "allreduce", "scan", "allreduce_exscan"):
        raise ValueError(f"unknown SPMD collective {kind!r}")
    gathered = _bruck_allgather(comm, req[1], tag)
    if kind == "allgather":
        return gathered
    if kind == "allreduce":
        return tree_reduce_order(gathered, req[2])
    if kind == "scan":
        return inclusive_scan(gathered, req[2])[rank]
    op, initial = req[2], req[3]
    total = tree_reduce_order(gathered, op)
    return total, initial if rank == 0 else inclusive_scan(gathered, op)[rank - 1]


def _run_spmd_step(comm: Comm, step, trace: list | None = None):
    """Finish one SPMD step inside the worker.  ``step`` is what the
    callback returned: a generator is driven to its end, every yielded
    collective in its own tag block; anything else already is the result
    (a step of zero collectives).

    With ``trace`` (a list), record each yield's signature so the
    driver can assert lockstep across ranks after the command.
    """
    if not inspect.isgenerator(step):
        return step
    tag = 100
    try:
        req = step.send(None)
        while True:
            if trace is not None:
                trace.append(_collective_signature(req))
            req = step.send(_run_collective(comm, req, tag))
            tag += 32
    except StopIteration as stop:
        return stop.value


# -- command execution -------------------------------------------------

class WorkerError:
    """Marker wrapping an exception that happened inside a worker."""

    def __init__(self, message: str):
        self.message = message


def _execute(comm: Comm, spec, local, store):
    """Run one command on this worker; returns this PE's result."""
    kind = spec[0]
    if kind == "put":
        store[spec[1]] = local
        return None
    if kind == "get":
        return store[spec[1]]
    if kind == "spmd":
        fn = pickle.loads(spec[1])
        in_ids, out_ids = spec[2], spec[3]
        # specs from pre-verify drivers are 4-tuples; treat them as
        # verify-off rather than indexing past the end
        verify = len(spec) > 4 and bool(spec[4])
        ins = [store[i] for i in in_ids]
        extra = tuple(local) if local is not None else ()
        trace: list | None = [] if verify else None
        res = _run_spmd_step(comm, fn(comm.rank, *ins, *extra), trace)
        if out_ids:
            if not isinstance(res, tuple) or len(res) != len(out_ids) + 1:
                raise ValueError(
                    f"SPMD callback must return {len(out_ids)} chunks + 1 "
                    f"value, got {type(res).__name__}"
                )
            for oid, chunk in zip(out_ids, res):
                store[oid] = chunk
            res = res[len(out_ids)]
        if verify:
            return _VerifiedValue(res, tuple(trace))
        return res
    if kind == "stats":
        return {
            "msgs": comm.counters["msgs"],
            "cmd_fwd": comm.counters["cmd_fwd"],
            "wire_tx": comm.counters["wire_tx"],
            "shm_tx": comm.counters["shm_tx"],
            "resident": len(store),
            "stash": len(comm.stash),
        }
    raise ValueError(f"unknown backend command {kind!r}")


def worker_loop(links: WorkerLinks) -> None:
    """Command loop of one PE worker, over any transport.

    Runs until a ``stop`` command, driver EOF, or orphaning.  Owns this
    worker's resident chunk store and drives the broadcast-command
    fan-out: a ``bcmd`` frame is forwarded to the binomial-tree children
    *first* (they must not wait on our execution), pruned to each
    child's subtree so every edge carries only the locals its subtree
    needs.
    """
    rank, p = links.rank, links.p
    backlog: deque = deque()
    stash: dict = {}
    store: dict = {}
    pool = links.pool
    faults = links.faults
    comm = Comm(links, backlog, stash)
    # broadcast-command fan-out tree: the driver hands a full-pool command
    # to rank 0 only; every rank forwards its binomial-tree children their
    # subtree's slice of the per-PE locals
    tree_children = [d for _, s, d in binomial_edges(p, 0) if s == rank]
    subtree_of = binomial_subtrees(p, 0)
    try:
        while True:
            if backlog:
                item = backlog.popleft()
            else:
                try:
                    item = links.recv(timeout=5.0)
                except queue_mod.Empty:
                    # daemon workers survive a SIGKILL'd driver; bail out
                    # once the parent is gone instead of blocking forever
                    if links.orphaned():
                        return
                    continue
                except EOFError:
                    return  # driver closed the channel
            if item[0] == "msg":
                _, mseq, mtag, msrc, payload = item
                stash[(mseq, mtag, msrc)] = payload
                continue
            if item[0] == "bcmd":
                # forward first (children must not wait on our execution),
                # pruned to each child's subtree (a rank's local still hops
                # once per tree edge on its root path -- which is why the
                # arg-heavy "put" command keeps the direct driver path)
                _, seq, spec, locals_map, free_ids, acked = item
                if pool is not None:
                    # recycle what the consumers' release flags allow,
                    # bounded by the driver's ack frontier
                    pool.release_through(acked)
                    pool.begin_round(seq)
                for child in tree_children:
                    sub = {r: locals_map[r] for r in subtree_of[child] if r in locals_map}
                    links.send(child, ("bcmd", seq, spec, sub, free_ids, acked),
                               drain=comm.drain)
                    comm.counters["cmd_fwd"] += 1
                item = ("cmd", seq, spec, locals_map.get(rank), free_ids, acked)
            _, seq, spec, local, free_ids, acked = item
            if pool is not None:
                pool.release_through(acked)
                pool.begin_round(seq)
            for ref_id in free_ids:
                store.pop(ref_id, None)
            if stash:
                # commands execute in seq order, so a stashed message
                # addressed to an older seq can only be the leftover of a
                # failed collective -- evict it (messages of this seq from
                # peers that started it first stay put).
                for key in [k for k in stash if k[0] < seq]:
                    del stash[key]
            if spec[0] == "stop":
                links.send_result((rank, seq, None), drain=comm.drain,
                                  pool=False)
                return
            comm.seq = seq
            if faults is not None:
                faults.fire("before", seq, links)
            try:
                result = _execute(comm, spec, local, store)
                corrupt = False
                if faults is not None:
                    faults.fire("after", seq, links)
                    if faults.truncate_at(seq):
                        from ..faults import FAULT_EXIT

                        links.send_result_truncated((rank, seq, result))
                        os._exit(FAULT_EXIT)
                    corrupt = faults.corrupt_at(seq) and links.pool is not None
                if corrupt:
                    from ..faults import CorruptingPool

                    real_pool = links.pool
                    links.pool = CorruptingPool(real_pool)
                    try:
                        links.send_result((rank, seq, result), drain=comm.drain)
                    finally:
                        links.pool = real_pool
                else:
                    links.send_result((rank, seq, result), drain=comm.drain)
            except Exception as exc:  # surface worker failures to the driver
                try:
                    links.send_result((rank, seq, WorkerError(repr(exc))),
                                      drain=comm.drain, pool=False)
                except (EOFError, OSError):
                    return  # driver is gone; nothing left to report to
    finally:
        links.close()


# ----------------------------------------------------------------------
# Callback shipping (driver pickles, worker rebuilds)
# ----------------------------------------------------------------------

def _rebuild_function(code: bytes, module: str, name: str, qualname: str,
                      defaults, kwdefaults, cells: tuple):
    """Worker half of by-value function shipping: the code object around
    its defining module's globals, as the worker sees that module."""
    fn = types.FunctionType(
        marshal.loads(code), importlib.import_module(module).__dict__,
        name, defaults, tuple(types.CellType(v) for v in cells),
    )
    fn.__qualname__ = qualname
    fn.__kwdefaults__ = kwdefaults
    return fn


class _CallbackPickler(pickle.Pickler):
    """Pickles an SPMD callback.  A plain Python function that pickle
    cannot name -- a lambda, a closure, a nested ``def`` -- goes **by
    value**: marshalled code object, the name of the module whose
    globals it runs against, defaults and the closure cells' contents
    (:func:`_rebuild_function` is the other half).  Cell contents are
    *copied* to every PE, and globals resolve in the worker's copy of
    the module.  Anything that cannot be rebuilt that way -- the module
    is not in ``sys.modules`` or does not own the function's globals, a
    cell holds something unpicklable -- fails here, in the driver,
    before a seq is consumed."""

    by_value = False

    def reducer_override(self, obj):
        if type(obj) is not types.FunctionType:
            return NotImplemented
        found = module = sys.modules.get(obj.__module__)
        try:
            for part in obj.__qualname__.split("."):
                found = getattr(found, part)
        except AttributeError:
            found = None
        if found is obj or getattr(module, "__dict__", None) is not obj.__globals__:
            return NotImplemented  # by reference, or pickle's own refusal
        self.by_value = True
        return _rebuild_function, (
            marshal.dumps(obj.__code__), obj.__module__, obj.__name__,
            obj.__qualname__, obj.__defaults__, obj.__kwdefaults__,
            tuple(c.cell_contents for c in obj.__closure__ or ()),
        )


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------

def _collective_step(rank: int, *request):
    """A list-of-p collective as an SPMD step: yield this rank's
    request, return its result."""
    return (yield request)


class RuntimeBackend(Backend):
    """Shared driver half of the worker runtime.

    Owns command sequencing, the broadcast command channel, result
    collection, resident ``ChunkRef`` bookkeeping, close-time salvage
    and transport byte accounting.  Launcher subclasses provide the
    transport and lifecycle through four hooks:

    * ``_start_pool()`` -- start the workers and set ``self._inboxes``
      (one frame channel per rank, ``put``-capable) and
      ``self._results`` (the driver's result inbox, ``get``-capable);
      optionally set ``self._pool`` to a driver-side shm pool.
    * ``_join_workers()`` -- wait for workers after the stop command.
    * ``_teardown()`` -- release transport resources (always runs).
    * ``_teardown_idle()`` -- release resources of a never-started pool.
    """

    is_real = True

    #: pinned callback pickles kept for reuse (LRU bound of ``_blob``)
    _BLOB_CACHE = 256

    #: commands in flight at once: always one (the ledger benchmark
    #: reads the attribute)
    max_inflight = 1

    def __init__(self, p: int, verify: bool = False,
                 command_timeout: float | None = None,
                 faults=None, journal: bool = False):
        super().__init__(p)
        #: per-command deadline: a command whose results have not fully
        #: arrived after this many seconds fails with a structured
        #: :class:`WorkerFailure` (phase ``"hung"``) instead of waiting
        #: forever; worker deaths are detected much sooner by the
        #: liveness probe (phase ``"dead"``).
        self.command_timeout = (
            float(command_timeout) if command_timeout else _TIMEOUT
        )
        # -- deterministic fault injection ------------------------------
        if faults is None:
            faults = os.environ.get("REPRO_FAULTS") or None
        if isinstance(faults, str):
            from ..faults import FaultPlan

            faults = FaultPlan.parse(faults)
        #: installed fault plan (dropped on the first recovery so an
        #: injected death cannot re-fire on the respawned pool)
        self.faults = faults
        # -- chunk journal / recovery -----------------------------------
        #: opt-in driver-side provenance journal: every ``put`` and every
        #: resident/SPMD command is recorded so a lost pool can be
        #: rebuilt bit-identically (:meth:`recover`).  Also enables
        #: automatic recovery on the next command after a failure.
        self.journal_enabled = bool(journal)
        self._journal: list[tuple] = []
        #: refs that could not be restored after a worker failure
        self._lost_ids: set[int] = set()
        #: the failure that broke the pool (None = healthy)
        self._failure: WorkerFailure | None = None
        self._recovering = False
        #: completed pool recoveries (restart + restore)
        self.recoveries = 0
        #: lockstep verification: when set, every SPMD command also
        #: collects each rank's collective trace and the driver raises
        #: :class:`LockstepError` on divergence.  Off by default -- it
        #: adds a per-command trace payload to every result frame.
        self.verify = bool(verify)
        self._seq = 0
        #: ack frontier: the last seq whose results were all collected;
        #: piggybacked on command envelopes for the workers' shm round
        #: recycling
        self._acked = 0
        self._inboxes: list = []
        self._results = None
        self._started = False
        self._closed = False
        self._dead_refs: list[int] = []
        self._live_ids: set[int] = set()
        #: ``out ref id -> ("spmd", blob, (), out_ids, args)`` of every
        #: live ref a :class:`PureStep` produced: the command that made
        #: the chunks stands in for a driver-side copy of them (kept
        #: whether or not the journal is on)
        self._recipes: dict[int, tuple] = {}
        self._fn_blobs: dict[int, tuple[Callable, bytes]] = {}
        #: driver-side shm pool (``None`` for transports without a
        #: shared-memory lane; every payload then rides the wire inline)
        self._pool = None
        #: driver-side channel writes issued for commands -- the fan-out
        #: the broadcast command channel bounds at O(1) per full-pool
        #: command (one frame to rank 0; workers tree-forward the rest)
        self.driver_sends: int = 0
        #: driver-side transport accounting per command kind:
        #: ``{kind: {"wire": bytes_on_the_wire, "shm": bytes_via_shm}}``
        self._transport: dict[str, dict[str, int]] = {}
        self._tx = {"wire_tx": 0, "shm_tx": 0}

    def transport_bytes(self) -> dict[str, dict[str, int]]:
        return self._transport

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _start_pool(self) -> None:
        raise NotImplementedError

    def _join_workers(self) -> None:
        raise NotImplementedError

    def _teardown(self) -> None:
        raise NotImplementedError

    def _teardown_idle(self) -> None:
        """Release resources of a pool closed before it ever started."""

    def _dead_workers(self) -> list[str]:
        """Names of workers known to have died (timeout diagnostics)."""
        return []

    def _dead_ranks(self) -> list[int]:
        """Ranks whose worker process is known dead (liveness probe);
        launchers override.  The default cannot observe deaths."""
        return []

    def _reset_for_restart(self) -> None:
        """Drop transport state so ``_start_pool`` can run again
        (recovery path); launchers override to also rotate shm families,
        worker lists etc."""
        self._inboxes = []
        self._results = None

    @property
    def broken(self) -> bool:
        """True after a :class:`WorkerFailure` until the pool recovers."""
        return self._failure is not None

    def _ensure_started(self) -> None:
        if self._closed:
            raise RuntimeError("backend already closed")
        if self._failure is not None and not self._recovering:
            # auto-recovery: with the journal on, the next command after
            # a failure transparently restarts and restores the pool
            if self.journal_enabled:
                self.recover()
            else:
                raise RuntimeError(
                    "worker pool is broken (journal off -- enable "
                    "Machine(..., journal=True) for automatic recovery, "
                    "or call recover() explicitly)"
                ) from self._failure
        if self._started:
            return
        self._start_pool()
        self._started = True
        global _ATEXIT_REGISTERED
        if not _ATEXIT_REGISTERED:
            atexit.register(_close_leaked_pools)
            _ATEXIT_REGISTERED = True
        _LIVE_POOLS.add(self)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut the worker pool down; safe to call any number of times.

        Live resident chunks are salvaged into the driver-side store
        first, so a ``DistArray`` result stays readable after its
        machine's context exits.  A broken pool (post-failure) skips the
        stop handshake -- it would block on dead workers -- and goes
        straight to best-effort salvage plus teardown.
        """
        if self._closed:
            return
        if self._started and self._failure is not None:
            self._closed = True
            _LIVE_POOLS.discard(self)
            try:
                self._salvage_broken()
            finally:
                self._teardown()
            return
        if self._started:
            try:
                self._salvage_resident()
            except WorkerFailure:
                # the pool died under the salvage: fall through to the
                # broken-pool path below
                pass
            except Exception:  # pragma: no cover - dead-pool cleanup path
                pass
        self._closed = True
        _LIVE_POOLS.discard(self)
        if not self._started:
            self._teardown_idle()
            return
        if self._failure is not None:
            try:
                self._salvage_broken()
            finally:
                self._teardown()
            return
        try:
            self._seq += 1
            for rank in range(self.p):
                try:
                    self._inboxes[rank].put(
                        ("cmd", self._seq, ("stop",), None, (), self._acked)
                    )
                except OSError:  # pragma: no cover - worker already dead
                    pass
            self._join_workers()
        finally:
            self._teardown()

    # ------------------------------------------------------------------
    # Recovery: pool restart + chunk restore
    # ------------------------------------------------------------------
    def recover(self) -> None:
        """Restart the broken pool and restore its resident chunks.

        The transport meshes (inherited pipe ends on mp, rank-ordered
        sockets on tcp) are fixed at launch, so recovery is a full pool
        restart rather than a single-rank respawn: terminate what is
        left, reap the old shm segments, fork/register a fresh pool, and
        re-materialize every live ref -- from the driver-side store for
        driver-born chunks, from its recipe for generated ones, from the
        journal replay for worker-computed ones.  Refs that cannot be
        restored land in ``_lost_ids`` and raise a clear error at their
        next read.
        """
        if self._closed:
            raise RuntimeError("backend already closed")
        if self._recovering:  # pragma: no cover - re-entrancy guard
            return
        self._recovering = True
        try:
            failure = self._failure
            if self._started:
                self._teardown()
            self._reset_for_restart()
            # fresh pool, fresh protocol state: seqs restart at 0
            self._seq = 0
            self._acked = 0
            self._failure = None
            # injected faults must not re-fire on the respawned pool
            # (seqs restart, so the same plan would kill it again)
            self.faults = None
            self._started = False
            self._ensure_started()
            if failure is not None:
                self._restore_live_refs()
            self.recoveries += 1
        finally:
            self._recovering = False

    def _restore_live_refs(self) -> None:
        """Re-materialize every live ref on the fresh pool: driver-held
        chunks are re-put directly; worker-computed chunks are replayed
        from the journal (bit-identical -- recorded args carry the
        counter-addressed ``DrawAddress`` of any randomness the
        original issue consumed) and generated ones, journal or not,
        re-run their recipe.  Anything else is lost."""
        replayed = self._replay_journal() if self.journal_enabled else set()
        for ref_id in sorted(self._live_ids):
            if ref_id in replayed:
                continue
            chunks = self._store.get(ref_id)
            recipe = self._recipes.get(ref_id)
            if chunks is not None:
                self._run(("put", ref_id), list(chunks))
            elif recipe is not None:
                self._run(recipe[:4], recipe[4])
                replayed.update(recipe[3])
            else:
                self._lost_ids.add(ref_id)

    def _replay_journal(self) -> set[int]:
        """Replay the journal entries a live ref transitively depends on;
        returns the set of ref ids restored worker-side."""
        self._prune_journal()
        restored: set[int] = set()
        for entry in self._journal:
            if entry[0] == "put":
                _, ref_id, chunks = entry
                self._run(("put", ref_id), list(chunks))
                restored.add(ref_id)
            else:  # "spmd"
                _, blob, in_ids, out_ids, args = entry
                self._run(("spmd", blob, in_ids, out_ids), args)
                restored.update(in_ids)
                restored.update(out_ids)
        # replay may have re-created refs freed since; free them again
        dead = restored - self._live_ids
        if dead:
            self._dead_refs.extend(sorted(dead))
        return restored & self._live_ids

    def _record(self, entry: tuple) -> None:
        """Append one provenance entry (suppressed during replay)."""
        if not self.journal_enabled or self._recovering:
            return
        self._journal.append(entry)
        if len(self._journal) % 256 == 0:
            self._prune_journal()

    def _prune_journal(self) -> None:
        """Drop journal entries no live ref transitively depends on.  An
        entry is needed if it touches any needed id -- inputs count too,
        because resident kernels may mutate them in place."""
        needed = set(self._live_ids)
        kept: list[tuple] = []
        for entry in reversed(self._journal):
            if entry[0] == "put":
                if entry[1] in needed:
                    kept.append(entry)
            else:
                in_ids, out_ids = entry[2], entry[3]
                if needed & (set(in_ids) | set(out_ids)):
                    kept.append(entry)
                    needed.update(in_ids)
        kept.reverse()
        self._journal = kept

    def _salvage_broken(self) -> None:
        """Best-effort chunk salvage from a broken pool: ask each
        surviving rank directly (short timeout, direct frames -- the
        broadcast tree may route through the dead rank).  Only refs
        recovered from *every* rank become readable; the rest are lost."""
        dead = set(self._dead_ranks())
        want = [rid for rid in sorted(self._live_ids)
                if rid not in self._store and rid not in self._recipes]
        if not want:
            return
        alive = [r for r in range(self.p) if r not in dead]
        salvaged: dict[int, list] = {rid: [None] * self.p for rid in want}
        got: dict[int, set[int]] = {rid: set() for rid in want}
        try:
            for rid in want:
                self._seq += 1
                for rank in alive:
                    self._inboxes[rank].put(
                        ("cmd", self._seq, ("get", rid), None, (),
                         self._acked)
                    )
            deadline = time.monotonic() + 5.0
            expect = len(want) * len(alive)
            seen = 0
            while seen < expect and time.monotonic() < deadline:
                try:
                    rank, rseq, value = self._results.get(
                        timeout=0.25, pool=self._pool
                    )
                except queue_mod.Empty:
                    continue
                for rid, fut_seq in zip(
                    want, range(self._seq - len(want) + 1, self._seq + 1)
                ):
                    if rseq == fut_seq:
                        if not isinstance(value, WorkerError):
                            salvaged[rid][rank] = value
                            got[rid].add(rank)
                        seen += 1
                        break
        except Exception:  # pragma: no cover - salvage is best-effort
            pass
        for rid in want:
            # partial rows are useless: a chunked structure with a hole
            # would silently mis-answer, so only full covers count
            if got[rid] == set(range(self.p)):
                self._store[rid] = salvaged[rid]
            else:
                self._lost_ids.add(rid)

    def __del__(self):  # pragma: no cover - interpreter-shutdown safety
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Driver-side dispatch: one command in flight
    # ------------------------------------------------------------------
    def _declare_failure(self, seq: int, phase: str,
                         ranks: Sequence[int], detail: str = "") -> None:
        """Convert a detected worker death / hang into a structured
        :class:`WorkerFailure`: mark the pool broken and raise."""
        ranks = tuple(ranks)
        self._failure = WorkerFailure(
            rank=ranks[0] if ranks else None,
            seq=seq, phase=phase, detail=detail, ranks=ranks,
        )
        raise self._failure

    def _send(self, seq: int, spec: tuple, locals_per_pe: Sequence) -> None:
        """Frame command ``seq``.  Broadcast command channel: one driver
        send regardless of p; rank 0 fans the frame out along the
        binomial tree.  Chunk uploads (``put``) keep the direct path --
        their per-PE locals are the one arg-heavy payload, and tree
        forwarding would re-serialize each rank's chunk once per edge on
        its root path (~(log2 p)/2 times on average) for no latency
        benefit."""
        free_ids = tuple(self._dead_refs)
        self._dead_refs.clear()
        wire0, shm0 = self._tx["wire_tx"], self._tx["shm_tx"]
        if self._pool is not None:
            self._pool.begin_round(seq)
        if spec[0] == "put":
            frames = [
                (self._inboxes[rank], ("cmd", seq, spec, locals_per_pe[rank],
                                       free_ids, self._acked))
                for rank in range(self.p)
            ]
        else:
            locals_map = {r: locals_per_pe[r] for r in range(self.p)}
            frames = [(self._inboxes[0], ("bcmd", seq, spec, locals_map,
                                          free_ids, self._acked))]
        for inbox, frame in frames:
            inbox.put(frame, pool=self._pool, counters=self._tx)
            self.driver_sends += 1
        tb = self._transport.setdefault(spec[0], {"wire": 0, "shm": 0})
        tb["wire"] += self._tx["wire_tx"] - wire0
        tb["shm"] += self._tx["shm_tx"] - shm0

    def _collect(self, seq: int, kind: str) -> list:
        """Collect every rank's result of command ``seq`` and advance
        the ack frontier to it; worker errors raise.

        The loop doubles as the failure detector: between short receive
        slices it probes worker liveness (a dead process surfaces within
        ``_PROBE_INTERVAL`` seconds as phase ``"dead"``) and enforces
        the per-command deadline (``command_timeout`` -> phase
        ``"hung"``).  Either way the caller gets a structured
        :class:`WorkerFailure`, never an indefinite block."""
        out: list = [None] * self.p
        failures: list[tuple[int, str]] = []
        pending = set(range(self.p))
        wire0, shm0 = self._results.wire_rx, self._results.shm_rx
        deadline = time.perf_counter() + self.command_timeout
        while pending:
            try:
                rank, rseq, value = self._results.get(
                    timeout=_PROBE_INTERVAL, pool=self._pool)
            except queue_mod.Empty:
                pass
            except Exception as exc:
                # EOF, a dead socket, a corrupted frame, a bogus shm
                # descriptor: transport-level loss of a worker
                dead = self._dead_ranks()
                # the death that corrupted the stream may not be
                # reapable yet (the garbage arrives before the exit is
                # visible); give attribution a moment
                for _ in range(20):
                    if dead:
                        break
                    time.sleep(0.05)
                    dead = self._dead_ranks()
                self._declare_failure(seq, "dead", dead, detail=repr(exc))
            else:
                if rseq != seq:
                    raise RuntimeError(
                        f"backend protocol error: result for seq {rseq} "
                        f"while collecting seq {seq}"
                    )
                if isinstance(value, WorkerError):
                    failures.append((rank, value.message))
                else:
                    out[rank] = value
                pending.discard(rank)
                continue
            dead = self._dead_ranks()
            if dead:
                self._declare_failure(seq, "dead", dead)
            if time.perf_counter() >= deadline:
                self._declare_failure(
                    seq, "hung", sorted(pending),
                    detail=f"no result within command_timeout="
                           f"{self.command_timeout:.0f}s",
                )
        tb = self._transport.setdefault(kind, {"wire": 0, "shm": 0})
        tb["wire"] += self._results.wire_rx - wire0
        tb["shm"] += self._results.shm_rx - shm0
        self._acked = seq
        if self._pool is not None:
            # recycle the segments whose blocks the workers flagged
            # dead, up to the collected-results frontier
            self._pool.release_through(seq)
        if failures:
            raise RuntimeError("; ".join(
                f"worker {r} failed: {m}" for r, m in failures))
        return out

    def _run(self, spec: tuple, locals_per_pe: Sequence) -> list:
        """Issue one command and collect its results."""
        self._ensure_started()
        t0 = time.perf_counter()
        try:
            self._seq += 1
            self._send(self._seq, spec, locals_per_pe)
            return self._collect(self._seq, spec[0])
        finally:
            self.wall_time += time.perf_counter() - t0

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def collective(self, kind: str, requests: Sequence[tuple]) -> list:
        # one command, one in-worker schedule, one result per rank: the
        # requests ride the command frame as the step's per-PE args
        return self._spmd(_collective_step, (), 0, requests)[1]

    # ------------------------------------------------------------------
    # Resident chunks
    # ------------------------------------------------------------------
    def _blob(self, fn) -> bytes:
        """Pickle a callback (:class:`_CallbackPickler`), once per
        identity where it pickles by reference (hot loops reuse it).

        The cache pins the callable itself so its ``id`` cannot be
        recycled by the allocator while the entry is alive.  It is
        LRU-bounded at ``_BLOB_CACHE`` entries so a long-running serve
        pool cycling through distinct callbacks cannot grow it without
        limit (evicting is always safe: a command's blob bytes leave
        with its envelope).  A blob that carries a
        function by value is rebuilt per call: its closure cells may
        have been rebound since.
        """
        key = id(fn)
        entry = self._fn_blobs.get(key)
        if entry is not None and entry[0] is fn:
            self._fn_blobs[key] = self._fn_blobs.pop(key)  # LRU touch
            return entry[1]
        buf = io.BytesIO()
        pickler = _CallbackPickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.dump(fn)
        if pickler.by_value:
            return buf.getvalue()
        entry = (fn, buf.getvalue())
        self._fn_blobs[key] = entry
        while len(self._fn_blobs) > self._BLOB_CACHE:
            del self._fn_blobs[next(iter(self._fn_blobs))]
        return entry[1]

    def _new_ref(self) -> ChunkRef:
        ref_id = self._next_ref_id
        self._next_ref_id += 1
        self._live_ids.add(ref_id)
        return ChunkRef(ref_id, self.p, self._free_ref)

    def _free_ref(self, ref_id: int) -> None:
        # freeing piggybacks on the next command's envelope; nothing to
        # send eagerly (and the pool may already be closed)
        self._live_ids.discard(ref_id)
        self._store.pop(ref_id, None)
        self._recipes.pop(ref_id, None)
        self._dead_refs.append(ref_id)

    def _salvage_resident(self) -> None:
        """Pull live worker-resident chunks into the driver store so
        handles stay readable after the pool shuts down (a ref with a
        recipe is readable without: :meth:`get_chunks` regenerates)."""
        for ref_id in sorted(self._live_ids):
            if ref_id not in self._store and ref_id not in self._recipes:
                self._store[ref_id] = self._run(("get", ref_id), [None] * self.p)

    def put_chunks(self, chunks: Sequence) -> ChunkRef:
        if len(chunks) != self.p:
            raise ValueError(f"need one chunk per PE, got {len(chunks)} for p={self.p}")
        ref = self._new_ref()
        self._run(("put", ref.id), list(chunks))
        # keep an alias to the driver-born objects (read-only convention):
        # get_chunks then never re-fetches them and close() never pays to
        # salvage data the driver already holds
        self._store[ref.id] = list(chunks)
        self._record(("put", ref.id, list(chunks)))
        return ref

    def get_chunks(self, ref: ChunkRef) -> list:
        if ref.id in self._lost_ids:
            raise RuntimeError(
                f"resident chunks of ref {ref.id} were lost in a worker "
                f"failure and could not be salvaged or replayed (enable "
                f"Machine(..., journal=True) to make worker-computed "
                f"chunks recoverable)"
            )
        if ref.id not in self._store and self._closed and ref.id in self._recipes:
            # generated, never fetched, and the workers are gone: run
            # the recipe here
            _, blob, _, out_ids, args = self._recipes[ref.id]
            outs, _ = _run_spmd_inprocess(
                self.p, pickle.loads(blob), [], len(out_ids), args)
            self._store.update(zip(out_ids, outs))
        if ref.id in self._store:  # driver-born, salvaged or regenerated
            return self._store[ref.id]
        return self._run(("get", ref.id), [None] * self.p)

    def _spmd(
        self, fn: Callable, refs: Sequence[ChunkRef], n_out: int,
        args: Sequence[tuple] | None,
    ) -> tuple[list[ChunkRef], list]:
        """Run one ``spmd`` command (the only way per-PE code reaches
        the workers); returns the output handles and per-PE values."""
        try:
            blob = self._blob(fn)
        except Exception:
            # driver-side fallback: fetch, run, re-pin.  Slow (the
            # chunks make a round trip) but correct, and only hit by
            # closures that cannot cross the process boundary.
            chunk_lists = [self.get_chunks(r) for r in refs]
            outs, values = _run_spmd_inprocess(self.p, fn, chunk_lists, n_out, args)
            return [self.put_chunks(chunks) for chunks in outs], values
        out_refs = [self._new_ref() for _ in range(n_out)]
        spec = ("spmd", blob, tuple(r.id for r in refs),
                tuple(r.id for r in out_refs))
        if self.verify:
            spec = spec + (True,)
        locals_per_pe = list(args) if args is not None else [None] * self.p
        if refs or out_refs:  # a step that touches no chunk restores none
            entry = ("spmd", blob, spec[2], spec[3], locals_per_pe)
            if isinstance(fn, PureStep) and not refs:
                self._recipes.update((r.id, entry) for r in out_refs)
            self._record(entry)
        values = self._run(spec, locals_per_pe)
        if self.verify:
            values = self._check_lockstep(values, self._seq)
        return out_refs, values

    def submit_spmd(
        self,
        fn: Callable,
        refs: Sequence[ChunkRef],
        n_out: int = 0,
        args: Sequence[tuple] | None = None,
    ) -> tuple[list[ChunkRef], PendingValues]:
        """Run one SPMD command to completion and return its output
        handles with the per-PE values as a resolved
        :class:`PendingValues` (lockstep-checked under ``verify``)."""
        out_refs, values = self._spmd(fn, refs, n_out, args)
        return out_refs, PendingValues.resolved(values)

    def _check_lockstep(self, values: list, seq: int) -> list:
        """Unwrap ``verify=True`` SPMD results, asserting every rank ran
        the same collective sequence (digest compare; traces are only
        walked to build the diagnostic)."""
        wrapped = [v for v in values if isinstance(v, _VerifiedValue)]
        if len(wrapped) != self.p:  # pragma: no cover - protocol violation
            raise RuntimeError(
                "backend protocol error: verify=True SPMD command returned "
                f"{len(wrapped)}/{self.p} traced results"
            )
        ref = wrapped[0]
        bad = [r for r in range(1, self.p) if wrapped[r].digest != ref.digest]
        if bad:
            rank = bad[0]
            a, b = ref.trace, wrapped[rank].trace
            step = next(
                (i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)),
            )
            mine = b[step] if step < len(b) else "<kernel returned>"
            theirs = a[step] if step < len(a) else "<kernel returned>"
            raise LockstepError(
                f"SPMD lockstep violation in command seq {seq}: rank(s) "
                f"{bad} diverged from rank 0; first divergence at "
                f"collective #{step}: rank {rank} issued {mine} where "
                f"rank 0 issued {theirs}"
            )
        return [v.value for v in wrapped]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def worker_message_counts(self) -> list[int]:
        if not self._started or self._closed:
            return [0] * self.p
        stats = self._run(("stats",), [None] * self.p)
        return [s["msgs"] for s in stats]

    def command_fanout_counts(self) -> list[int]:
        """Per-worker count of forwarded broadcast-command frames.

        Every full-pool command costs exactly ``p - 1`` forwards in total
        (the binomial-tree edges), paid by the workers instead of the
        driver; the driver's own channel writes are
        :attr:`driver_sends`.  Note the ``stats`` round trip used to read
        these counters is itself a broadcast command, so a delta between
        two reads includes the forwards of one stats command.
        """
        if not self._started or self._closed:
            return [0] * self.p
        stats = self._run(("stats",), [None] * self.p)
        return [s["cmd_fwd"] for s in stats]

    def worker_transport_counts(self) -> list[dict[str, int]]:
        """Per-worker cumulative transport bytes: ``wire_tx`` (frames
        written to the wire, peer messages + forwarded commands +
        results) and ``shm_tx`` (payload bytes shared out of that
        worker's shm pool, if any).  Complements the driver-side
        :meth:`transport_bytes`."""
        if not self._started or self._closed:
            return [{"wire_tx": 0, "shm_tx": 0} for _ in range(self.p)]
        stats = self._run(("stats",), [None] * self.p)
        return [{"wire_tx": s["wire_tx"], "shm_tx": s["shm_tx"]} for s in stats]
