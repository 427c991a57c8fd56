"""The distributed-memory machine (simulated or real execution).

:class:`Machine` bundles ``p`` processing elements (PEs) with

* independent per-PE random generator streams (plus one *shared* stream
  whose draws are identical on every PE, used where the paper says
  "choose the same random number on all PEs"),
* per-PE simulated clocks (:class:`repro.machine.clock.SimClock`),
* per-PE communication metering (:class:`repro.machine.metrics.CommMetrics`),
* the alpha-beta cost model (:class:`repro.machine.cost.CostParams`),
* a pluggable execution backend
  (:class:`repro.machine.backends.Backend`) that carries out the data
  plane of every collective, and
* one meter table, :data:`METERS`, through which every communication
  charge of the package goes.

One charging path
-----------------
Every charge is an entry of a *charge log*: a tuple whose first slot
names its kind (``("allreduce", words)``, ``("ops", x)``, ...).
:data:`METERS` maps each kind to the function that meters one log
position -- the schedule's messages into :class:`CommMetrics` and the
analytic alpha-beta time into :class:`SimClock`.  The yield is the
charge: each collective a kernel yields appends to its log the entry
derived from the request, or what a ``yield charged(request, *entries)``
declares where the model deliberately charges another schedule (each
such pair is in :data:`CHARGED_AS`); the kernel logs only ``ops`` and
charges that send no message.  The driver replays the logs
(:meth:`Machine.replay_charges`); :meth:`Machine.collective`, the
list-of-p dialect, charges through the same derivation.  Local work is
:meth:`Machine.charge_ops`.

One command path
----------------
Code outside this package issues a worker command one way,
:meth:`Machine.run_command`: the kernel runs on every PE where its
source lives, draws its addresses from a cursor the command carries,
appends its charges to a log, and the driver replays the logs once.

Execution backends
------------------
The data plane of a collective is delegated to the machine's backend as
the per-PE requests an SPMD kernel would yield
(:meth:`Backend.collective <repro.machine.backends.Backend.collective>`).
``backend="sim"`` (default) runs in process; its meaningful time is the
**modeled** makespan (:attr:`MachineReport.makespan`).  ``"mp"`` runs
one worker process per PE and ``"tcp"`` the same worker runtime behind
stream sockets (workers may live on other hosts, ``REPRO_TCP_HOSTS``;
its transport accounting has no shared-memory lane); both add
**wall-clock** (``machine.backend.wall_time``).  Results and modeled
costs are bit-identical on every backend.  Custom transports register
via :func:`repro.machine.backends.register_backend` and are picked up by
every ``--backend`` flag.

Example
-------
>>> from repro.machine import Machine
>>> m = Machine(p=4, seed=1)
>>> m.allreduce([1, 2, 3, 4], op="sum")
[10, 10, 10, 10]
>>> m.collective("broadcast", [("broadcast", "hi" if i == 2 else None, 2)
...                            for i in range(4)])
['hi', 'hi', 'hi', 'hi']
>>> m.metrics.bottleneck_words > 0
True
>>> with Machine(p=2, seed=1, backend="mp") as real:
...     real.allreduce([1, 2], op="sum")
[3, 3]
"""

from __future__ import annotations

import contextlib
import pickle
from collections.abc import Generator
from dataclasses import dataclass
from itertools import count
from typing import Callable, Sequence

import numpy as np

from .backends import Backend, PureStep, make_backend
from .backends.base import _check_lockstep, _collective_signature
from .clock import SimClock
from .ctrrng import DrawAddress
from .collectives import REDUCTION_OPS, binomial_edges, hypercube_rounds
from .cost import CollectiveCost, CostParams, log2_ceil
from .metrics import CommMetrics, payload_words

__all__ = ["CHARGED_AS", "METERS", "Machine", "MachineReport", "PhaseStats", "charged"]


# ----------------------------------------------------------------------
# The meter table: one function per charge-log kind
# ----------------------------------------------------------------------
# ``meter(machine, col)`` charges one log position; ``col[i]`` is rank
# i's entry.  Replicated slots (a root, an op's word count, a label) are
# read from rank 0's entry, per-rank word counts from every rank's.

def _sync(m: "Machine", c: CollectiveCost) -> None:
    m.clock.sync_collective(c.time)


def _sizes(col) -> np.ndarray:
    return np.array([float(e[1]) for e in col], dtype=np.float64)


def _ops(m, col) -> None:
    """``("ops", x)``: ``x`` elementary operations of local work (the
    replay hands a run of entries over as ``("ops", [x1, x2, ...])``:
    one clock update, bit-identical to one per entry)."""
    rows = np.array([np.atleast_1d(e[1]) for e in col], dtype=np.float64)
    m.clock.charge_local_rows(rows.T * m.cost.time_per_op)


def _allreduce(m, col) -> None:
    """``("allreduce", w)``: reduce then broadcast over one tree."""
    w = float(col[0][1])
    edges = [(d, s, w) for _, s, d in binomial_edges(m.p, 0)]
    edges += [(s, d, w) for _, s, d in binomial_edges(m.p, 0)]
    m.metrics.record_schedule(edges, "allreduce")
    _sync(m, m.cost.allreduce(w, m.p))


def _scan(m, col) -> None:
    """``("scan", w)``: inclusive prefix over the hypercube rounds."""
    w = float(col[0][1])
    m.metrics.record_schedule(
        [(s, d, w) for rnd in hypercube_rounds(m.p) for s, d in rnd], "scan")
    _sync(m, m.cost.scan(w, m.p))


def _allreduce_exscan(m, col) -> None:
    """``("allreduce_exscan", w)``: the prefix schedule carrying a
    second accumulator (the running total), so ``2 w`` words per edge."""
    w = float(col[0][1])
    m.metrics.record_schedule(
        [(s, d, 2 * w) for rnd in hypercube_rounds(m.p) for s, d in rnd],
        "allreduce_exscan")
    _sync(m, m.cost.allreduce_exscan(w, m.p))


def _broadcast(m, col) -> None:
    """``("broadcast", w, root)``: the root's ``w`` words down a
    binomial tree."""
    root = int(col[0][2])
    w = float(col[root][1])
    m.metrics.record_schedule(
        ((s, d, w) for _, s, d in binomial_edges(m.p, root)), "broadcast")
    _sync(m, m.cost.broadcast(w, m.p))


def _reduce(m, col) -> None:
    """``("reduce", w, root)``: the broadcast tree in reverse."""
    root = int(col[0][2])
    w = float(col[root][1])
    m.metrics.record_schedule(
        [(d, s, w) for _, s, d in binomial_edges(m.p, root)], "reduce")
    _sync(m, m.cost.reduce(w, m.p))


def _gather(m, col) -> None:
    """``("gather", w, root)``: this rank's ``w`` words up a binomial
    tree, each edge carrying the child's whole subtree."""
    root = int(col[0][2])
    sizes = _sizes(col)
    acc = sizes.copy()
    edges = []
    for _, s, d in reversed(binomial_edges(m.p, root)):
        edges.append((d, s, acc[d]))
        acc[s] += acc[d]
    m.metrics.record_schedule(edges, "gather")
    _sync(m, m.cost.gather(float(sizes.sum() - sizes[root]), m.p))


def _gather_direct(m, col) -> None:
    """``("gather_direct", w, root)``: every rank sends its ``w`` words
    straight to the root, whose ``p - 1`` start-ups are serialized."""
    root = int(col[0][2])
    sizes = _sizes(col)
    m.metrics.record_schedule(
        [(i, root, sizes[i]) for i in range(m.p) if i != root], "gather_direct")
    _sync(m, m.cost.gather_direct(float(sizes.sum() - sizes[root]), m.p))


def _scatter(m, col) -> None:
    """``("scatter", w, root)``: ``w`` is the piece this rank receives;
    a parent forwards the bundle of each child's subtree."""
    root = int(col[0][2])
    sizes = _sizes(col)
    acc = sizes.copy()
    fwd = []
    for _, s, d in reversed(binomial_edges(m.p, root)):
        fwd.append((s, d, acc[d]))
        acc[s] += acc[d]
    m.metrics.record_schedule(reversed(fwd), "scatter")
    _sync(m, m.cost.scatter(float(sizes.sum() - sizes[root]), m.p))


def _allgather_edges(m, sizes: np.ndarray, extra: float, kind: str) -> None:
    # recursive doubling: in round r partners exchange the blocks
    # accumulated so far, ``extra`` words riding every edge
    acc = sizes.copy()
    edges = []
    for rnd in hypercube_rounds(m.p):
        nxt = acc.copy()
        for i, j in rnd:
            edges.append((i, j, acc[i] + extra))
            edges.append((j, i, acc[j] + extra))
            nxt[i] = nxt[j] = acc[i] + acc[j]
        acc = nxt
    m.metrics.record_schedule(edges, kind)


def _allgather(m, col) -> None:
    """``("allgather", w)``: this rank's ``w`` words to everybody."""
    sizes = _sizes(col)
    _allgather_edges(m, sizes, 0.0, "allgather")
    _sync(m, m.cost.allgather(float(sizes.mean()), m.p))


def _reduce_allgather(m, col) -> None:
    """``("reduce_allgather", w, r)``: the allgather of this rank's
    ``w`` words with an ``r``-word reduction accumulator on every edge."""
    sizes = _sizes(col)
    extra = float(col[0][2])
    _allgather_edges(m, sizes, extra, "reduce_allgather")
    if extra:
        _sync(m, m.cost.reduce_allgather(extra, float(sizes.mean()), m.p))
    else:
        _sync(m, m.cost.allgather(float(sizes.mean()), m.p))


def _matrix(col) -> np.ndarray:
    sizes = np.array([e[1] for e in col], dtype=np.float64)
    np.fill_diagonal(sizes, 0.0)  # self-delivery is a local handoff
    return sizes


def _alltoall(m, col) -> None:
    """``("alltoall", row)``: direct delivery, ``row[j]`` words from
    this rank to PE ``j``."""
    p = m.p
    sizes = _matrix(col)
    m.metrics.record_schedule(
        [(i, j, sizes[i][j]) for i in range(p) for j in range(p)
         if i != j and sizes[i][j] > 0], "alltoall")
    bottleneck = float(np.maximum(sizes.sum(axis=1), sizes.sum(axis=0)).max(initial=0.0))
    msgs = max(p - 1, 0)
    _sync(m, CollectiveCost(m.cost.alpha * msgs + m.cost.beta * bottleneck,
                            msgs, bottleneck))


def _alltoall_hc(m, col) -> None:
    """``("alltoall_hc", row)``: the same matrix routed along
    dimension-ordered hypercube hops in ``log p`` rounds; intermediate
    PEs forward what they hold for others."""
    p = m.p
    buckets = _matrix(col)  # [i][j]: words parked at i, destined for j
    ranks = np.arange(p)
    for r in range(log2_ceil(p)):
        bit = 1 << r
        partners = ranks ^ bit
        active = partners < p  # PEs whose round-r partner exists
        dest_mask = ((ranks[:, None] ^ ranks[None, :]) & bit) != 0
        forwarded = np.where(dest_mask & active[:, None], buckets, 0.0)
        moved = forwarded.sum(axis=1)
        senders = ranks[active & (moved > 0)]
        edges = [(int(i), int(partners[i]), float(moved[i])) for i in senders]
        buckets = buckets - forwarded
        np.add.at(buckets, partners[senders], forwarded[senders])
        if edges:
            m.metrics.record_schedule(edges, "alltoall_hc")
        m.clock.sync_collective(m.cost.alpha + m.cost.beta * float(moved.max(initial=0.0)))


def _dht_round(m, col) -> None:
    """``("dht_round", bit, n, width)``: one hypercube round of the
    hash-table exchange -- this rank ships ``n`` entries of ``width``
    words to ``rank ^ bit``, which merges them (one op per entry);
    only non-empty messages are metered."""
    bit, width = int(col[0][1]), float(col[0][3])
    entries = np.array([e[2] for e in col], dtype=np.float64)
    partners = np.arange(m.p) ^ bit
    m.charge_ops(entries[partners])
    words = width * entries
    edges = [(int(i), int(partners[i]), float(words[i]))
             for i in np.flatnonzero(entries)]
    if edges:
        m.metrics.record_schedule(edges, "dht_exchange")
    m.clock.sync_collective(m.cost.alpha + m.cost.beta * float(words.max(initial=0.0)))


def _tree_hop(m, col) -> None:
    """``("tree_hop", r, w, label)``: round ``r`` of a merge up the
    binomial tree into PE 0 -- per edge one message of the child's
    ``w`` words, then ``max(1, w)`` merge ops at the parent (a round's
    edges touch disjoint PEs, so the ops are one clock update)."""
    rnd, label = int(col[0][1]), col[0][3]
    ops = np.zeros(m.p)
    for r, parent, child in reversed(binomial_edges(m.p, 0)):
        if r != rnd:
            continue
        w = col[child][2]
        m.metrics.record_p2p(child, parent, w, label)
        m.clock.charge_p2p(child, parent, m.cost.p2p(w))
        ops[parent] = max(1.0, w)
    m.charge_ops(ops)


def _p2p(m, col) -> None:
    """``("p2p", w, src, dst, label)``: one message of the sender's
    ``w`` words (a send to oneself is a local handoff: free)."""
    _, _, src, dst, label = col[0]
    w = col[src][1]
    if src != dst:
        m.metrics.record_p2p(src, dst, w, label)
        m.clock.charge_p2p(src, dst, m.cost.p2p(w))


def _rounds(m, col) -> None:
    """``("rounds", n, w, label)``: ``n`` synchronizing rounds of
    ``w``-word compare-exchanges on every PE, attributed to ``label``
    as ``w n p`` words (an analytic schedule, e.g. a Batcher merge)."""
    _, n, w, label = col[0]
    for _ in range(n):
        m.clock.sync_collective(m.cost.alpha + m.cost.beta * w)
    m.metrics.charge(label, w * n * m.p)


def _barrier(m, col) -> None:
    """``("barrier",)``: synchronize all PEs."""
    _sync(m, m.cost.barrier(m.p))
    m.metrics.calls["barrier"] = m.metrics.calls.get("barrier", 0) + 1


#: charge-log kind -> meter; the only place the alpha-beta model of a
#: collective is written down
METERS: dict[str, Callable] = {
    "ops": _ops,
    "allreduce": _allreduce,
    "scan": _scan,
    "allreduce_exscan": _allreduce_exscan,
    "broadcast": _broadcast,
    "reduce": _reduce,
    "gather": _gather,
    "gather_direct": _gather_direct,
    "scatter": _scatter,
    "allgather": _allgather,
    "reduce_allgather": _reduce_allgather,
    "alltoall": _alltoall,
    "alltoall_hc": _alltoall_hc,
    "dht_round": _dht_round,
    "tree_hop": _tree_hop,
    "p2p": _p2p,
    "rounds": _rounds,
    "barrier": _barrier,
}


#: request kind -> the kinds a kernel may charge it as instead, with
#: ``yield charged(request, *entries)``: the model's deliberate
#: differences from the schedule that runs
CHARGED_AS: dict[str, frozenset[str]] = {
    # multi_select's packed sample (its keys alone); the base case's gather
    "allgather": frozenset({"allgather", "gather"}),
    "allreduce": frozenset({"allreduce"}),  # multi_select's count widths
    "alltoall": frozenset({"alltoall"}),  # hash-table entries, 1.5 words in dSBF
    # a hash-table round, the baselines' direct gather and tree merge, a
    # driver-planned alltoall row (Karp-Zhang, the blind rebalance) and
    # redistribute's plan
    "sendrecv": frozenset({"alltoall", "dht_round", "gather_direct", "tree_hop",
                           "allreduce", "scan", "rounds", "p2p"}),
}


class charged:
    """``yield charged(request, *entries)``: run ``request``, charge
    ``entries`` in place of the entry derived from it.  Their kinds must
    be ones :data:`CHARGED_AS` declares for the request's kind."""

    def __init__(self, request: tuple, *entries: tuple):
        undeclared = {e[0] for e in entries} - CHARGED_AS.get(request[0], frozenset())
        if undeclared:
            raise ValueError(f"a {request[0]!r} request charged as {sorted(undeclared)}: "
                             f"not a difference CHARGED_AS declares")
        self.request, self.entries = request, entries


# ----------------------------------------------------------------------
# Charge entries derived from collectives
# ----------------------------------------------------------------------

def _own(kind: str, at: int | None = None):
    """A rank's entry from its own payload words (plus the root or
    accumulator slot ``at`` of its request)."""
    if at is None:
        return lambda req, res: (kind, payload_words(req[1]))
    return lambda req, res: (kind, payload_words(req[1]), req[at])


def _rows(kind: str):
    return lambda req, res: (kind, [payload_words(x) for x in req[1]])


#: collective kind -> ``entry(request, result)``, one rank's charge
#: entry (a broadcast's and a scatter's words are what the rank received;
#: a one-sender kind's meter reads the root's or the sender's)
_ENTRIES: dict[str, Callable] = {
    "allreduce": _own("allreduce"),
    "scan": _own("scan"),
    "allreduce_exscan": _own("allreduce_exscan"),
    "broadcast": lambda req, res: ("broadcast", payload_words(res), req[2]),
    "reduce": _own("reduce", 3),
    "gather": _own("gather", 2),
    "gather_direct": _own("gather_direct", 2),
    "scatter": lambda req, res: ("scatter", payload_words(res), req[2]),
    "allgather": _own("allgather"),
    "reduce_allgather": lambda req, res: (
        "reduce_allgather", payload_words(req[3]), payload_words(req[1])),
    "alltoall": _rows("alltoall"),
    "alltoall_hc": _rows("alltoall_hc"),
    "p2p": lambda req, res: ("p2p", payload_words(req[1]), req[2], req[3], "p2p"),
    "barrier": lambda req, res: ("barrier",),
}

#: the request kind of the table kinds whose requests are another kind's
_REQUEST_KIND = {"gather_direct": "gather", "alltoall_hc": "alltoall"}
#: request slots holding a rank, and the kinds carrying a reduction op
_RANK_SLOTS = {"broadcast": {"root": 2}, "reduce": {"root": 3}, "gather": {"root": 2},
               "scatter": {"root": 2}, "p2p": {"src": 2, "dst": 3}}
_OP_KINDS = {"reduce", "allreduce", "scan", "allreduce_exscan", "reduce_allgather"}


@dataclass(frozen=True)
class PhaseStats:
    """Metrics accumulated while a named :meth:`Machine.phase` was open."""

    name: str
    time: float
    bottleneck_words: float
    bottleneck_startups: int
    total_traffic: float


@dataclass(frozen=True)
class MachineReport:
    """Summary of one run, the unit reported by benchmarks.

    ``makespan``/``work_time``/``comm_time`` are *modeled* alpha-beta
    seconds on every backend; ``backend_wall_s`` is the real seconds the
    execution backend spent moving data (only meaningful for real
    backends such as ``"mp"``; ~0 for ``"sim"``).
    """

    p: int
    makespan: float
    work_time: float
    comm_time: float
    bottleneck_words: float
    bottleneck_startups: int
    total_traffic: float
    imbalance: float
    phases: tuple[PhaseStats, ...] = ()
    backend: str = "sim"
    backend_wall_s: float = 0.0
    #: measured data-plane bytes (real backends only; 0 for ``sim``):
    #: bytes that crossed the driver's pipes vs bytes that rode
    #: shared-memory blocks instead
    wire_bytes: int = 0
    shm_bytes: int = 0

    def row(self) -> dict:
        """Flat dict form for tabular output."""
        return {
            "p": self.p,
            "time_s": self.makespan,
            "work_s": self.work_time,
            "comm_s": self.comm_time,
            "volume_words": self.bottleneck_words,
            "startups": self.bottleneck_startups,
            "traffic_words": self.total_traffic,
            "imbalance": self.imbalance,
            "backend": self.backend,
            "wire_bytes": self.wire_bytes,
            "shm_bytes": self.shm_bytes,
        }


def _command(rank: int, source, p: int, kernel, args: tuple, cursor: tuple,
             keep: bool):
    """One :meth:`Machine.run_command` call, where the data lives: the
    kernel's ``take()`` hands out ``DrawAddress(seed, first + i)`` from
    ``cursor = (seed, first)``.  Every PE returns ``(answer, info,
    addresses taken, log)``, the answer only from PE 0, and with
    ``keep`` the kernel's third value before it, to stay resident.
    Once a collective the kernel yields returns, its charge goes into
    ``log`` before the kernel resumes: the entry :data:`_ENTRIES`
    derives, or what a :class:`charged` yield declares."""
    log: list = []
    seed, first = cursor
    seqs = count(first)
    out = kernel(rank, p, source, lambda: DrawAddress(seed, next(seqs)), log, *args)
    if isinstance(out, Generator):
        gen, result = out, None
        try:
            while True:
                req = gen.send(result)
                if isinstance(req, charged):
                    result = yield req.request
                    log.extend(req.entries)
                elif req[0] in _ENTRIES:
                    result = yield req
                    log.append(_ENTRIES[req[0]](req, result))
                else:
                    raise ValueError(f"no charge derives from a {req[0]!r} request; "
                                     f"yield charged(request, *entries)")
        except StopIteration as stop:
            out = stop.value
    answer, info, *kept = out
    taken = next(seqs) - first  # next(seqs) is the first seq not taken
    value = (answer if rank == 0 else None, info, taken, log)
    return (kept[0], value) if keep else value


def _paired_command(rank: int, chunk, rider, *rest):
    """:func:`_command` over a resident chunk and this PE's rider,
    which the kernel gets as the pair ``(chunk, rider)``."""
    return _command(rank, (chunk, rider), *rest)


class Machine:
    """A ``p``-PE distributed-memory machine with an alpha-beta cost model.

    Thirteen public methods: :meth:`draw_addr`; :meth:`run_command`,
    the one way a worker command is issued; charging through
    :data:`METERS` (:meth:`charge_ops`, :meth:`replay_charges`); the
    list-of-p :meth:`collective`, with :meth:`allreduce` and
    :meth:`allgather` as one-line spellings; and :meth:`phase`,
    :meth:`sync_transport`, :meth:`report`, :meth:`reset`,
    :meth:`close`, :meth:`recover`.

    Parameters
    ----------
    p:
        Number of processing elements (>= 1).
    cost:
        Machine constants; defaults to an InfiniBand-cluster calibration.
    seed:
        Master seed.  Per-PE streams are spawned deterministically from
        it, so every run with the same seed is bit-reproducible.
    backend:
        Execution backend: a name (``"sim"``, ``"mp"``) or a
        :class:`~repro.machine.backends.Backend` instance built for the
        same ``p``.  See the module docstring for the trade-offs.
    command_timeout:
        Per-command deadline in seconds for real backends (default
        120).  A command whose results have not fully arrived by then
        raises a structured
        :class:`~repro.machine.backends.WorkerFailure` (phase
        ``"hung"``); dead worker processes are detected much sooner by
        the liveness probe (phase ``"dead"``).  Ignored by ``sim``.
    faults:
        Deterministic fault injection: a
        :class:`~repro.machine.faults.FaultPlan` or its spec string
        (e.g. ``"kill@r1:s3"``); the ``REPRO_FAULTS`` environment
        variable installs one globally.  Ignored by ``sim``.

    Lockstep needs no option: every backend checks that all PEs of an
    SPMD step (or of a :meth:`collective`, a step of one yield) issue
    the same collective sequence, and raises
    :class:`~repro.machine.backends.LockstepError` naming the command
    and the diverging rank if they do not.  Recovery needs none either:
    a real backend always records the lineage of its resident chunks,
    so the next command after a
    :class:`~repro.machine.backends.WorkerFailure` restarts the pool and
    restores every live ref bit-identically (:meth:`recover`).
    """

    def __init__(
        self,
        p: int,
        cost: CostParams | None = None,
        seed: int = 0xC0FFEE,
        backend: str | Backend = "sim",
        command_timeout: float | None = None,
        faults=None,
    ):
        if p < 1:
            raise ValueError(f"need at least one PE, got p={p}")
        self.p = int(p)
        self.backend: Backend = make_backend(
            backend, self.p, command_timeout=command_timeout, faults=faults,
        )
        self.cost = cost if cost is not None else CostParams()
        self.clock = SimClock(self.p)
        self.metrics = CommMetrics(self.p)
        #: master seed, retained as the key base for counter-addressed
        #: draws (:meth:`draw_addr`)
        self.seed = int(seed)
        #: next counter-addressed draw sequence number (allocated at
        #: command-build time, in issue order; a command carries it as
        #: its draw cursor and advances it by the addresses it took,
        #: :meth:`run_command`)
        self._rng_seq = 0
        seq = np.random.SeedSequence(seed)
        children = seq.spawn(self.p + 1)
        #: independent random stream per PE
        self.rngs: list[np.random.Generator] = [
            np.random.Generator(np.random.PCG64(c)) for c in children[: self.p]
        ]
        #: stream whose draws are replicated on every PE (synchronized
        #: seeds; no communication is charged for using it)
        self.shared_rng = np.random.Generator(np.random.PCG64(children[self.p]))
        self._phases: list[PhaseStats] = []
        #: backend transport counters already mirrored into the metrics
        #: (so resets / repeated syncs never double-count)
        self._transport_seen: dict[str, tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Counter-addressed randomness
    # ------------------------------------------------------------------
    def draw_addr(self) -> DrawAddress:
        """Allocate the next counter-addressed draw sequence.

        Called at command-build time, in issue order, so the allocated
        addresses are identical on every backend and in a lineage
        replay.  The returned :class:`~repro.machine.ctrrng.DrawAddress`
        is a tiny picklable ``(seed, seq)`` pair: ship it in command
        args and materialise generators where the data lives
        (``addr.local(rank)`` / ``addr.shared()``).  No generator state
        ever returns to the driver.
        """
        seq = self._rng_seq
        self._rng_seq += 1
        return DrawAddress(self.seed, seq)

    # ------------------------------------------------------------------
    # The one command path
    # ------------------------------------------------------------------
    def run_command(self, kernel, source=None, args: tuple = (), n_addrs: int = 1,
                    keep: bool = False):
        """Send ``kernel`` as ONE worker command, settle its draw cursor
        and replay its charges.

        Every PE runs ``kernel(rank, p, source, take, log, *args)``, a
        generator of SPMD collective yields (or a plain function, a step
        of none), which returns ``(answer, info)``.  ``source`` is a
        resident ref (a dataset, or a table an earlier command kept), a
        list with one value per PE, which rides the command, the pair
        ``(ref, list)``, the kernel then getting ``(chunk, value)``, or
        ``None``.  Each yield charges itself; the kernel appends to
        ``log`` its ``ops`` and charges that send no message (a size the
        driver tracks first), and the logs are replayed once
        (:meth:`replay_charges`; not at all when every log is empty).
        Returns ``(answer, infos)``: ``answer`` is PE 0's (a replicated
        result), ``infos[i]`` PE ``i``'s ``info``.

        With ``keep`` the kernel returns a third value, which stays
        resident where it was made as the command's output: the call
        returns ``(answer, infos, ref)``.  A
        :class:`~repro.machine.backends.base.PureStep` kernel promises
        that output is never changed (a kept table; the next state is a
        new ref), so the ref lives in lineage and reading it records
        nothing; any other kernel's output (a queue's trees, a cut) is
        mutable state.

        The command carries a draw cursor, :attr:`_rng_seq`: each
        ``take()`` hands the kernel the next
        :class:`~repro.machine.ctrrng.DrawAddress`, so a call takes
        exactly the addresses it draws from, in issue order, however
        many its data ask for, and the cursor then moves past them.  A
        failed command keeps ``n_addrs`` of them.
        """
        p = self.p
        if isinstance(source, tuple):
            ref, riders = source
        elif isinstance(source, list):
            ref, riders = None, source
        else:
            ref, riders = source, None
        if riders is not None and len(riders) != p:
            raise ValueError(f"need one entry per PE, got {len(riders)} for p={p}")
        first = self._rng_seq
        common = (p, kernel, args, (self.seed, first), keep)
        if riders is None:
            cmd, per_pe = _command, [((None,) if ref is None else ()) + common] * p
        else:
            cmd = _command if ref is None else _paired_command
            per_pe = [(rider, *common) for rider in riders]
        self._rng_seq = first + n_addrs  # what a failed command keeps
        outs, vals = self.backend.run_spmd(
            PureStep(cmd) if isinstance(kernel, PureStep) else cmd,
            [] if ref is None else [ref], n_out=int(keep), args=per_pe)
        answer, _, taken, _ = vals[0]
        self._rng_seq = first + taken
        logs = [log for *_, log in vals]
        if any(logs):
            self.replay_charges(logs)
        infos = [info for _, info, _, _ in vals]
        return (answer, infos, outs[0]) if keep else (answer, infos)

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def charge_ops(self, ops) -> None:
        """Charge per-PE local work, in elementary operations.

        ``ops`` is a scalar (same on every PE) or an array of length
        ``p`` (zero where a PE did nothing: adding ``0.0`` leaves its
        clock bit-identical).
        """
        self.clock.charge_local(np.asarray(ops, dtype=np.float64) * self.cost.time_per_op)

    def replay_charges(self, logs: Sequence[Sequence[tuple]]) -> None:
        """Charge per-PE charge logs through :data:`METERS`.

        ``logs[i]`` is rank ``i``'s entry list; all ranks must have
        appended the same entry sequence (SPMD discipline).  A kernel
        logs what it did inside one command and the driver replays the
        model in execution order, so straggler effects land where they
        would have; a collective the driver did not run (the
        all-reduction of sizes it tracks) is a log of one entry.  Each
        kind's entry layout is its meter's docstring.  The logs hold
        small scalars only, so the model is backend-independent.
        """
        self._check_len(logs, "replay_charges")
        head = logs[0]
        length = len(head)
        if any(len(entries) != length for entries in logs):
            raise ValueError("charge logs diverged across ranks")
        t = 0
        while t < length:
            kind, end = head[t][0], t + 1
            if kind == "ops":  # a run of local work is one clock update
                while end < length and head[end][0] == "ops":
                    end += 1
                col = [("ops", [e[1] for e in entries[t:end]]) for entries in logs]
            else:
                col = [entries[t] for entries in logs]
            meter = METERS.get(kind)
            if meter is None:
                raise ValueError(f"unknown charge-log entry kind {kind!r}")
            meter(self, col)
            t = end

    # ------------------------------------------------------------------
    # The list-of-p collective
    # ------------------------------------------------------------------
    def collective(self, kind: str, requests: Sequence[tuple]) -> list:
        """Run one collective for all ``p`` ranks; returns each rank's
        result (possibly shared between ranks: treat as read-only).

        ``requests[i]`` is the tuple rank ``i`` would yield from an SPMD
        kernel (:func:`~repro.machine.backends.base.spmd_collective`),
        e.g. ``("allreduce", v, "sum")`` or ``("broadcast", v, root)``
        (``None`` where a rank contributes nothing).  ``kind`` is the
        request kind, or a table kind charging another schedule for the
        same data plane: ``"gather_direct"`` (gather requests, each
        straight to the root: ``alpha (p - 1)``) and ``"alltoall_hc"``
        (alltoall requests along hypercube hops: ``O(beta m p log p +
        alpha log p)``); ``"barrier"`` (``("barrier",)``) moves nothing.
        The requests are checked (one per PE, one signature, ranks in
        range, a usable op) before anything is sent; the backend runs
        the data plane, then each rank's entry is derived as a kernel's
        yield derives it and charged through :data:`METERS`.
        """
        derive = _ENTRIES.get(kind)
        if derive is None:
            raise ValueError(
                f"unknown collective kind {kind!r}; expected one of {sorted(_ENTRIES)}")
        self._check_requests(kind, requests)
        results = ([None] * self.p if kind == "barrier"
                   else self.backend.collective(_REQUEST_KIND.get(kind, kind), requests))
        METERS[kind](self, [derive(req, res) for req, res in zip(requests, results)])
        return results

    def allreduce(self, values: Sequence, op="sum") -> list:
        """``collective("allreduce", ...)`` over per-PE ``values``."""
        return self.collective("allreduce", [("allreduce", v, op) for v in values])

    def allgather(self, values: Sequence) -> list:
        """``collective("allgather", ...)`` over per-PE ``values``."""
        return self.collective("allgather", [("allgather", v) for v in values])

    def _check_len(self, values: Sequence, what: str) -> None:
        if len(values) != self.p:
            raise ValueError(
                f"{what} expects one contribution per PE "
                f"(got {len(values)}, machine has p={self.p})"
            )

    def _check_requests(self, kind: str, requests: Sequence[tuple]) -> None:
        self._check_len(requests, kind)
        want = _REQUEST_KIND.get(kind, kind)
        for i, req in enumerate(requests):
            if not req or req[0] != want:
                raise ValueError(f"{kind}: rank {i} requested {req!r:.60}, not {want!r}")
        _check_lockstep([[_collective_signature(r)] for r in requests],
                        f"Machine.collective({kind!r})")
        head = requests[0]
        for name, at in _RANK_SLOTS.get(want, {}).items():
            if not (isinstance(head[at], (int, np.integer)) and 0 <= head[at] < self.p):
                raise ValueError(
                    f"{kind}: {name} {head[at]!r} out of range for a machine with p={self.p}")
        if want in _OP_KINDS:
            self._check_op(head[2], kind)
        if want == "scatter" and len(requests[head[2]][1]) != self.p:
            raise ValueError(f"scatter: the root holds {len(requests[head[2]][1])} "
                             f"pieces, not one per PE (p={self.p})")
        if want == "alltoall":
            for i, req in enumerate(requests):
                if len(req[1]) != self.p:
                    raise ValueError(f"alltoall row {i} has length {len(req[1])} != p")

    def _check_op(self, op, what: str) -> None:
        """Refuse an unknown op name, or on a real backend a callable
        that cannot cross the process boundary (it would fail inside a
        command frame, after its seq was consumed)."""
        if not callable(op):
            if op not in REDUCTION_OPS:
                raise ValueError(
                    f"unknown reduction op {op!r}; expected one of "
                    f"{sorted(REDUCTION_OPS)}"
                )
        elif self.backend.is_real:
            try:
                pickle.dumps(op, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                raise TypeError(
                    f"{what} op is not picklable (it must cross a process "
                    f"boundary; use a named op like 'sum' or a module-level "
                    f"callable): {exc}"
                ) from None

    # ------------------------------------------------------------------
    # Phases & reporting
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def phase(self, name: str):
        """Attribute the metrics/time of a ``with`` block to ``name``."""
        snap0 = self.metrics.snapshot()
        t0 = self.clock.makespan
        yield
        diff = self.metrics.snapshot() - snap0
        self._phases.append(
            PhaseStats(
                name=name,
                time=self.clock.makespan - t0,
                bottleneck_words=diff.bottleneck_words,
                bottleneck_startups=diff.bottleneck_startups,
                total_traffic=diff.total_traffic,
            )
        )

    def sync_transport(self) -> None:
        """Mirror the backend's measured transport counters into the
        metrics (:attr:`CommMetrics.wire_bytes` / ``shm_bytes``), delta
        by delta so repeated syncs and :meth:`reset` never double-count.
        A no-op for in-process backends, which move no bytes.
        """
        for kind, tb in self.backend.transport_bytes().items():
            wire_seen, shm_seen = self._transport_seen.get(kind, (0, 0))
            self.metrics.record_transport(
                kind, tb["wire"] - wire_seen, tb["shm"] - shm_seen
            )
            self._transport_seen[kind] = (tb["wire"], tb["shm"])

    def report(self) -> MachineReport:
        """Snapshot of modeled time and communication for this run."""
        self.sync_transport()
        return MachineReport(
            p=self.p,
            makespan=self.clock.makespan,
            work_time=float(self.clock.work_time.max()),
            comm_time=float(self.clock.comm_time.max()),
            bottleneck_words=self.metrics.bottleneck_words,
            bottleneck_startups=self.metrics.bottleneck_startups,
            total_traffic=self.metrics.total_traffic,
            imbalance=self.clock.imbalance,
            phases=tuple(self._phases),
            backend=self.backend.name,
            backend_wall_s=self.backend.wall_time,
            wire_bytes=sum(self.metrics.wire_bytes.values()),
            shm_bytes=sum(self.metrics.shm_bytes.values()),
        )

    def reset(self) -> None:
        """Zero clocks, metrics and phase records (RNG streams keep going)."""
        self.clock.reset()
        self.metrics.reset()
        self._phases.clear()
        self.backend.wall_time = 0.0
        # re-baseline the transport mirror so pre-reset traffic (input
        # staging, pool warm-up) is excluded like the other counters
        for kind, tb in self.backend.transport_bytes().items():
            self._transport_seen[kind] = (tb["wire"], tb["shm"])

    def close(self) -> None:
        """Release backend resources (worker processes for ``"mp"``)."""
        self.backend.close()

    def recover(self) -> None:
        """Restart the worker pool -- broken by a
        :class:`~repro.machine.backends.WorkerFailure` or not -- and
        restore every live resident ref from one of two sources: the
        driver-side ``_store`` (driver-born chunks no command has taken
        as an input since) or its lineage, replayed bit-identically.
        The next command after a failure does this by itself.  No-op on
        backends without a pool (``sim``)."""
        recover = getattr(self.backend, "recover", None)
        if recover is not None:
            recover()

    def __enter__(self) -> "Machine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine(p={self.p}, backend={self.backend.name!r}, "
            f"makespan={self.clock.makespan:.3e}s)"
        )
