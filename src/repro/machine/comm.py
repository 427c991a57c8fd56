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
* the collective operations every algorithm in this package is written
  against.

All collectives follow the SPMD-by-construction convention: the caller
passes a list of length ``p`` holding each PE's contribution and receives
a list of length ``p`` with each PE's result.  Returned objects may be
shared between ranks -- treat them as read-only.

Execution backends
------------------
Every collective is split into a *control plane* (always executed here:
schedule metering into :class:`CommMetrics` and analytic alpha-beta cost
charging into :class:`SimClock`) and a *data plane* (computing the
result values), which is delegated to the machine's backend as the
per-PE requests an SPMD kernel would yield
(:meth:`Backend.collective <repro.machine.backends.Backend.collective>`):

``backend="sim"`` (default)
    In-process execution with deterministic combination orders.  The
    meaningful time metric is the **modeled** makespan
    (:attr:`MachineReport.makespan`); wall-clock only measures driver
    overhead.
``backend="mp"``
    One OS worker process per PE; payloads physically move between the
    workers, so the same SPMD call sites execute with genuine
    parallelism.  Results are bit-identical to ``"sim"`` (identical
    combination orders).  The
    meaningful extra metric is **wall-clock**
    (``machine.backend.wall_time`` and the bench harness's ``wall_s``
    column); modeled cost is still charged so both views stay
    comparable.
``backend="tcp"``
    The same worker runtime behind length-framed stream sockets
    (workers can live on other hosts; loopback by default, host list
    via ``REPRO_TCP_HOSTS``).  Identical guarantees to ``"mp"``: both
    launchers execute the shared runtime of
    :mod:`repro.machine.backends.runtime`, so results and modeled
    costs stay bit-identical.  Transport byte accounting
    (:meth:`Machine.sync_transport`, ``report().wire_bytes``) reports
    the wire lane only -- there is no shared-memory lane between
    hosts, so ``shm_bytes`` stays zero by construction.

Select a backend from the CLI (``repro demo --backend mp``), the bench
harness (``run_algorithm(..., backend="mp")``), or directly as shown
below.  Custom transports register via
:func:`repro.machine.backends.register_backend` and are picked up by
every ``--backend`` flag (the choices come from
:func:`repro.machine.backends.available_backends`).

Example
-------
>>> from repro.machine import Machine
>>> m = Machine(p=4, seed=1)
>>> m.allreduce([1, 2, 3, 4], op="sum")
[10, 10, 10, 10]
>>> m.metrics.bottleneck_words > 0
True
>>> with Machine(p=2, seed=1, backend="mp") as real:
...     real.allreduce([1, 2], op="sum")
[3, 3]
"""

from __future__ import annotations

import contextlib
import pickle
from itertools import repeat
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .backends import Backend, make_backend
from .clock import SimClock
from .ctrrng import DrawAddress
from .collectives import REDUCTION_OPS, binomial_edges, hypercube_rounds
from .cost import CollectiveCost, CostParams, log2_ceil
from .metrics import CommMetrics, payload_words

__all__ = ["Machine", "MachineReport", "PhaseStats"]


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


class Machine:
    """A ``p``-PE distributed-memory machine with an alpha-beta cost model.

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
    SPMD step (or of a list-of-p collective, a step of one yield) issue
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
        #: command-build time, in issue order; a command that carries a
        #: draw cursor advances it by the addresses it took,
        #: :func:`repro.frequent.dht.run_pipeline`)
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
    # Local work
    # ------------------------------------------------------------------
    def charge_ops(self, ops) -> None:
        """Charge per-PE local work, in elementary operations.

        ``ops`` is a scalar (same on every PE) or an array of length ``p``.
        """
        self.clock.charge_local(np.asarray(ops, dtype=np.float64) * self.cost.time_per_op)

    def charge_ops_one(self, rank: int, ops: float) -> None:
        self.clock.charge_local_one(rank, float(ops) * self.cost.time_per_op)

    # ------------------------------------------------------------------
    # Internal charging helpers
    # ------------------------------------------------------------------
    def _charge(self, c: CollectiveCost) -> None:
        self.clock.sync_collective(c.time)

    def _check_len(self, values: Sequence, what: str) -> None:
        if len(values) != self.p:
            raise ValueError(
                f"{what} expects one contribution per PE "
                f"(got {len(values)}, machine has p={self.p})"
            )

    def _collective(self, kind: str, payloads: Sequence, *params) -> list:
        """Data plane of one list-of-p collective: rank ``i`` requests
        ``(kind, payloads[i], *params)``, as an SPMD kernel would yield
        it; returns the per-PE results."""
        return self.backend.collective(
            kind, list(zip(repeat(kind), payloads, *map(repeat, params))))

    def _collective_from(self, kind: str, holder: int, payload, *params) -> list:
        """:meth:`_collective` where only ``holder`` contributes a
        payload (one shared request for everybody else, so a send stays
        O(1) Python work at any ``p``)."""
        requests = [(kind, None, *params)] * self.p
        requests[holder] = (kind, payload, *params)
        return self.backend.collective(kind, requests)

    def _check_root(self, root: int, what: str) -> None:
        if not 0 <= root < self.p:
            raise ValueError(
                f"{what}: root {root} out of range for a machine with p={self.p}"
            )

    def _check_op(self, op, what: str) -> None:
        """Refuse a reduction op before anything is charged or sent: an
        unknown name, or on a real backend a callable that cannot cross
        the process boundary (it would fail inside a command frame,
        after its seq was consumed, and stall the ack frontier)."""
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
    # Collectives
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """Synchronize all PEs."""
        self._charge(self.cost.barrier(self.p))
        self.metrics.calls["barrier"] = self.metrics.calls.get("barrier", 0) + 1

    def broadcast(self, value, root: int = 0) -> list:
        """Send ``value`` from ``root`` to every PE.

        Returns a list of length ``p``; entries may alias ``value``.
        """
        self._check_root(root, "broadcast")
        self._meter_broadcast(payload_words(value), root)
        return self._collective_from("broadcast", root, value, root)

    def _meter_broadcast(self, words: float, root: int = 0) -> None:
        """Control plane of :meth:`broadcast` (schedule + charge only)."""
        m = float(words)
        self.metrics.record_schedule(
            ((s, d, m) for _, s, d in binomial_edges(self.p, root)), "broadcast"
        )
        self._charge(self.cost.broadcast(m, self.p))

    def reduce(self, values: Sequence, op="sum", root: int = 0) -> list:
        """Reduce per-PE contributions to ``root``; other PEs get ``None``."""
        self._check_len(values, "reduce")
        self._check_root(root, "reduce")
        self._check_op(op, "reduce")
        m = payload_words(values[root])
        edges = [(d, s, m) for _, s, d in binomial_edges(self.p, root)]
        self.metrics.record_schedule(edges, "reduce")
        self._charge(self.cost.reduce(m, self.p))
        return self._collective("reduce", values, op, root)

    def allreduce(self, values: Sequence, op="sum") -> list:
        """Reduce per-PE contributions; every PE receives the result."""
        self._check_len(values, "allreduce")
        self._check_op(op, "allreduce")
        self._meter_allreduce(values)
        return self._collective("allreduce", values, op)

    def _meter_allreduce(
        self, values: Sequence | None = None, *, words: float | None = None
    ) -> None:
        """Control plane of :meth:`allreduce` (schedule + charge only).

        ``words`` supplies the payload size directly when the values
        themselves stayed inside the workers (SPMD steps).
        """
        m = float(words) if words is not None else payload_words(values[0])
        # reduce followed by broadcast over the same tree
        edges = [(d, s, m) for _, s, d in binomial_edges(self.p, 0)]
        edges += [(s, d, m) for _, s, d in binomial_edges(self.p, 0)]
        self.metrics.record_schedule(edges, "allreduce")
        self._charge(self.cost.allreduce(m, self.p))

    def scan(self, values: Sequence, op="sum") -> list:
        """Inclusive prefix combine: PE ``j`` receives ``op(values[0..j])``."""
        self._check_len(values, "scan")
        self._check_op(op, "scan")
        self._meter_scan(payload_words(values[0]))
        return self._collective("scan", values, op)

    def _meter_scan(self, words: float) -> None:
        """Control plane of :meth:`scan` (schedule + charge only)."""
        m = float(words)
        pairs = [(s, d, m) for rnd in hypercube_rounds(self.p) for s, d in rnd]
        self.metrics.record_schedule(pairs, "scan")
        self._charge(self.cost.scan(m, self.p))

    def exscan(self, values: Sequence, op="sum", initial=0) -> list:
        """Exclusive prefix combine: PE ``j`` receives ``op(values[0..j-1])``
        and PE 0 receives ``initial``."""
        inc = self.scan(values, op)  # charges once
        return [initial] + inc[:-1]

    def allreduce_exscan(
        self, values: Sequence, op="sum", initial=0
    ) -> tuple[list, list]:
        """Fused total + exclusive prefix in one hypercube schedule.

        Equivalent to ``(allreduce(values, op), exscan(values, op,
        initial))`` but pays the ``alpha log p`` startups only once: the
        recursive-doubling prefix schedule carries a second accumulator
        holding the running total (a standard scan-and-reduce fusion),
        so each round ships a two-slot tuple instead of running two
        separate collectives.  The hot call sites are the
        "count-below + tie-prefix" pairs of the selection and top-k
        extraction kernels.
        """
        self._check_len(values, "allreduce_exscan")
        self._check_op(op, "allreduce_exscan")
        self._meter_allreduce_exscan(payload_words(values[0]))
        pairs = self._collective("allreduce_exscan", values, op, initial)
        return [t for t, _ in pairs], [pre for _, pre in pairs]

    def _meter_allreduce_exscan(self, words: float) -> None:
        """Control plane of :meth:`allreduce_exscan` (schedule + charge)."""
        m = float(words)
        pairs = [
            (s, d, 2 * m) for rnd in hypercube_rounds(self.p) for s, d in rnd
        ]
        self.metrics.record_schedule(pairs, "allreduce_exscan")
        self._charge(self.cost.allreduce_exscan(m, self.p))

    def gather(self, values: Sequence, root: int = 0, mode: str = "tree") -> list:
        """Collect all contributions at ``root`` (a list in rank order).

        ``mode="tree"`` uses a binomial tree (``alpha log p`` startups);
        ``mode="direct"`` has every PE send straight to the root
        (``alpha (p-1)`` serialized startups at the root -- the
        master-worker pattern of the Naive baseline).
        """
        self._check_len(values, "gather")
        self._check_root(root, "gather")
        if mode not in ("tree", "direct"):
            raise ValueError(f"unknown gather mode {mode!r}")
        sizes = [payload_words(v) for v in values]
        if mode == "tree":
            self._meter_gather(sizes, root)
        else:
            self._meter_gather_direct(sizes, root)
        return self._collective("gather", values, root)

    def _meter_gather_direct(self, words: Sequence, root: int = 0) -> None:
        """Control plane of direct-mode :meth:`gather`: PE ``i`` sends
        its ``words[i]`` straight to ``root``, whose ``p - 1`` start-ups
        are serialized."""
        sizes = np.asarray(words, dtype=np.float64)
        total = float(sizes.sum() - sizes[root])
        edges = [(i, root, sizes[i]) for i in range(self.p) if i != root]
        self.metrics.record_schedule(edges, "gather_direct")
        self._charge(self.cost.gather_direct(total, self.p))

    def _meter_gather(self, words: Sequence, root: int = 0) -> None:
        """Control plane of tree-mode :meth:`gather` (schedule + charge
        only).  ``words[i]`` is PE ``i``'s payload size; used directly
        by call sites whose payloads stayed inside the workers."""
        sizes = np.asarray(words, dtype=np.float64)
        total = float(sizes.sum() - sizes[root])
        # accumulate subtree payloads bottom-up along the binomial tree
        acc = sizes.copy()
        edges = []
        for _, s, d in reversed(binomial_edges(self.p, root)):
            edges.append((d, s, acc[d]))
            acc[s] += acc[d]
        self.metrics.record_schedule(edges, "gather")
        self._charge(self.cost.gather(total, self.p))

    def allgather(self, values: Sequence) -> list:
        """All-to-all broadcast (gossiping): every PE gets every piece."""
        self._check_len(values, "allgather")
        self._meter_allgather(values)
        return self._collective("allgather", values)

    def _meter_allgather(
        self,
        values: Sequence | None = None,
        extra_words: float = 0.0,
        kind: str = "allgather",
        *,
        words: Sequence | None = None,
    ) -> None:
        """Control plane of :meth:`allgather` (schedule + charge only).

        ``extra_words`` rides every edge -- the piggybacked reduction
        accumulator of the fused :meth:`reduce_allgather`.  ``words``
        supplies per-PE payload sizes directly when the values
        themselves stayed inside the workers (SPMD steps).
        """
        if words is not None:
            sizes = np.asarray(words, dtype=np.float64)
        else:
            sizes = np.array([payload_words(v) for v in values], dtype=np.float64)
        # recursive-doubling schedule: in round r partners exchange the
        # blocks accumulated so far
        acc = sizes.copy()
        edges = []
        for rnd in hypercube_rounds(self.p):
            nxt = acc.copy()
            for i, j in rnd:
                edges.append((i, j, acc[i] + extra_words))
                edges.append((j, i, acc[j] + extra_words))
                nxt[i] = nxt[j] = acc[i] + acc[j]
            acc = nxt
        self.metrics.record_schedule(edges, kind)
        if extra_words:
            self._charge(
                self.cost.reduce_allgather(extra_words, float(sizes.mean()), self.p)
            )
        else:
            self._charge(self.cost.allgather(float(sizes.mean()), self.p))

    def reduce_allgather(
        self, values: Sequence, payloads: Sequence, op="sum"
    ) -> tuple[list, list]:
        """Fused ``allreduce(values)`` + ``allgather(payloads)``.

        One dissemination schedule carries the gathered payload blocks
        with the reduction accumulator riding along, so the ``alpha log
        p`` startups of a separate allreduce are paid only once.  The
        hot call sites are the sample-size + sample-payload pairs of the
        ``frequent/*`` pipelines (ROADMAP's remaining fusion candidate).

        Returns ``(totals, gathered)``, both replicated on every PE:
        ``totals[i]`` is the binomial-tree-order reduction of ``values``
        and ``gathered[i]`` the rank-ordered list of ``payloads``.
        """
        self._check_len(values, "reduce_allgather")
        self._check_len(payloads, "reduce_allgather")
        self._check_op(op, "reduce_allgather")
        self._meter_allgather(
            payloads, extra_words=payload_words(values[0]), kind="reduce_allgather"
        )
        pairs = self.backend.collective(
            "reduce_allgather",
            [("reduce_allgather", v, op, w) for v, w in zip(values, payloads)],
        )
        return [t for t, _ in pairs], [g for _, g in pairs]

    def scatter(self, pieces: Sequence, root: int = 0) -> list:
        """Distribute ``pieces[i]`` from ``root`` to PE ``i``."""
        self._check_len(pieces, "scatter")
        self._check_root(root, "scatter")
        sizes = np.array([payload_words(v) for v in pieces], dtype=np.float64)
        total = float(sizes.sum() - sizes[root])
        # top-down binomial tree: a parent forwards the payload bundle
        # destined to each child's subtree
        acc = sizes.copy()
        fwd = []
        for _, s, d in reversed(binomial_edges(self.p, root)):
            fwd.append((s, d, acc[d]))
            acc[s] += acc[d]
        self.metrics.record_schedule(reversed(fwd), "scatter")
        self._charge(self.cost.scatter(total, self.p))
        return self._collective_from("scatter", root, pieces, root)

    # ------------------------------------------------------------------
    # Personalized exchanges
    # ------------------------------------------------------------------
    def alltoall(self, matrix: Sequence[Sequence], mode: str = "direct") -> list[list]:
        """All-to-all personalized exchange.

        ``matrix[i][j]`` is the payload PE ``i`` sends to PE ``j``
        (``None`` for no message).  Returns ``out`` with
        ``out[j][i] == matrix[i][j]``.

        ``mode="direct"``: ``O(beta m p + alpha p)``.
        ``mode="hypercube"``: indirect delivery in ``log p`` rounds,
        ``O(beta m p log p + alpha log p)`` (Leighton [21, Thm 3.24]).
        """
        self._check_len(matrix, "alltoall")
        for i, row in enumerate(matrix):
            if len(row) != self.p:
                raise ValueError(f"alltoall row {i} has length {len(row)} != p")
        if mode not in ("direct", "hypercube"):
            raise ValueError(f"unknown alltoall mode {mode!r}")
        sizes = np.array(
            [[payload_words(matrix[i][j]) if i != j else 0 for j in range(self.p)] for i in range(self.p)],
            dtype=np.float64,
        )
        self._meter_alltoall(sizes, mode)
        return self._collective("alltoall", matrix)

    def _meter_alltoall(self, sizes: np.ndarray, mode: str = "direct") -> None:
        """Control plane of :meth:`alltoall` (schedule + charge only).

        ``sizes[i][j]`` is the word count PE ``i`` sends to PE ``j``
        (diagonal ignored).  Used directly by call sites whose payloads
        stay inside the workers (SPMD ``alltoall`` yields).
        """
        sizes = np.array(sizes, dtype=np.float64, copy=True)
        np.fill_diagonal(sizes, 0.0)  # self-delivery is a local handoff
        if mode == "direct":
            edges = [
                (i, j, sizes[i][j])
                for i in range(self.p)
                for j in range(self.p)
                if i != j and sizes[i][j] > 0
            ]
            self.metrics.record_schedule(edges, "alltoall")
            sent = sizes.sum(axis=1)
            recv = sizes.sum(axis=0)
            bottleneck = float(np.maximum(sent, recv).max(initial=0.0))
            msgs = max(self.p - 1, 0)
            self._charge(CollectiveCost(self.cost.alpha * msgs + self.cost.beta * bottleneck, msgs, bottleneck))
        elif mode == "hypercube":
            self._route_hypercube_sizes(sizes, kind="alltoall_hc")
        else:
            raise ValueError(f"unknown alltoall mode {mode!r}")

    def _route_hypercube_sizes(self, sizes: np.ndarray, kind: str) -> None:
        """Charge metrics/time for hypercube-routing the ``sizes`` matrix.

        ``sizes[i][j]`` words travel from ``i`` to ``j`` along dimension-
        ordered hypercube hops; intermediate PEs forward the payload.
        """
        p = self.p
        # buckets[i][j] = words currently parked at i, destined for j
        buckets = sizes.copy()
        dims = log2_ceil(p)
        ranks = np.arange(p)
        for r in range(dims):
            bit = 1 << r
            partners = ranks ^ bit
            active = partners < p  # PEs whose round-r partner exists
            # dest_mask[i, j]: destination j differs from i in bit r
            dest_mask = ((ranks[:, None] ^ ranks[None, :]) & bit) != 0
            forwarded = np.where(dest_mask & active[:, None], buckets, 0.0)
            moved = forwarded.sum(axis=1)
            senders = ranks[active & (moved > 0)]
            edges = [(int(i), int(partners[i]), float(moved[i])) for i in senders]
            buckets = buckets - forwarded
            np.add.at(buckets, partners[senders], forwarded[senders])
            if edges:
                self.metrics.record_schedule(edges, kind)
            self.clock.sync_collective(self.cost.alpha + self.cost.beta * float(moved.max(initial=0.0)))

    def _meter_dht_round(self, bit: int, sent: Sequence[int], width: float) -> None:
        """Control plane of one hypercube round of the hash-table
        exchange (:func:`repro.frequent.dht.exchange_gen`): PE ``i``
        ships ``sent[i]`` entries of ``width`` words each to PE
        ``i ^ bit``, which merges them into its table (one probe per
        entry); only non-empty messages are metered."""
        entries = np.asarray(sent, dtype=np.float64)
        partners = np.arange(self.p) ^ bit
        self.charge_ops(entries[partners])
        words = width * entries
        edges = [
            (int(i), int(partners[i]), float(words[i]))
            for i in np.flatnonzero(entries)
        ]
        if edges:
            self.metrics.record_schedule(edges, "dht_exchange")
        self.clock.sync_collective(
            self.cost.alpha + self.cost.beta * float(words.max(initial=0.0))
        )

    def _meter_tree_hop(self, rnd: int, words: Sequence, kind: str) -> None:
        """Control plane of round ``rnd`` of a merge up the binomial
        tree into PE 0 (:func:`repro.frequent.dht.tree_merge_gen`): per
        edge, one message of the child's words, then ``max(1, w)``
        merge ops at the parent."""
        for r, parent, child in reversed(binomial_edges(self.p, 0)):
            if r != rnd:
                continue
            w = words[child]
            self.metrics.record_p2p(child, parent, w, kind)
            self.clock.charge_p2p(child, parent, self.cost.p2p(w))
            self.charge_ops_one(parent, max(1.0, w))

    # ------------------------------------------------------------------
    # Deferred charging (resident SPMD steps)
    # ------------------------------------------------------------------
    def replay_charges(self, logs: Sequence[Sequence[tuple]]) -> None:
        """Re-play the cost model from per-PE charge logs.

        A resident SPMD kernel runs many rounds of local work and
        embedded collectives inside one backend command; the driver
        cannot charge step by step, so the kernel records what it did
        and the driver replays the model afterwards in the exact
        execution order (interleaving local charges with collective
        synchronizations, so straggler effects land where they would
        have).  ``logs[i]`` is rank ``i``'s entry list; all ranks must
        have appended the same entry sequence (SPMD discipline):

        * ``("ops", x)`` -- ``x`` elementary operations of local work on
          this rank (:meth:`charge_ops`),
        * ``("allgather", w)`` -- an embedded allgather whose local
          contribution was ``w`` words,
        * ``("allreduce", w)`` / ``("allreduce_exscan", w)`` /
          ``("scan", w)`` -- embedded reduction-type collectives of
          ``w`` payload words (replicated entries; rank 0's word count
          sizes the schedule, matching what the live collective would
          have metered),
        * ``("broadcast", w, root)`` -- a rooted broadcast of ``w``
          words (replicated entries),
        * ``("gather", w, root)`` -- a tree gather where ``w`` is *this
          rank's* contribution (per-rank word counts, shared ``root``),
        * ``("gather_direct", w)`` -- every rank sends its ``w`` words
          straight to PE 0 (:meth:`_meter_gather_direct`),
        * ``("tree_hop", r, w, label)`` -- round ``r`` of a merge up the
          binomial tree into PE 0 (:meth:`_meter_tree_hop`): ``w`` is
          what this rank sends in that round (0 if it sends nothing;
          ``r`` and ``label`` replicated),
        * ``("reduce_allgather", w, m)`` -- the fused
          :meth:`reduce_allgather`: this rank's ``w`` gathered words
          with an ``m``-word reduction accumulator riding every edge
          (``m`` replicated),
        * ``("alltoall", row)`` -- a direct personalized exchange;
          ``row[j]`` is the word count this rank sends to PE ``j``,
        * ``("dht_round", bit, n, width)`` -- one hypercube round of
          the hash-table exchange (:meth:`_meter_dht_round`): this rank
          ships ``n`` entries of ``width`` words each to PE
          ``rank ^ bit``, which merges them (``bit`` and ``width``
          replicated).

        Modeled time and metered volume are identical on every backend
        because the log contains only small scalars.
        """
        self._check_len(logs, "replay_charges")
        head = logs[0]
        length = len(head)
        if any(len(entries) != length for entries in logs):
            raise ValueError("charge logs diverged across ranks")
        t = 0
        while t < length:
            kind = head[t][0]
            if kind == "ops":
                # a run of local work is one clock update
                end = t + 1
                while end < length and head[end][0] == "ops":
                    end += 1
                ops = np.array([[e[1] for e in entries[t:end]] for entries in logs],
                               dtype=np.float64)
                self.clock.charge_local_rows(ops.T * self.cost.time_per_op)
                t = end
                continue
            if kind == "allgather":
                self._meter_allgather(
                    words=[float(logs[i][t][1]) for i in range(self.p)]
                )
            elif kind == "allreduce":
                self._meter_allreduce(words=float(logs[0][t][1]))
            elif kind == "allreduce_exscan":
                self._meter_allreduce_exscan(float(logs[0][t][1]))
            elif kind == "scan":
                self._meter_scan(float(logs[0][t][1]))
            elif kind == "broadcast":
                self._meter_broadcast(float(logs[0][t][1]), int(logs[0][t][2]))
            elif kind == "gather":
                self._meter_gather(
                    [float(logs[i][t][1]) for i in range(self.p)],
                    int(logs[0][t][2]),
                )
            elif kind == "gather_direct":
                self._meter_gather_direct([logs[i][t][1] for i in range(self.p)])
            elif kind == "tree_hop":
                self._meter_tree_hop(int(logs[0][t][1]),
                                     [logs[i][t][2] for i in range(self.p)], logs[0][t][3])
            elif kind == "reduce_allgather":
                self._meter_allgather(
                    words=[float(logs[i][t][1]) for i in range(self.p)],
                    extra_words=float(logs[0][t][2]),
                    kind="reduce_allgather",
                )
            elif kind == "alltoall":
                self._meter_alltoall([logs[i][t][1] for i in range(self.p)])
            elif kind == "dht_round":
                self._meter_dht_round(
                    int(logs[0][t][1]),
                    [logs[i][t][2] for i in range(self.p)],
                    float(logs[0][t][3]),
                )
            else:
                raise ValueError(f"unknown charge-log entry kind {kind!r}")
            t += 1

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, payload, kind: str = "p2p"):
        """Transfer ``payload`` from PE ``src`` to PE ``dst``."""
        if not (0 <= src < self.p and 0 <= dst < self.p):
            raise ValueError(f"ranks out of range: {src} -> {dst} with p={self.p}")
        w = payload_words(payload)
        if src != dst:
            self.metrics.record_p2p(src, dst, w, kind)
            self.clock.charge_p2p(src, dst, self.cost.p2p(w))
            payload = self._collective_from("p2p", src, payload, src, dst)[dst]
        return payload

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
