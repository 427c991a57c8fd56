"""Query engine: admission batching + query fusion over one machine.

Queries are submitted from any thread (:meth:`QueryEngine.submit`
returns a :class:`concurrent.futures.Future`) and executed on one
dedicated engine thread that owns the machine.  The engine admits a
*batch* at a time: it blocks for the first pending query, then keeps
admitting for ``batch_window`` seconds (up to ``max_batch`` queries)
before executing, so concurrent clients' queries land in the same
batch.

Fusion generalizes :func:`~repro.selection.multi_select`'s segment
fusion from one query's ranks to *many queries'* ranks: every rank
query (``select``, ``quantile``, ``topk``) of a batch that targets the
same dataset contributes its target ranks to one ``multi_select`` call,
which resolves them all with a single shared recursion -- one fused
sample allgather and one fused count reduction per level instead of one
per query.  ``frequent`` queries on one dataset share one command at
the batch's largest ``k``; each is answered with the prefix its own
``k`` asks for (the order -- count descending, key ascending -- is
total, so a smaller top-k is a prefix of a larger one).  A dataset
never changes, so its keys are counted and exchanged once: the first
``frequent`` command leaves the owner tables resident
(:func:`~repro.frequent.count_table_top_k`) and every later one only
selects from them (:func:`~repro.frequent.top_k_from_table`).  The
tables are a command's output, so a pool recovery rebuilds them from
lineage like the datasets.  The longest answer given is kept too: a
later group whose largest ``k`` it covers -- or whose dataset it showed
to hold fewer keys than it asked for -- is answered by its prefix with
no command (``stats["prefix_answers"]`` counts those queries).

Rank answers are remembered the same way: each dataset keeps a
:class:`~repro.serve.rank_index.RankIndex` of the values its rank
queries found, with their exact counts of elements ``<`` and ``<=``
them -- every rank the command pinned, not only the asked ones: each
pivot a level of the recursion split on comes back with its global rank
and count, so the index learns the cut points of every level.  A target
rank a recorded value holds is answered from the index with no command
(``stats["index_answers"]`` counts them); the others run
:func:`~repro.selection.multi_select_windows`, each only inside the
window between its nearest recorded neighbours.  The index and the kept
frequent answers are driver data over immutable datasets, so they stay
valid across a pool recovery.

Supported query dicts (``dataset`` defaults to ``"default"``)::

    {"op": "select",   "k": 1234}            # k-th smallest value
    {"op": "quantile", "q": 0.5}             # nearest-rank quantile
    {"op": "topk",     "k": 10}              # k largest, descending
    {"op": "frequent", "k": 8}               # top-k most frequent keys
"""

from __future__ import annotations

import math
import numbers
import queue
import threading
import time
from concurrent.futures import Future

import numpy as np

from ..common.validation import as_rank, is_fraction
from ..machine import DistArray, Machine, WorkerFailure
from .rank_index import RankIndex

__all__ = ["OverloadedError", "QueryEngine", "QueryError", "default_datasets"]

#: ops fused into one multi_select per dataset
_RANK_OPS = ("select", "quantile", "topk")


class QueryError(ValueError):
    """A malformed or unsatisfiable query (reported to the one client)."""


class OverloadedError(QueryError):
    """The admission queue is full: the server sheds this query instead
    of growing an unbounded backlog (clients should back off and retry)."""


def default_datasets(machine: Machine, n: int, *, universe: int = 1 << 12,
                     s: float = 1.1) -> dict[str, DistArray]:
    """The server's stock datasets, deterministic in ``(p, seed, n)``.

    ``default``: ``n`` uniform floats in ``[0, 1)`` split evenly over
    the PEs; ``keys``: ``n`` Zipf-distributed integer keys (the
    frequent-objects workload).  Smoke tests rebuild the same arrays on
    a sim machine with the same seed to get a driver-side oracle.
    """
    from ..common import zipf_sample

    per_pe = [n // machine.p + (1 if i < n % machine.p else 0)
              for i in range(machine.p)]
    values = DistArray.generate(
        machine, lambda r, g: g.random(per_pe[r])
    )
    keys = DistArray.generate(
        machine, lambda r, g: zipf_sample(g, per_pe[r], universe=universe, s=s)
    )
    return {"default": values, "keys": keys}


class _Pending:
    __slots__ = ("query", "future", "t0")

    def __init__(self, query: dict, future: Future):
        self.query = query
        self.future = future
        #: admission timestamp (monotonic) for the per-query deadline
        self.t0 = time.monotonic()


class QueryEngine:
    """Batched, fusing front-end over one machine (thread-safe submit).

    Parameters
    ----------
    machine:
        The machine to serve on; the engine takes ownership (closes it
        with :meth:`close`) and touches it only from its own thread.
    datasets:
        Name -> :class:`DistArray` map the queries refer to.
    batch_window:
        Seconds to keep admitting after the first query of a batch
        (``0`` disables batching: every query runs alone, the serial
        baseline the benchmark compares against).
    max_batch:
        Hard cap on queries per batch.
    max_queue:
        Admission bound: queries submitted while this many are already
        queued fail immediately with :class:`OverloadedError` instead
        of growing an unbounded backlog.
    query_deadline:
        Seconds a query may spend queued + batched before the engine
        expires it with a ``QueryError`` (``None`` disables; a query
        dict's own ``"deadline"`` key overrides per query).

    A worker failure fails only the batch it hit; the engine then
    recovers the pool in place (:meth:`Machine.recover` replays every
    dataset's lineage), so later queries answer as before.
    """

    def __init__(
        self,
        machine: Machine,
        datasets: dict[str, DistArray],
        *,
        batch_window: float = 0.005,
        max_batch: int = 64,
        max_queue: int = 1024,
        query_deadline: float | None = None,
    ):
        self.machine = machine
        self.datasets = dict(datasets)
        self.batch_window = float(batch_window)
        self.max_batch = max(1, int(max_batch))
        self.max_queue = max(1, int(max_queue))
        self.query_deadline = (
            float(query_deadline) if query_deadline else None
        )
        #: dataset name -> its resident exact count table, made by the
        #: dataset's first frequent command
        self._tables: dict = {}
        #: dataset name -> ``(k, payload)``: the longest frequent answer
        #: given, whose prefixes answer every smaller ``k``
        self._frequent: dict[str, tuple] = {}
        #: dataset name -> its :class:`RankIndex` of answered order
        #: statistics (driver data: the datasets never change, so it
        #: stays valid across a pool recovery)
        self._index: dict[str, RankIndex] = {}
        #: ``index_answers`` counts rank targets answered from an index
        #: with no command, ``prefix_answers`` frequent queries answered
        #: from a kept longer answer with no command
        self.stats = {"queries": 0, "batches": 0, "fused_commands": 0,
                      "max_batch_size": 0, "worker_failures": 0,
                      "rebuilds": 0, "overloads": 0, "expired": 0,
                      "index_answers": 0, "prefix_answers": 0}
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        #: submitted-but-not-admitted count backing the admission bound
        #: (SimpleQueue.qsize is unreliable on some platforms)
        self._depth = 0
        self._depth_lock = threading.Lock()
        self._closed = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-engine", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Client side (any thread)
    # ------------------------------------------------------------------
    def submit(self, query: dict) -> Future:
        """Enqueue one query; the future resolves to its result.

        Fails fast with :class:`OverloadedError` when ``max_queue``
        queries are already waiting for admission."""
        future: Future = Future()
        if self._closed.is_set():
            future.set_exception(QueryError("engine is closed"))
            return future
        with self._depth_lock:
            if self._depth >= self.max_queue:
                self.stats["overloads"] += 1
                future.set_exception(OverloadedError(
                    f"admission queue is full ({self.max_queue} queries "
                    f"pending); retry with backoff"
                ))
                return future
            self._depth += 1
        self._queue.put(_Pending(dict(query), future))
        return future

    def query(self, **query):
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(query).result()

    def close(self) -> None:
        """Drain, stop the engine thread, close the machine."""
        if self._closed.is_set():
            return
        self._closed.set()
        self._queue.put(None)  # wake the admission loop
        self._thread.join(timeout=30.0)
        self.machine.close()

    # ------------------------------------------------------------------
    # Engine thread
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            batch = self._admit()
            if batch is None:
                break
            self.stats["queries"] += len(batch)
            self.stats["batches"] += 1
            self.stats["max_batch_size"] = max(
                self.stats["max_batch_size"], len(batch)
            )
            try:
                self._execute(batch)
            except Exception as exc:
                # a bug in one batch must not kill the engine thread:
                # fail what it left unanswered and keep serving
                for item in batch:
                    if not item.future.done():
                        item.future.set_exception(exc)
        # engine shutting down: fail whatever is still queued
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not None:
                item.future.set_exception(QueryError("engine is closed"))

    def _take(self, timeout: float):
        """Dequeue one item, keeping the admission-depth counter in sync
        (the sentinel ``None`` is not counted)."""
        item = self._queue.get(timeout=timeout)
        if item is not None:
            with self._depth_lock:
                self._depth -= 1
        return item

    def _admit(self) -> list[_Pending] | None:
        """One admission round: block for the first query, then keep
        admitting until the window closes or the batch is full.
        Returns ``None`` on shutdown."""
        while True:
            # bounded slices rather than one indefinite get: the engine
            # thread stays responsive to close() even if the wake
            # sentinel is lost
            try:
                first = self._take(timeout=1.0)
                break
            except queue.Empty:
                if self._closed.is_set():
                    return None
        if first is None:
            return None
        batch = [first]
        deadline = time.monotonic() + self.batch_window
        while len(batch) < self.max_batch:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                item = self._take(timeout=remaining)
            except queue.Empty:
                break
            if item is None:
                # shutdown sentinel: finish this batch, exit next round
                self._queue.put(None)
                break
            batch.append(item)
        return batch

    def _expired(self, item: _Pending) -> bool:
        """Expire a query past its deadline (the dict's ``"deadline"``
        key overrides the engine default; ``None`` means none) before
        paying to run it.  Any other deadline that is not a number
        ``>= 0`` raises ``QueryError``."""
        limit = item.query.get("deadline", self.query_deadline)
        if limit is None:
            return False
        if not (isinstance(limit, numbers.Real)
                and not isinstance(limit, bool) and limit >= 0):
            raise QueryError(
                f"deadline must be a number of seconds >= 0, got {limit!r}"
            )
        if time.monotonic() - item.t0 <= limit:
            return False
        self.stats["expired"] += 1
        item.future.set_exception(QueryError(
            f"query expired: waited longer than its deadline "
            f"({float(limit):.3f}s)"
        ))
        return True

    def _execute(self, batch: list[_Pending]) -> None:
        """Group a batch by (dataset, fusion class) and run each group
        as one fused call; per-query failures stay on their future."""
        rank_groups: dict[str, list[_Pending]] = {}
        freq_groups: dict[str, list[tuple[int, _Pending]]] = {}
        for item in batch:
            if not item.future.set_running_or_notify_cancel():
                continue  # cancelled by its client while it queued
            try:
                if self._expired(item):
                    continue
                q = item.query
                op = q.get("op")
                name = q.get("dataset", "default")
                if name not in self.datasets:
                    raise QueryError(
                        f"unknown dataset {name!r}; have {sorted(self.datasets)}"
                    )
                if op in _RANK_OPS:
                    # validate eagerly so one bad query cannot poison
                    # the fused call it would have joined
                    self._ranks_of(q, self.datasets[name].global_size)
                    rank_groups.setdefault(name, []).append(item)
                elif op == "frequent":
                    k = as_rank(q.get("k", 0), "frequent k")
                    if k < 1:
                        raise QueryError(f"frequent needs k >= 1, got {k}")
                    freq_groups.setdefault(name, []).append((k, item))
                else:
                    raise QueryError(f"unknown op {op!r}")
            except Exception as exc:
                item.future.set_exception(exc)
        for name, items in rank_groups.items():
            self._run_rank_group(name, items)
        for name, items in freq_groups.items():
            self._run_frequent_group(name, items)

    def _ranks_of(self, q: dict, n: int) -> list[int]:
        """Target ranks (1-based, ascending) of one rank query."""
        op = q["op"]
        if n == 0:
            raise QueryError(f"dataset {q.get('dataset', 'default')!r} is empty")
        if op == "select":
            k = as_rank(q.get("k", 0), "select k")
            if not 1 <= k <= n:
                raise QueryError(f"select needs 1 <= k <= {n}, got {k}")
            return [k]
        if op == "quantile":
            quant = q.get("q", -1.0)
            if not is_fraction(quant):
                raise QueryError(f"quantile needs a number 0 <= q <= 1, got {quant!r}")
            return [max(1, int(math.ceil(float(quant) * n)))]
        # topk: the k largest, i.e. ranks n-k+1 .. n
        k = as_rank(q.get("k", 0), "topk k")
        if not 1 <= k <= n:
            raise QueryError(f"topk needs 1 <= k <= {n}, got {k}")
        return list(range(n - k + 1, n + 1))

    def _after_backend_failure(self, exc: Exception) -> None:
        """Failure isolation: a worker failure fails only the batch it
        hit and costs one pool rebuild (if that fails too, the next
        command tries again), so subsequent queries succeed on the
        recovered pool."""
        if not (isinstance(exc, WorkerFailure)
                or getattr(self.machine.backend, "broken", False)):
            return
        self.stats["worker_failures"] += 1
        try:
            self.machine.recover()
        except Exception:
            return
        self.stats["rebuilds"] += 1

    def _run_rank_group(self, name: str, items: list[_Pending]) -> None:
        """The group's target ranks: those a recorded answer holds come
        from the dataset's index; the rest share ONE
        :func:`~repro.selection.multi_select_windows` call, each rank
        recursing only inside the window its nearest recorded neighbours
        bracket.  Every rank the command pinned is recorded, the pivots'
        with the asked ones; a failed command fails only the queries it
        had to answer."""
        from ..selection import multi_select_windows

        data = self.datasets[name]
        n = data.global_size
        index = self._index.setdefault(name, RankIndex(n))
        wanted: dict[int, list[int]] = {}
        for i, item in enumerate(items):
            wanted[i] = self._ranks_of(item.query, n)
        by_rank: dict = {}
        missing: list[int] = []
        for k in sorted({k for ranks in wanted.values() for k in ranks}):
            hit, value = index.answer(k)
            if hit:
                by_rank[k] = value
            else:
                missing.append(k)
        self.stats["index_answers"] += len(by_rank)
        failure = None
        if missing:
            try:
                found = multi_select_windows(self.machine, data,
                                             index.windows(missing))
            except Exception as exc:
                failure = exc
            else:
                self.stats["fused_commands"] += 1
                for k, (value, n_less, n_leq) in found.items():
                    index.record(k, value, n_less, n_leq)
                    by_rank[k] = value
        for i, item in enumerate(items):
            if failure is not None and any(k not in by_rank for k in wanted[i]):
                item.future.set_exception(failure)
                continue
            got = [by_rank[k] for k in wanted[i]]
            if item.query["op"] == "topk":
                item.future.set_result(got[::-1])  # descending
            else:
                item.future.set_result(got[0])
        if failure is not None:
            self._after_backend_failure(failure)

    def _run_frequent_group(self, name: str,
                            items: list[tuple[int, _Pending]]) -> None:
        """ONE command at the largest ``k`` shared by every frequent
        query on the dataset: the first counts the dataset and keeps its
        table, later ones select from the table.  The result order
        (count desc, key asc) is total, so a smaller ``k``'s answer is a
        prefix: a group whose largest ``k`` the longest answer given so
        far covers -- or whose dataset that answer showed to hold fewer
        keys than it asked for -- needs no command at all."""
        from ..frequent import count_table_top_k, top_k_from_table

        k = max(k for k, _ in items)
        kept = self._frequent.get(name)
        if kept is not None and (k <= kept[0] or len(kept[1]) < kept[0]):
            self.stats["prefix_answers"] += len(items)
            for k, item in items:
                item.future.set_result(kept[1][:k])
            return
        try:
            table = self._tables.get(name)
            if table is None:
                res, self._tables[name] = count_table_top_k(
                    self.machine, self.datasets[name], k)
            else:
                res = top_k_from_table(self.machine, table, k)
        except Exception as exc:
            for _, item in items:
                item.future.set_exception(exc)
            self._after_backend_failure(exc)
            return
        self.stats["fused_commands"] += 1
        payload = [[int(key), float(c)] for key, c in res.items]
        self._frequent[name] = (k, payload)
        for k, item in items:
            item.future.set_result(payload[:k])
