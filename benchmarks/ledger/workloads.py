"""The six workloads: what one timed operation is, on which data, and
how its result is checked.

Every workload builds the same state on the ``mp`` backend (measured)
and on a ``sim``-backend twin with the same seed, which then runs every
operation too: it stays in lockstep (same draw addresses, hence the same
recursion and the same sampled results), which makes it a bit-identity
oracle and makes ``speedup_vs_sim`` a ratio of like with like.  Inputs and operation
schedules are functions of the seed alone.  Algorithm entry points are
called through their modules (``selection.multi_select``) so the tracer
can substitute them.
"""

from __future__ import annotations

import concurrent.futures as cf
import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import aggregation, frequent, redistribution, selection, serve
from repro.aggregation import DistKeyValue
from repro.common import zipf_sample
from repro.machine import DistArray, Machine
from repro.pqueue import BulkParallelPQ

__all__ = ["Outcome", "P", "WORKLOADS", "Workload"]

#: PEs of every benchmark machine (fixed: the box has two cores)
P = 2


@dataclass
class Outcome:
    """What one operation produced.

    ``digest`` must compare equal between the mp run and its sim twin
    (``verify`` may fill it in, outside the timed region);
    ``legs`` are the separately timed parts of the operation (ms);
    ``samples_ms`` replaces the operation's own wall as the latency
    samples when one operation stands for many requests (serve);
    ``info`` carries per-operation counts for the per-layer metrics.
    """

    digest: object
    legs: dict = field(default_factory=dict)
    samples_ms: list | None = None
    info: dict = field(default_factory=dict)


@dataclass
class Ctx:
    """State of one workload on one machine (one block, one backend)."""

    machine: Machine
    state: dict = field(default_factory=dict)


class Workload:
    """Protocol of a workload; see the module docstring."""

    name = ""
    why = ""
    #: unit of ``work()`` (the numerator of ``work_per_s``)
    work_unit = ""
    #: run the yardstick (~2.3 ms) before every n-th timed operation
    yard_every = 1
    #: units of attempted work per operation (requests per serve round)
    units = 1

    def __init__(self, seed: int):
        self.seed = int(seed)

    def _rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def open(self, backend: str) -> Ctx:
        """New machine, data made resident."""
        raise NotImplementedError

    def ops(self, block: int):
        """The block's endless, seed-determined operation schedule."""
        raise NotImplementedError

    def run(self, ctx: Ctx, op) -> Outcome:
        """The timed unit."""
        raise NotImplementedError

    def model(self, ctx: Ctx, op) -> None:
        """Run ``op`` in a form whose modeled cost is a function of
        ``op`` alone (for :func:`harness.model_step`)."""
        self.run(ctx, op)

    def work(self, op, outcome: Outcome) -> float:
        raise NotImplementedError

    def verify(self, ctx: Ctx, op, outcome: Outcome) -> int:
        """Check ``outcome`` against the oracle; failed units."""
        raise NotImplementedError

    def close(self, ctx: Ctx) -> None:
        ctx.machine.close()


# ----------------------------------------------------------------------
# select-small / select-large
# ----------------------------------------------------------------------

class Select(Workload):
    work_unit = "elements"
    n_ranks = 6

    def __init__(self, seed: int, name: str, n_per_pe: int, kinds: tuple, why: str):
        super().__init__(seed)
        self.name = name
        self.why = why
        self.n_per_pe = n_per_pe
        self.kinds = kinds
        self._sorted: list | None = None

    def _make(self, kind: str):
        n = self.n_per_pe
        if kind == "uniform":
            return lambda rank, g: g.integers(0, 1 << 40, size=n, dtype=np.int64)
        # duplicate-heavy: ~64 Ki distinct values, Zipf-popular
        return lambda rank, g: zipf_sample(g, n, universe=1 << 16, s=1.1)

    def open(self, backend: str) -> Ctx:
        m = Machine(P, seed=self.seed, backend=backend)
        data = [DistArray.generate(m, self._make(kind)) for kind in self.kinds]
        if backend == "sim" and self._sorted is None:
            # the oracle, once per run: every block regenerates the same
            # data from the same seed
            self._sorted = [np.sort(d.concat()) for d in data]
        return Ctx(m, {"data": data})

    def ops(self, block: int):
        rng = self._rng(block, 1)
        n = self.n_per_pe * P
        # one seeded rank in each sixth of 1..n: every op spans the
        # whole rank range, so op costs differ less than with six
        # independent ranks
        edges = np.linspace(0, n, self.n_ranks + 1).astype(np.int64)
        i = 0
        while True:
            ks = [int(rng.integers(lo, hi)) + 1 for lo, hi in zip(edges, edges[1:])]
            yield (i % len(self.kinds), ks)
            i += 1

    def run(self, ctx: Ctx, op) -> Outcome:
        which, ks = op
        values = selection.multi_select(ctx.machine, ctx.state["data"][which], ks)
        return Outcome([int(v) for v in values])

    def work(self, op, outcome) -> float:
        return float(self.n_per_pe * P)

    def verify(self, ctx, op, outcome) -> int:
        which, ks = op
        want = [int(self._sorted[which][k - 1]) for k in ks]
        return int(outcome.digest != want)


# ----------------------------------------------------------------------
# pqueue-cycle
# ----------------------------------------------------------------------

class PQueueCycle(Workload):
    name = "pqueue-cycle"
    why = ("bulk priority queue insert/deleteMin cycles: trees, pqueue and "
           "the treap merge kernel do the work, selection kernels none")
    work_unit = "keys"

    prefill = 8192
    batch = 512
    k_exact = 1024
    k_flex = (768, 1280)

    def open(self, backend: str) -> Ctx:
        m = Machine(P, seed=self.seed, backend=backend)
        pq = BulkParallelPQ(m)
        keys = self._rng(0, 2).random((P, self.prefill))
        pq.insert(list(keys))
        pq.peek_min()  # ships the buffered keys into the resident trees
        return Ctx(m, {"pq": pq, "ref": np.sort(keys.ravel())})

    def ops(self, block: int):
        rng = self._rng(block, 3)
        i = 0
        while True:
            yield ("flex" if i % 4 == 3 else "exact", rng.random((P, self.batch)))
            i += 1

    def run(self, ctx: Ctx, op) -> Outcome:
        kind, keys = op
        pq = ctx.state["pq"]
        t0 = time.perf_counter()
        pq.insert(list(keys))
        # insert only buffers driver-side; peek_min is the cheapest
        # public call that ships the batch into the trees, so the write
        # leg ends when the keys are really in
        pq.peek_min()
        t1 = time.perf_counter()
        if kind == "exact":
            res = pq.delete_min(self.k_exact)
        else:
            res = pq.delete_min_flexible(*self.k_flex)
        t2 = time.perf_counter()
        leg = "delete_min_ms" if kind == "exact" else "delete_min_flexible_ms"
        return Outcome(
            None,
            legs={"insert_ms": (t1 - t0) * 1e3, leg: (t2 - t1) * 1e3},
            info={"rounds": res.rounds, "k": res.k, "batches": res.batches},
        )

    def work(self, op, outcome) -> float:
        return float(P * self.batch + outcome.info["k"])

    def verify(self, ctx, op, outcome) -> int:
        kind, keys = op
        got = np.sort(np.array(
            [item[0] for batch in outcome.info.pop("batches") for item in batch],
            dtype=np.float64,
        ))
        k = outcome.info["k"]
        outcome.digest = (k, got.tobytes())
        ref = np.sort(np.concatenate([ctx.state["ref"], keys.ravel()]))
        ctx.state["ref"] = ref[k:]
        lo, hi = (self.k_exact, self.k_exact) if kind == "exact" else self.k_flex
        return int(not (lo <= k <= hi and np.array_equal(got, ref[:k])))


# ----------------------------------------------------------------------
# bulk-move
# ----------------------------------------------------------------------

def _fingerprint(arrays) -> tuple[int, int]:
    """Order-independent multiset fingerprint: wrapping sum and xor."""
    total, mixed = 0, 0
    for a in arrays:
        u = np.asarray(a).view(np.uint64)
        total = (total + int(np.add.reduce(u))) & ((1 << 64) - 1)
        mixed ^= int(np.bitwise_xor.reduce(u)) if u.size else 0
    return total, mixed


class BulkMove(Workload):
    name = "bulk-move"
    why = ("upload, rebalance and fetch 16 MiB: the shm lane and the "
           "transport do the work (driver to worker, worker to worker, "
           "worker to driver), algorithms almost none")
    work_unit = "bytes"
    yard_every = 4  # an op is ~5 ms, two yardstick runs
    sizes = (7 << 18, 1 << 18)  # 1.75 Mi vs 0.25 Mi int64

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self._rng(0, 4)
        self.chunks = [rng.integers(0, 1 << 62, size=n, dtype=np.int64)
                       for n in self.sizes]
        self._print = _fingerprint(self.chunks)
        self._sorted = np.sort(np.concatenate(self.chunks))

    def open(self, backend: str) -> Ctx:
        return Ctx(Machine(P, seed=self.seed, backend=backend), {"checked": False})

    def ops(self, block: int):
        while True:
            yield None

    def run(self, ctx: Ctx, op) -> Outcome:
        m = ctx.machine
        t0 = time.perf_counter()
        data = DistArray(m, self.chunks, resident=True)
        t1 = time.perf_counter()
        out, stats = redistribution.redistribute(m, data)
        t2 = time.perf_counter()
        got = out.chunks
        t3 = time.perf_counter()
        return Outcome(
            # bit-identity across backends, cheaply: the arrangement
            [int(c[0]) ^ int(c[-1]) ^ len(c) for c in got],
            legs={"upload_ms": (t1 - t0) * 1e3, "redistribute_ms": (t2 - t1) * 1e3,
                  "fetch_ms": (t3 - t2) * 1e3},
            info={"got": got, "moved": stats.moved},
        )

    def work(self, op, outcome) -> float:
        n = sum(self.sizes)
        return 8.0 * (2 * n + outcome.info["moved"])

    def verify(self, ctx, op, outcome) -> int:
        # the arrays may alias shm segments: drop them once checked
        got = outcome.info.pop("got")
        n = sum(self.sizes)
        ok = (sum(len(c) for c in got) == n
              and max(len(c) for c in got) <= -(-n // P)
              and _fingerprint(got) == self._print)
        if ok and not ctx.state["checked"]:
            # the exact multiset, once per block (a 2 Mi sort)
            ok = np.array_equal(np.sort(np.concatenate(got)), self._sorted)
            ctx.state["checked"] = True
        return int(not ok)


# ----------------------------------------------------------------------
# driver-collectives
# ----------------------------------------------------------------------

class DriverCollectives(Workload):
    name = "driver-collectives"
    why = ("the families still written as driver-side list-of-p collectives: "
           "every collective is a driver round trip with per-PE values "
           "shipped both ways")
    work_unit = "elements"
    n_keys = 1 << 15
    n_seq = 1 << 14
    k = 16

    def open(self, backend: str) -> Ctx:
        m = Machine(P, seed=self.seed, backend=backend)
        n = self.n_keys
        keys = DistArray.generate(
            m, lambda r, g: zipf_sample(g, n, universe=1 << 12, s=1.1))
        kv = DistKeyValue.generate(
            m, lambda r, g: (zipf_sample(g, n, universe=1 << 12, s=1.1),
                             g.exponential(10.0, size=n)))
        seqs = [np.sort(g.random(self.n_seq)) for g in m.rngs]
        state = {"keys": keys, "kv": kv, "seqs": seqs}
        if backend == "sim":
            state["all_seq"] = np.sort(np.concatenate(seqs))
            state["counts"] = frequent.exact_counts_oracle(keys)
        return Ctx(m, state)

    def ops(self, block: int):
        rng = self._rng(block, 5)
        n = self.n_seq * P
        while True:
            k_lo = int(rng.integers(64, n // 2))
            yield (k_lo, k_lo + max(8, k_lo // 2))

    def run(self, ctx: Ctx, op) -> Outcome:
        m, st = ctx.machine, ctx.state
        k_lo, k_hi = op
        t0 = time.perf_counter()
        pac = frequent.top_k_frequent_pac(m, st["keys"], self.k, eps=0.02, delta=1e-3)
        t1 = time.perf_counter()
        ec = frequent.top_k_frequent_ec(m, st["keys"], self.k, eps=0.02, delta=1e-3)
        t2 = time.perf_counter()
        sums = aggregation.top_k_sums_ec(m, st["kv"], self.k, eps=0.02, delta=1e-3)
        t3 = time.perf_counter()
        ams = selection.ams_select(m, st["seqs"], k_lo, k_hi)
        t4 = time.perf_counter()
        return Outcome(
            (pac.items, ec.items, sums.items, (float(ams.value), ams.k, ams.cuts)),
            legs={"pac_ms": (t1 - t0) * 1e3, "ec_ms": (t2 - t1) * 1e3,
                  "top_k_sums_ec_ms": (t3 - t2) * 1e3,
                  "ams_select_ms": (t4 - t3) * 1e3},
        )

    def work(self, op, outcome) -> float:
        return float(P * (3 * self.n_keys + self.n_seq))

    def verify(self, ctx, op, outcome) -> int:
        # the sampled families are checked by bit-identity with the twin
        # (harness); here: what has an exact answer
        st = ctx.state
        if "all_seq" not in st:
            return 0
        _, ec, _, (value, k, cuts) = outcome.digest
        k_lo, k_hi = op
        ok = (k_lo <= k <= k_hi and sum(cuts) == k
              and value == st["all_seq"][k - 1]
              and all(st["counts"][key] == c for key, c in ec))
        return int(not ok)


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------

class ServeMixed(Workload):
    name = "serve-mixed"
    why = ("closed-loop concurrent queries through the QueryEngine: serve "
           "admission, fusion and the pipelined engine under concurrency, "
           "which serial calls cannot see")
    work_unit = "queries"
    n = 1 << 18
    clients = 2
    outstanding = 4
    per_client = 12  # see _queries
    units = clients * per_client

    def __init__(self, seed: int):
        super().__init__(seed)
        self._sorted = None
        self._counts = None

    def open(self, backend: str) -> Ctx:
        m = Machine(P, seed=self.seed, backend=backend)
        datasets = serve.default_datasets(m, self.n)
        if backend == "sim" and self._sorted is None:
            self._sorted = np.sort(datasets["default"].concat())
            uniq, counts = np.unique(datasets["keys"].concat(), return_counts=True)
            order = np.lexsort((uniq, -counts))
            self._counts = [[int(uniq[i]), float(counts[i])] for i in order[:64]]
        engine = serve.QueryEngine(m, datasets)
        return Ctx(m, {"engine": engine})

    def ops(self, block: int):
        rng = self._rng(block, 6)
        while True:
            yield [self._queries(rng) for _ in range(self.clients)]

    def _queries(self, rng) -> list:
        """One client's round: a fixed composition (5 select, 3
        quantile, 2 topk, 2 frequent) in seeded order with seeded
        parameters, so rounds cost about the same."""
        queries = (
            [{"op": "select", "k": int(k)} for k in rng.integers(1, self.n + 1, size=5)]
            + [{"op": "quantile", "q": float(q)} for q in rng.random(3)]
            + [{"op": "topk", "k": int(k)} for k in rng.permutation([8, 16, 24, 32])[:2]]
            + [{"op": "frequent", "k": int(k), "dataset": "keys"}
               for k in rng.permutation([4, 8, 16])[:2]]
        )
        return [queries[i] for i in rng.permutation(len(queries))]

    def _client(self, engine, queries, replies, lat_ms) -> None:
        """One closed-loop client: keep ``outstanding`` queries in flight."""
        done_at: dict = {}
        pending: dict = {}

        def issue(i):
            t = time.perf_counter()
            fut = engine.submit(queries[i])
            fut.add_done_callback(
                lambda f, i=i: done_at.__setitem__(i, time.perf_counter()))
            pending[fut] = (i, t)

        nxt = 0
        while nxt < min(self.outstanding, len(queries)):
            issue(nxt)
            nxt += 1
        while pending:
            done, _ = cf.wait(pending, return_when=cf.FIRST_COMPLETED)
            for fut in done:
                i, t = pending.pop(fut)
                try:
                    replies[i] = fut.result()
                except Exception as exc:  # counted as failed by verify
                    replies[i] = exc
                lat_ms[i] = (done_at[i] - t) * 1e3
                if nxt < len(queries):
                    issue(nxt)
                    nxt += 1

    def run(self, ctx: Ctx, op) -> Outcome:
        engine = ctx.state["engine"]
        stats0 = dict(engine.stats)
        replies = [[None] * len(qs) for qs in op]
        lat = [[0.0] * len(qs) for qs in op]
        threads = [
            threading.Thread(target=self._client, args=(engine, qs, replies[c], lat[c]))
            for c, qs in enumerate(op)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        by_kind: dict = {}
        for qs, ls in zip(op, lat):
            for q, l in zip(qs, ls):
                by_kind.setdefault(q["op"], []).append(l)
        stats = {k: engine.stats[k] - stats0[k] for k in stats0}
        stats["max_batch_size"] = engine.stats["max_batch_size"]
        return Outcome(
            replies,
            samples_ms=[l for ls in lat for l in ls],
            info={"by_kind": by_kind, "stats": stats},
        )

    def model(self, ctx: Ctx, op) -> None:
        # one client's queries, one at a time: what concurrent clients'
        # batches fuse depends on their timing, a lone query's cost does not
        for query in op[0]:
            ctx.state["engine"].query(**query)

    def work(self, op, outcome) -> float:
        return float(sum(len(qs) for qs in op))

    def _want(self, q: dict):
        s = self._sorted
        if q["op"] == "select":
            return s[q["k"] - 1]
        if q["op"] == "quantile":
            return s[max(1, math.ceil(q["q"] * self.n)) - 1]
        if q["op"] == "topk":
            return list(s[-q["k"]:][::-1])
        return self._counts[: q["k"]]

    def verify(self, ctx, op, outcome) -> int:
        failed = 0
        for qs, rs in zip(op, outcome.digest):
            for q, r in zip(qs, rs):
                failed += int(isinstance(r, Exception) or r != self._want(q))
        return failed

    def close(self, ctx: Ctx) -> None:
        ctx.state["engine"].close()  # closes the machine too


# ----------------------------------------------------------------------

def _select_small(seed: int) -> Workload:
    return Select(
        seed, "select-small", 1 << 14, ("uniform",),
        why=("multi_select on 16 Ki elements/PE: ~22 driver sends and ~42 commands "
             "per op, so runtime, transport and driver-side charging do nearly "
             "all the work and kernels almost none"),
    )


def _select_large(seed: int) -> Workload:
    return Select(
        seed, "select-large", 1 << 20, ("uniform", "zipf"),
        why=("the same op on 1 Mi elements/PE, uniform and duplicate-heavy: the "
             "partition and top-k kernels dominate, the runtime is a small share"),
    )


#: name -> factory taking the seed
WORKLOADS = {
    "select-small": _select_small,
    "select-large": _select_large,
    "pqueue-cycle": PQueueCycle,
    "bulk-move": BulkMove,
    "driver-collectives": DriverCollectives,
    "serve-mixed": ServeMixed,
}
