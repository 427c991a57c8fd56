"""Reference charge-log replay: one entry at a time, edge by edge.

A self-contained copy of ``Machine.replay_charges`` as it stood before
the replay charged runs of ``ops`` entries in one clock update and
recorded collectives from cached schedule arrays: every entry is
charged on its own, and every collective's edges are rebuilt from
``binomial_edges`` / ``hypercube_rounds`` and recorded one message at a
time.  ``tests/property/test_replay_differential.py`` holds the
production replay to it bit for bit.  It touches only the machine's
``metrics``, ``clock`` and ``cost``, so it never runs production meter
code.
"""

from __future__ import annotations

import numpy as np

from repro.machine.collectives import binomial_edges, hypercube_rounds
from repro.machine.cost import CollectiveCost

__all__ = ["replay_reference"]


def _record(machine, edges, kind: str) -> None:
    metrics = machine.metrics
    total = 0.0
    for src, dst, words in edges:
        if src == dst:
            continue
        metrics.words_sent[src] += words
        metrics.words_recv[dst] += words
        metrics.msgs_sent[src] += 1
        metrics.msgs_recv[dst] += 1
        total += words
    metrics.by_kind[kind] = metrics.by_kind.get(kind, 0.0) + total
    metrics.calls[kind] = metrics.calls.get(kind, 0) + 1


def _sync(machine, cost: CollectiveCost) -> None:
    machine.clock.sync_collective(cost.time)


def _ops(machine, ops) -> None:
    machine.clock.charge_local(
        np.asarray(ops, dtype=np.float64) * machine.cost.time_per_op)


def _allgather(machine, words, extra_words: float = 0.0,
               kind: str = "allgather") -> None:
    p = machine.p
    sizes = np.asarray(words, dtype=np.float64)
    acc = sizes.copy()
    edges = []
    for rnd in hypercube_rounds(p):
        nxt = acc.copy()
        for i, j in rnd:
            edges.append((i, j, acc[i] + extra_words))
            edges.append((j, i, acc[j] + extra_words))
            nxt[i] = nxt[j] = acc[i] + acc[j]
        acc = nxt
    _record(machine, edges, kind)
    if extra_words:
        _sync(machine, machine.cost.reduce_allgather(
            extra_words, float(sizes.mean()), p))
    else:
        _sync(machine, machine.cost.allgather(float(sizes.mean()), p))


def _allreduce(machine, m: float) -> None:
    edges = [(d, s, m) for _, s, d in binomial_edges(machine.p, 0)]
    edges += [(s, d, m) for _, s, d in binomial_edges(machine.p, 0)]
    _record(machine, edges, "allreduce")
    _sync(machine, machine.cost.allreduce(m, machine.p))


def _allreduce_exscan(machine, m: float) -> None:
    pairs = [(s, d, 2 * m) for rnd in hypercube_rounds(machine.p)
             for s, d in rnd]
    _record(machine, pairs, "allreduce_exscan")
    _sync(machine, machine.cost.allreduce_exscan(m, machine.p))


def _scan(machine, m: float) -> None:
    pairs = [(s, d, m) for rnd in hypercube_rounds(machine.p) for s, d in rnd]
    _record(machine, pairs, "scan")
    _sync(machine, machine.cost.scan(m, machine.p))


def _broadcast(machine, m: float, root: int) -> None:
    _record(machine, ((s, d, m) for _, s, d in binomial_edges(machine.p, root)),
            "broadcast")
    _sync(machine, machine.cost.broadcast(m, machine.p))


def _gather(machine, words, root: int) -> None:
    sizes = np.asarray(words, dtype=np.float64)
    total = float(sizes.sum() - sizes[root])
    acc = sizes.copy()
    edges = []
    for _, s, d in reversed(binomial_edges(machine.p, root)):
        edges.append((d, s, acc[d]))
        acc[s] += acc[d]
    _record(machine, edges, "gather")
    _sync(machine, machine.cost.gather(total, machine.p))


def _gather_direct(machine, words, root: int) -> None:
    sizes = np.asarray(words, dtype=np.float64)
    total = float(sizes.sum() - sizes[root])
    _record(machine, [(i, root, sizes[i]) for i in range(machine.p) if i != root],
            "gather_direct")
    _sync(machine, machine.cost.gather_direct(total, machine.p))


def _tree_hop(machine, rnd: int, words, label: str) -> None:
    cost = machine.cost
    for r, parent, child in reversed(binomial_edges(machine.p, 0)):
        if r != rnd:
            continue
        w = words[child]
        _record(machine, [(child, parent, w)], label)
        machine.clock.charge_p2p(child, parent, cost.p2p(w))
        seconds = np.zeros(machine.p)
        seconds[parent] = max(1.0, w) * cost.time_per_op
        machine.clock.charge_local(seconds)


def _alltoall(machine, rows) -> None:
    p = machine.p
    sizes = np.array(rows, dtype=np.float64, copy=True)
    np.fill_diagonal(sizes, 0.0)
    edges = [(i, j, sizes[i][j]) for i in range(p) for j in range(p)
             if i != j and sizes[i][j] > 0]
    _record(machine, edges, "alltoall")
    sent = sizes.sum(axis=1)
    recv = sizes.sum(axis=0)
    bottleneck = float(np.maximum(sent, recv).max(initial=0.0))
    msgs = max(p - 1, 0)
    cost = machine.cost
    _sync(machine, CollectiveCost(cost.alpha * msgs + cost.beta * bottleneck,
                                  msgs, bottleneck))


def _dht_round(machine, bit: int, sent, width: float) -> None:
    entries = np.asarray(sent, dtype=np.float64)
    partners = np.arange(machine.p) ^ bit
    _ops(machine, entries[partners])
    words = width * entries
    edges = [(int(i), int(partners[i]), float(words[i]))
             for i in np.flatnonzero(entries)]
    if edges:
        _record(machine, edges, "dht_exchange")
    cost = machine.cost
    machine.clock.sync_collective(
        cost.alpha + cost.beta * float(words.max(initial=0.0)))


def replay_reference(machine, logs) -> None:
    """Charge ``logs`` (one entry list per rank) to ``machine`` entry by
    entry, the way the replay did before runs and cached schedules."""
    p = machine.p
    if len(logs) != p:
        raise ValueError("one log per PE")
    length = len(logs[0])
    if any(len(entries) != length for entries in logs):
        raise ValueError("charge logs diverged across ranks")
    for t in range(length):
        kind = logs[0][t][0]
        if kind == "ops":
            _ops(machine, [float(logs[i][t][1]) for i in range(p)])
        elif kind == "allgather":
            _allgather(machine, [float(logs[i][t][1]) for i in range(p)])
        elif kind == "allreduce":
            _allreduce(machine, float(logs[0][t][1]))
        elif kind == "allreduce_exscan":
            _allreduce_exscan(machine, float(logs[0][t][1]))
        elif kind == "scan":
            _scan(machine, float(logs[0][t][1]))
        elif kind == "broadcast":
            _broadcast(machine, float(logs[0][t][1]), int(logs[0][t][2]))
        elif kind == "gather":
            _gather(machine, [float(logs[i][t][1]) for i in range(p)],
                    int(logs[0][t][2]))
        elif kind == "gather_direct":
            _gather_direct(machine, [logs[i][t][1] for i in range(p)],
                           int(logs[0][t][2]))
        elif kind == "tree_hop":
            _tree_hop(machine, int(logs[0][t][1]),
                      [logs[i][t][2] for i in range(p)], logs[0][t][3])
        elif kind == "reduce_allgather":
            _allgather(machine, [float(logs[i][t][1]) for i in range(p)],
                       extra_words=float(logs[0][t][2]),
                       kind="reduce_allgather")
        elif kind == "alltoall":
            _alltoall(machine, [logs[i][t][1] for i in range(p)])
        elif kind == "dht_round":
            _dht_round(machine, int(logs[0][t][1]),
                       [logs[i][t][2] for i in range(p)], float(logs[0][t][3]))
        else:
            raise ValueError(f"unknown charge-log entry kind {kind!r}")
