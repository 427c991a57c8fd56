"""Integration: serve answers under concurrent closed-loop clients.

Two clients keep four queries each in flight against one
:class:`QueryEngine` on mp workers (p = 2), so admission fuses rank
queries of both clients -- select, quantile and topk -- into shared
``multi_select`` calls whose segments finish at their ends or recurse,
in whatever grouping the timing makes.  A first phase runs the
benchmark's mixed round (5 select, 3 quantile, 2 topk, 2 frequent per
client), a second only topk queries, so some batches are topk alone.
topk's ``k`` takes 1, the end reach ``T`` and ``T + 1`` besides the
benchmark's sizes.  Every answer of every seed is checked against numpy
over the same data.
"""

import concurrent.futures as cf
import math
import threading

import numpy as np
import pytest

from repro.machine import Machine
from repro.serve import QueryEngine, default_datasets

P = 2
N = 1 << 14
CLIENTS = 2
OUTSTANDING = 4
T = 32  # max(1, 64 // (2 * ceil(log2 2))): the reach at p = 2
TOPK_KS = [1, T, T + 1, 8, 16, 24]


def _oracle(seed):
    with Machine(p=P, seed=seed) as m:
        ds = default_datasets(m, N)
        values = np.sort(ds["default"].concat())
        uniq, counts = np.unique(ds["keys"].concat(), return_counts=True)
    order = np.lexsort((uniq, -counts))
    top = [[int(uniq[i]), float(counts[i])] for i in order[:16]]
    return values, top


def _mixed(rng):
    queries = (
        [{"op": "select", "k": int(k)} for k in rng.integers(1, N + 1, size=5)]
        + [{"op": "quantile", "q": float(q)} for q in rng.random(3)]
        + [{"op": "topk", "k": int(k)} for k in rng.choice(TOPK_KS, 2)]
        + [{"op": "frequent", "k": int(k), "dataset": "keys"}
           for k in rng.permutation([4, 8, 16])[:2]]
    )
    return [queries[i] for i in rng.permutation(len(queries))]


def _topk_only(rng):
    return [{"op": "topk", "k": int(k)} for k in rng.permutation(TOPK_KS)]


def _want(q, values, top):
    if q["op"] == "select":
        return values[q["k"] - 1]
    if q["op"] == "quantile":
        return values[max(1, math.ceil(q["q"] * N)) - 1]
    if q["op"] == "topk":
        return values[-q["k"]:][::-1].tolist()
    return top[: q["k"]]


def _client(engine, queries, replies):
    """Keep ``OUTSTANDING`` queries in flight until all are answered."""
    pending: dict = {}
    nxt = 0

    def issue(i):
        pending[engine.submit(queries[i])] = i

    while nxt < min(OUTSTANDING, len(queries)):
        issue(nxt)
        nxt += 1
    while pending:
        done, _ = cf.wait(pending, timeout=60, return_when=cf.FIRST_COMPLETED)
        assert done, "a query took over a minute"
        for fut in done:
            i = pending.pop(fut)
            replies[i] = fut.result()
            if nxt < len(queries):
                issue(nxt)
                nxt += 1


def _run_phase(engine, rounds):
    replies = [[None] * len(qs) for qs in rounds]
    threads = [threading.Thread(target=_client, args=(engine, qs, replies[c]))
               for c, qs in enumerate(rounds)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return replies


@pytest.mark.parametrize("seed", range(5))
def test_every_answer_matches_numpy(seed):
    values, top = _oracle(seed)
    rng = np.random.default_rng(seed)
    machine = Machine(p=P, seed=seed, backend="mp")
    engine = QueryEngine(machine, default_datasets(machine, N))
    try:
        for make in (_mixed, _topk_only):
            rounds = [make(rng) for _ in range(CLIENTS)]
            replies = _run_phase(engine, rounds)
            for qs, got in zip(rounds, replies):
                for q, answer in zip(qs, got):
                    assert answer == _want(q, values, top), q
        assert engine.stats["fused_commands"] < engine.stats["queries"]
    finally:
        engine.close()
