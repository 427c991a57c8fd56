"""Integration: the list-of-p families and the sorted-input selectors
against a table recorded at the parent commit.

sim == mp cannot see drift both share, so these families are held to
``tests/support/collective_golden.json``: values, the modeled-cost tuple
of ``report()`` and the draw addresses allocated (``Machine._rng_seq``)
of ``top_k_frequent_naive``, ``top_k_frequent_naive_tree`` (recorded
while they met on the driver in a gather and a tree reduction),
``top_k_frequent_ec_dsbf``
(recorded at 1ad72a8, while its exchange was still a driver-side dict
walk), PEC (gap found and capped), PEC-Zipf (``universe`` given and
probed), adaptive (stop and escalate), ``dsbf_top_candidates`` with
retry rounds and the streaming monitor over two refreshes (recorded at
63af6e3, while they were still several driver commands each; the PEC,
adaptive-escalate and dSBF-retry reports re-recorded by the
one-command port, which drops PEC's second selection and the size
all-reduction a later selection over the same table repeated),
``heavy_hitters`` over Zipf keys at phi = 0.01 (recorded while its
space-saving summaries still met on the driver), ``dta_topk`` and
``rdta_topk`` (values and draw addresses recorded while they were
driver loops; the reports re-recorded by their one-command port, which
drops collectives whose answer the call already had: in DTA the
repeated all-reduction of the object count and the threshold
selection's size all-reduction (the hit count is already replicated),
in both the second of two identical (strict, tied) ``allreduce_exscan``
calls, the one that granted the ties after the discarded cut's),
``ms_select``,
``ams_select_batched`` and ``BulkParallelPQ.peek_min``, and (recorded
at af981dc, while each was a list-of-p ``Machine`` method or charged
through the private meters) the rooted and personalized collectives
(``reduce``, tree and direct ``gather``, ``scatter``, direct
``alltoall``, ``barrier``, ``send``), ``redistribute``,
``BulkParallelPQ`` (``insert``, ``delete_min``,
``delete_min_flexible``), ``RandomAllocPQ`` (``insert``,
``delete_min``) and ``solve_knapsack_parallel``, at p in
{1, 2, 3, 4, 8} on sim (and at p = 3 on mp and tcp), plus the
modeled columns of every ``collectives_microbench`` row, first recorded
at 8ec87bb on sim.  The ``ms_select``, ``peek_min``, ``bulk_pq``,
``random_alloc_pq`` and ``dta_topk`` reports were re-recorded by the
change on top of 9f3f666 that stopped the sorted-input selection paying
for answers it had (the generators' own all-reduction of the size the caller knows,
every round's window ``allreduce_exscan`` after the first, now fused
into the count reduction, and the cuts' tie-grant ``allreduce_exscan``);
their values and draw addresses did not move.  The ``ams_select_batched``
reports were re-recorded once more when an over-estimating round began
to derive its window's size from its counts instead of all-reducing it
(one start-up fewer per such round; values and draws unchanged).  The
dSBF-retry, adaptive-escalate and PEC-capped reports that moved were
re-recorded when the threshold selection's Floyd-Rivest pivots came to
sit one standard deviation apart (values and draws unchanged).  Regenerate (``PYTHONPATH=src:. python
tests/integration/test_collective_golden.py`` from the repository root)
only when a result or cost change is intended, and from the parent of
that change.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.experiments import collectives_microbench
from repro.common import zipf_sample
from repro.frequent import (
    StreamingTopKMonitor,
    dsbf_top_candidates,
    heavy_hitters,
    top_k_frequent_adaptive,
    top_k_frequent_ec_dsbf,
    top_k_frequent_naive,
    top_k_frequent_naive_tree,
    top_k_frequent_pec,
    top_k_frequent_pec_zipf,
)
from repro.machine import DistArray, Machine
from repro.apps import random_knapsack, solve_knapsack_parallel
from repro.pqueue import BulkParallelPQ, RandomAllocPQ
from repro.redistribution import redistribute
from repro.selection import ams_select_batched, ms_select
from repro.topk import SumScore, build_distributed_index, dta_topk, rdta_topk

from tests.support import listp

GOLDEN_PATH = Path(__file__).parents[1] / "support" / "collective_golden.json"
GOLDEN_SEED = 1919
PS = (1, 2, 3, 4, 8)
MODEL_COLS = ("time_s", "work_s", "comm_s", "volume_words", "startups",
              "traffic_words", "imbalance")


def _keys(m):
    return DistArray.generate(m, lambda r, g: g.integers(0, 256, size=2000))


def _frequent(algo):
    def run(m):
        res = algo(m, _keys(m), 8, rho=0.3)
        return [[int(k), float(c)] for k, c in res.items] + [res.sample_size]
    return run


def _heavy(m):
    # eight keys carry 60% of the mass: a gap after rank 8
    return DistArray.generate(m, lambda r, g: np.where(
        g.random(2000) < 0.6, g.integers(0, 8, 2000), g.integers(8, 4000, 2000)))


def _zipf(m):
    return DistArray.generate(
        m, lambda r, g: zipf_sample(g, 2000, universe=1024, s=1.0))


def _result(res):
    info = {key: v.item() if hasattr(v, "item") else v for key, v in res.info.items()}
    return ([[int(k), float(c)] for k, c in res.items]
            + [res.sample_size, res.k_star, float(res.rho), info])


def _dsbf_retry(m):
    # a negative initial margin resolves too few keys: every round retries
    samples = [g.integers(0, 400, 300) for g in m.rngs]
    cands, stats = dsbf_top_candidates(m, samples, 24, kappa0=-1)
    return [[int(k), int(c)] for k, c in cands] + [
        stats.kappa, stats.rounds, stats.collisions, stats.flat_suspected]


def _monitor(m):
    mon = StreamingTopKMonitor(m, k=4, eps=0.05, delta=1e-3)
    out = []
    for _ in range(2):  # the stream doubles: the second query refreshes
        mon.ingest([zipf_sample(g, 1000, universe=256, s=1.1) for g in m.rngs])
        out.append(_result(mon.top_k()))
    return out + [mon.refreshes, mon.cache_hits]


def _indexes(m):
    rng = np.random.default_rng(53)
    ids, scores = np.arange(600), rng.random((600, 3))
    parts = np.array_split(rng.permutation(600), m.p)
    return build_distributed_index(
        m, [ids[pt] for pt in parts], [scores[pt] for pt in parts])


def _topk(algo):
    def run(m):
        res = algo(m, _indexes(m), SumScore(3), 15)
        return [[int(i), float(s)] for i, s in res.items]
    return run


def _ms_select(m):
    seqs = [np.sort(g.random(500)) for g in m.rngs]
    return [float(ms_select(m, seqs, k)) for k in (1, 171, 500 * m.p)]


def _ams_select_batched(m):
    # narrow enough for several rounds, wide enough that no fallback fires
    seqs = [np.sort(g.random(500)) for g in m.rngs]
    res = ams_select_batched(m, seqs, 150 * m.p, 155 * m.p, d=8)
    assert not res.exact_fallback
    return [float(res.value), res.k, list(res.cuts), res.rounds]


def _peek_min(m):
    pq = BulkParallelPQ(m)
    # odd ranks hold nothing: their local minimum is the TOP sentinel
    pq.insert([g.random(0 if r % 2 else 40) for r, g in enumerate(m.rngs)])
    first = pq.peek_min()
    pq.delete_min(7)
    return [float(first), float(pq.peek_min())]


def _floats(x):
    return None if x is None else np.asarray(x, dtype=np.float64).tolist()


def _collective_reduce(m):
    out = listp.reduce(m, [g.random(6) for g in m.rngs], op="sum", root=m.p - 1)
    return [_floats(v) for v in out]


def _gathered(mode):
    def run(m):
        parts = [g.integers(0, 100, size=r + 1) for r, g in enumerate(m.rngs)]
        out = listp.gather(m, parts, root=m.p - 1, mode=mode)
        return [None if v is None else [_floats(x) for x in v] for v in out]
    return run


def _collective_scatter(m):
    pieces = [g.random(r + 2) for r, g in enumerate(m.rngs)]
    return [_floats(v) for v in listp.scatter(m, pieces, root=m.p // 2)]


def _collective_alltoall_direct(m):
    # (i + j) % 3 == 0 sends nothing: rows mix messages and gaps
    matrix = [[None if (i + j) % 3 == 0 else g.random(i + j + 1)
               for j in range(m.p)] for i, g in enumerate(m.rngs)]
    out = listp.alltoall(m, matrix, mode="direct")
    return [[_floats(x) for x in row] for row in out]


def _collective_barrier(m):
    m.charge_ops(np.arange(m.p) * 100.0)  # stragglers wait at the barrier
    listp.barrier(m)
    listp.barrier(m)
    return []


def _collective_send(m):
    last = m.p - 1
    return [_floats(listp.send(m, 0, last, m.rngs[0].random(7))),
            _floats(listp.send(m, last, 0, m.rngs[last].random(3))),
            _floats(listp.send(m, last, last, np.arange(4)))]


def _redistribute(m):
    # PE r holds 40 (r + 1)^2 elements: the late PEs shed their tails
    data = DistArray.generate(m, lambda r, g: g.random(40 * (r + 1) ** 2))
    out, st = redistribute(m, data)
    return [out.sizes().tolist(), float(np.concatenate(out.chunks).sum()),
            st.moved, st.transfers, st.max_sent, st.max_received,
            st.merge_rounds]


def _element(e):
    score, uid = e
    return [float(score), list(uid)]


def _batches(batches):
    return [[_element(e) for e in b] for b in batches]


def _bulk_pq(m):
    pq = BulkParallelPQ(m)
    pq.insert([g.random(30 + 7 * r) for r, g in enumerate(m.rngs)])
    exact = pq.delete_min(7)
    flexible = pq.delete_min_flexible(5, 12)
    return [_batches(exact.batches), _element(exact.threshold),
            _batches(flexible.batches), flexible.k, _element(flexible.threshold),
            flexible.rounds, pq.local_sizes()]


def _random_alloc_pq(m):
    pq = RandomAllocPQ(m)
    pq.insert([g.random(25) for g in m.rngs])
    return _batches(pq.delete_min(9))


def _knapsack(m):
    res = solve_knapsack_parallel(
        m, random_knapsack(np.random.default_rng(6), n_items=30))
    return [res.optimum, res.nodes_expanded, res.iterations]


FAMILIES = {
    "collective_reduce": _collective_reduce,
    "collective_gather_tree": _gathered("tree"),
    "collective_gather_direct": _gathered("direct"),
    "collective_scatter": _collective_scatter,
    "collective_alltoall_direct": _collective_alltoall_direct,
    "collective_barrier": _collective_barrier,
    "collective_send": _collective_send,
    "redistribute": _redistribute,
    "bulk_pq": _bulk_pq,
    "random_alloc_pq": _random_alloc_pq,
    "solve_knapsack_parallel": _knapsack,
    "top_k_frequent_naive": _frequent(top_k_frequent_naive),
    "top_k_frequent_naive_tree": _frequent(top_k_frequent_naive_tree),
    "top_k_frequent_ec_dsbf": _frequent(top_k_frequent_ec_dsbf),
    "top_k_frequent_pec_gap": lambda m: _result(
        top_k_frequent_pec(m, _heavy(m), 8, eps0=0.2)),
    "top_k_frequent_pec_capped": lambda m: _result(
        top_k_frequent_pec(m, _keys(m), 4, eps0=0.2)),
    "top_k_frequent_pec_zipf_universe": lambda m: _result(
        top_k_frequent_pec_zipf(m, _zipf(m), 4, universe=1024)),
    "top_k_frequent_pec_zipf_probed": lambda m: _result(
        top_k_frequent_pec_zipf(m, _zipf(m), 4)),
    "top_k_frequent_adaptive_stop": lambda m: _result(
        top_k_frequent_adaptive(m, _heavy(m), 8, eps=0.2, probe_eps=0.2)),
    "top_k_frequent_adaptive_escalate": lambda m: _result(
        top_k_frequent_adaptive(m, _keys(m), 4, eps=0.2, probe_eps=0.2)),
    "dsbf_top_candidates_retry": _dsbf_retry,
    "heavy_hitters": lambda m: [
        [int(k), int(c)] for k, c in heavy_hitters(m, _zipf(m), 0.01)],
    "streaming_monitor": _monitor,
    "dta_topk": _topk(dta_topk),
    "rdta_topk": _topk(rdta_topk),
    "ms_select": _ms_select,
    "ams_select_batched": _ams_select_batched,
    "peek_min": _peek_min,
}


def _observe(family, p, backend="sim"):
    with Machine(p=p, seed=GOLDEN_SEED, backend=backend) as m:
        values = FAMILIES[family](m)
        r = m.report()
        model = [r.makespan, r.work_time, r.comm_time, r.bottleneck_words,
                 r.bottleneck_startups, r.total_traffic, r.imbalance]
        return {"values": values, "report": model, "rng_seq": m._rng_seq}


def _microbench(p, backend="sim"):
    rows = collectives_microbench(
        p_list=(p,), payload=16, repeats=2, backend=backend)
    return {r.algorithm: [r.as_dict()[c] for c in MODEL_COLS] for r in rows}


def _cases():
    return [(f, p) for f in sorted(FAMILIES) for p in PS]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("family,p", _cases())
def test_equals_the_parent_commit(golden, family, p):
    # through json, as the table went: tuples and lists compare equal
    got = json.loads(json.dumps(_observe(family, p)))
    assert got == golden[f"{family}/{p}"]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_mp_equals_the_parent_commit(golden, family):
    got = json.loads(json.dumps(_observe(family, 3, backend="mp")))
    assert got == golden[f"{family}/3"]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_tcp_equals_the_parent_commit(golden, family):
    got = json.loads(json.dumps(_observe(family, 3, backend="tcp")))
    assert got == golden[f"{family}/3"]


@pytest.mark.parametrize("p", PS)
def test_microbench_equals_the_parent_commit(golden, p):
    assert json.loads(json.dumps(_microbench(p))) == golden[f"microbench/{p}"]


def test_microbench_on_mp_equals_the_parent_commit(golden):
    got = json.loads(json.dumps(_microbench(3, backend="mp")))
    assert got == golden["microbench/3"]


if __name__ == "__main__":
    table = {f"{f}/{p}": _observe(f, p) for f, p in _cases()}
    table.update({f"microbench/{p}": _microbench(p) for p in PS})
    rows = [f" {json.dumps(k)}: {json.dumps(table[k], sort_keys=True)}"
            for k in sorted(table)]  # one line per row
    GOLDEN_PATH.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"recorded {len(table)} rows at {GOLDEN_PATH}")
