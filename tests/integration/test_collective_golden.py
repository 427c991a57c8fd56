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
``ams_select_batched`` and ``BulkParallelPQ.peek_min`` at p in
{1, 2, 3, 4, 8} on sim (and at p = 3 on mp and tcp), plus the
modeled columns of every ``collectives_microbench`` row, first recorded
at 8ec87bb on sim.  Regenerate (``python
tests/integration/test_collective_golden.py``) only when a result or
cost change is intended, and from the parent of that change.
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
from repro.pqueue import BulkParallelPQ
from repro.selection import ams_select_batched, ms_select
from repro.topk import SumScore, build_distributed_index, dta_topk, rdta_topk

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


FAMILIES = {
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
