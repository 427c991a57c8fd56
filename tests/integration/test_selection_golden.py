"""Integration: the selection path against a table recorded at the
parent commit.

sim == mp cannot see drift both share, so a change to the partition
kernels is held to ``tests/support/selection_golden.json``: values, the
modeled-cost tuple of ``report()`` and the draw addresses allocated
(``Machine._rng_seq``) of ``select_kth``, ``multi_select``,
``select_topk_smallest`` and ``top_k_frequent_pac`` at p in {1, 2, 3, 4,
8} over uniform, duplicate-heavy, all-equal and empty-PE inputs,
recorded at c838fc2 on sim.  The ``multi_select_topk`` (a top-8 block)
and ``multi_select_ends`` (two ranks at each end) rows hold calls whose
every rank sits at an end of the data; they were added at 92e3f43.  The ``select_kth``, ``multi_select``,
``select_topk_smallest`` and ``top_k_frequent_pac`` reports that moved
were re-recorded when the Floyd-Rivest pivots came to sit one standard
deviation apart, ``multi_select`` sampled at ``7/4 sqrt(p) / n`` and a
base-case segment began to finish by its end blocks (values and draw
addresses unchanged).  Regenerate (``python
tests/integration/test_selection_golden.py``) only when a result or cost
change is intended, and from the parent of that change.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.common import zipf_sample
from repro.frequent import top_k_frequent_pac
from repro.machine import DistArray, Machine
from repro.selection import multi_select, select_kth, select_topk_smallest

GOLDEN_PATH = Path(__file__).parents[1] / "support" / "selection_golden.json"
GOLDEN_SEED = 1717
PS = (1, 2, 3, 4, 8)
N = 3000  # per PE: two or three levels above the base case
KINDS = ("uniform", "dup", "equal", "empty_pe")


def _chunk(kind, rank, g):
    if kind == "uniform":
        return g.integers(0, 1 << 40, size=N, dtype=np.int64)
    if kind == "dup":
        return zipf_sample(g, N, universe=1 << 10, s=1.1)
    if kind == "equal":
        return np.full(N, 7, dtype=np.int64)
    # empty_pe: odd ranks hold nothing
    return g.integers(0, 1 << 20, size=0 if rank % 2 else N, dtype=np.int64)


def _topk(m, d):
    sel, thr = select_topk_smallest(m, d, d.global_size // 5 + 1)
    # the selected multiset by digest: the table stays reviewable
    picked = np.sort(sel.concat())
    return [int(picked.size), hashlib.sha256(picked.tobytes()).hexdigest(), thr]


def _pac(m, d):
    res = top_k_frequent_pac(m, d, 8, rho=0.3)
    return [[int(k), float(c)] for k, c in res.items] + [res.sample_size]


def _ranks(n):
    return [1, n // 4, n // 2, n // 2 + 1, n]


def _top_block(n):
    return list(range(n - 7, n + 1))  # serve's smallest top-k block


def _both_ends(n):
    return [1, 5, n - 4, n]


ALGOS = {
    "select_kth": lambda m, d: select_kth(m, d, d.global_size // 3 + 1),
    "multi_select": lambda m, d: multi_select(m, d, _ranks(d.global_size)),
    "multi_select_topk": lambda m, d: multi_select(m, d, _top_block(d.global_size)),
    "multi_select_ends": lambda m, d: multi_select(m, d, _both_ends(d.global_size)),
    "select_topk_smallest": _topk,
    "top_k_frequent_pac": _pac,
}


def _observe(algo, kind, p, backend="sim"):
    with Machine(p=p, seed=GOLDEN_SEED, backend=backend) as m:
        data = DistArray.generate(m, lambda r, g: _chunk(kind, r, g))
        m.reset()
        values = ALGOS[algo](m, data)
        r = m.report()
        model = [r.makespan, r.work_time, r.comm_time, r.bottleneck_words,
                 r.bottleneck_startups, r.total_traffic, r.imbalance]
        return {"values": values, "report": model, "rng_seq": m._rng_seq}


def _cases():
    return [(a, k, p) for a in sorted(ALGOS) for k in KINDS for p in PS]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("algo,kind,p", _cases())
def test_equals_the_parent_commit(golden, algo, kind, p):
    # through json, as the table went: tuples and lists compare equal
    got = json.loads(json.dumps(_observe(algo, kind, p)))
    assert got == golden[f"{algo}/{kind}/{p}"]


def _check_real_backend(golden, algo, backend):
    for kind in KINDS:
        got = json.loads(json.dumps(_observe(algo, kind, 3, backend=backend)))
        assert got == golden[f"{algo}/{kind}/3"], kind


@pytest.mark.parametrize("algo", sorted(ALGOS))
def test_mp_equals_the_parent_commit(golden, algo):
    _check_real_backend(golden, algo, "mp")


@pytest.mark.parametrize("algo", sorted(ALGOS))
def test_tcp_equals_the_parent_commit(golden, algo):
    # sockets carry small arrays in-band too
    _check_real_backend(golden, algo, "tcp")


if __name__ == "__main__":
    table = {f"{a}/{k}/{p}": _observe(a, k, p) for a, k, p in _cases()}
    rows = [f" {json.dumps(k)}: {json.dumps(table[k], sort_keys=True)}"
            for k in sorted(table)]  # one line per row
    GOLDEN_PATH.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"recorded {len(table)} rows at {GOLDEN_PATH}")
