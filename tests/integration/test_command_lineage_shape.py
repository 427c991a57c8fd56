"""Integration: the lineage a scripted sequence of calls leaves behind.

Recovery replays ``RuntimeBackend._lineage``; which commands land there
depends on what each call sends: a command that makes a ref or takes a
mutable one is recorded, and a :class:`PureStep`'s outputs are immutable
(``backend._pure``), so reading them records nothing.  How a call
builds its command must not change that.  One script on mp at p = 2 --
generated data, both unsorted selections, a redistribution, both bulk
queues and a kept count table -- is held, after every step, to the
number of lineage entries and of live ``PureStep`` refs recorded for
it, and every answer to sim's.  A worker killed after a ``delete_min``
is recovered from that lineage and the next ``delete_min`` is sim's.
"""

import numpy as np

from repro.frequent import count_table_top_k
from repro.machine import DistArray, Machine
from repro.pqueue import BulkParallelPQ, RandomAllocPQ
from repro.redistribution import redistribute
from repro.selection import select_kth, select_topk_smallest

P = 2
SEED = 48

#: (step, lineage entries, live PureStep refs) after each step
SHAPE = [
    ("generate", 1, 1),
    ("select_kth", 1, 1),
    ("select_topk_smallest", 2, 1),
    ("redistribute", 3, 1),
    ("bulk_pq", 4, 1),
    ("bulk_pq.insert", 4, 1),
    ("bulk_pq.delete_min", 5, 1),
    ("bulk_pq.insert", 5, 1),
    ("bulk_pq.delete_min_flexible", 6, 1),
    ("random_alloc_pq", 7, 1),
    ("random_alloc_pq.insert", 8, 1),
    ("random_alloc_pq.delete_min", 9, 1),
    ("count_table_top_k", 10, 2),
]


def _script(m):
    """Yield ``(step, answer)`` after each call; the frame keeps every
    ref alive."""
    rng = np.random.default_rng(SEED)
    data = DistArray.generate(m, lambda r, g: g.integers(0, 40, size=300 + 400 * r))
    yield "generate", None
    yield "select_kth", select_kth(m, data, 300)
    sel, thr = select_topk_smallest(m, data, 400)
    yield "select_topk_smallest", (thr, [c.tolist() for c in sel.chunks])
    bal, stats = redistribute(m, sel)
    yield "redistribute", (stats, [c.tolist() for c in bal.chunks])
    pq = BulkParallelPQ(m)
    yield "bulk_pq", None
    pq.insert([rng.random(60) for _ in range(P)])
    yield "bulk_pq.insert", None
    yield "bulk_pq.delete_min", pq.delete_min(25)
    pq.insert([rng.random(10) for _ in range(P)])
    yield "bulk_pq.insert", None
    yield "bulk_pq.delete_min_flexible", pq.delete_min_flexible(10, 20)
    rq = RandomAllocPQ(m)
    yield "random_alloc_pq", None
    rq.insert([rng.random(40).tolist() for _ in range(P)])
    yield "random_alloc_pq.insert", None
    yield "random_alloc_pq.delete_min", rq.delete_min(15)
    result, table = count_table_top_k(m, data, 5)
    yield "count_table_top_k", result
    # after the script: the queue the kill step below deletes from
    yield "queue", pq


def test_each_step_leaves_the_recorded_lineage_and_recovers_to_sims_answer():
    with Machine(P, seed=SEED) as sim, Machine(P, seed=SEED, backend="mp") as m:
        want, got = _script(sim), _script(m)
        shape = []
        for (name, answer), (name_s, answer_s) in zip(got, want):
            assert name == name_s
            if name == "queue":
                pq, pq_s = answer, answer_s
                break
            assert answer == answer_s, name
            shape.append((name, len(m.backend._lineage), len(m.backend._pure)))
        assert shape == SHAPE
        assert m._rng_seq == sim._rng_seq
        workers = m.backend._workers
        workers[1].kill()
        workers[1].join(10)
        m.recover()
        assert m.backend.recoveries == 1
        assert pq.delete_min(20) == pq_s.delete_min(20)
        assert m._rng_seq == sim._rng_seq
