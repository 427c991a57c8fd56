"""Property-based tests: the exact sorted-input selection's cuts against
the tie grant of a separate prefix sum.

Each PE's cut -- its share of the k smallest, threshold ties granted in
PE order -- used to cost one more ``allreduce_exscan`` of every PE's
``[#< v, #== v]`` over its whole sequence once the value ``v`` was
known.  The selection now grants the ties from what it already has: at
a pivot hit from that round's fused count-and-prefix exscan, at the
base case from the replicated windows.  These tests hold
:func:`ms_select_with_cuts`, :meth:`BulkParallelPQ.delete_min` and
:meth:`RandomAllocPQ.delete_min` to that former grant, computed here
over the full inputs (:func:`exscan_cuts`), on duplicate-heavy inputs
with ties straddling ``k``, a PE holding more than ``k`` copies of the
threshold (more than its ``min(len, k)`` window), empty PEs and both
endings -- and hold the collective schedule to one opening exscan and
two collectives per pivot round.
"""

from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.machine import Machine
from repro.pqueue import BulkParallelPQ, RandomAllocPQ
from repro.selection import ms_select, ms_select_with_cuts

PS = (1, 2, 3, 5, 8)


def exscan_cuts(parts, k):
    """The k-th smallest ``v`` of the sorted ``parts`` and every PE's
    cut as a separate exclusive prefix sum of the tie counts grants it:
    ``#< v`` plus ``clip(k - N_lt - prefix_eq, 0, #== v)``."""
    v = sorted(x for part in parts for x in part)[k - 1]
    lt = np.array([bisect_left(part, v) for part in parts], dtype=np.int64)
    eq = np.array([bisect_right(part, v) for part in parts], dtype=np.int64) - lt
    prefix = np.cumsum(eq) - eq
    return v, (lt + np.clip(k - lt.sum() - prefix, 0, eq)).tolist()


def search(parts, k, shared, base_case, max_rounds):
    """``(value, rounds)`` of the search replayed on the concatenated
    windows: each round's pivot is the g-th remaining element in PE
    order, ``g`` drawn from the call's shared stream ``shared``."""
    windows = [list(part[:k]) for part in parts]
    rounds = 0
    while True:
        rest = [x for w in windows for x in w]
        if len(rest) <= max(base_case, 1) or rounds >= max_rounds:
            return sorted(rest)[k - 1], rounds
        v = rest[int(shared.integers(len(rest)))]
        rounds += 1
        n_lt = sum(x < v for x in rest)
        n_le = sum(x <= v for x in rest)
        if n_lt >= k:
            windows = [[x for x in w if x < v] for w in windows]
        elif n_le >= k:
            return v, rounds
        else:
            windows = [[x for x in w if x > v] for w in windows]
            k -= n_le


def spy_logs(m):
    """Record rank 0's charge log of every replay on ``m``."""
    logs = []
    replay = m.replay_charges

    def spy(per_pe):
        logs.append(list(per_pe[0]))
        return replay(per_pe)

    m.replay_charges = spy
    return logs


def schedule(log):
    """``(rounds, base_case_ran)`` of one exact selection's charge log,
    asserting its collectives: the size all-reduction, one opening
    ``allreduce_exscan``, per pivot round exactly two (the pivot's
    reduction and the fused count-and-prefix exscan), then the base
    case's allgather if the search ended there -- and nothing after."""
    kinds = [(e[0], e[1]) for e in log if e[0] != "ops"]
    assert kinds[:2] == [("allreduce", 1), ("allreduce_exscan", 1)]
    body = kinds[2:]
    base = bool(body) and body[-1][0] == "allgather"
    if base:
        body = body[:-1]
    rounds = len(body) // 2
    assert [kind for kind, _ in body] == ["allreduce", "allreduce_exscan"] * rounds
    assert all(words == 2 for kind, words in body[1::2])
    return rounds, base


@st.composite
def tied_parts(draw):
    """Sorted int64 parts over a few distinct values (ties straddle
    every k), some PEs empty; with ``heavy`` one PE holds ``k + extra``
    copies of the threshold, which only smaller values precede."""
    p = draw(st.sampled_from(PS))
    spread = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(0, 40), min_size=p, max_size=p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = [rng.integers(1, 1 + spread, s) for s in sizes]
    n = sum(sizes)
    heavy = draw(st.booleans()) or n == 0
    if heavy:
        k = draw(st.integers(1, 30))
        zeros = draw(st.integers(0, k - 1))  # fewer than k below it
        owner = draw(st.integers(0, p - 1))
        parts[owner] = np.concatenate(
            [parts[owner], np.ones(k + draw(st.integers(1, 10)), dtype=np.int64)])
        low = draw(st.integers(0, p - 1))
        parts[low] = np.concatenate([parts[low], np.zeros(zeros, dtype=np.int64)])
        n = sum(len(x) for x in parts)
        k = min(k, n)
    else:
        k = draw(st.integers(1, n))
    return [np.sort(x) for x in parts], k


@settings(max_examples=120, deadline=None)
@given(case=tied_parts(), base_case=st.sampled_from([1, 2, 8, 64]),
       max_rounds=st.sampled_from([0, 1, 2, 200]), seed=st.integers(0, 999))
@example(case=([np.zeros(50, dtype=np.int64)] * 3, 70), base_case=1,
         max_rounds=200, seed=0)  # pivot hit in the first round
@example(case=([np.arange(9), np.arange(40), np.empty(0, np.int64)], 30),
         base_case=64, max_rounds=200, seed=0)  # straight to the base case
def test_ms_select_with_cuts_grants_as_the_exscan(case, base_case, max_rounds, seed):
    parts, k = case
    p = len(parts)
    want_v, want_cuts = exscan_cuts(parts, k)

    m = Machine(p=p, seed=seed)
    logs = spy_logs(m)
    v, cuts = ms_select_with_cuts(m, parts, k, base_case=base_case,
                                  max_rounds=max_rounds)
    assert v == want_v and cuts == want_cuts and sum(cuts) == k
    rounds, base = schedule(logs[-1])
    if max_rounds == 0:
        assert (rounds, base) == (0, True)
    # the call's pivots are the replayed search's: a fresh machine's
    # first draw address is the call's
    shared = Machine(p=p, seed=seed).draw_addr().shared()
    assert search(parts, k, shared, base_case, max_rounds) == (want_v, rounds)

    # the same draws without cuts: the same rounds, each two collectives
    stats = ms_select(Machine(p=p, seed=seed), parts, k, base_case=base_case,
                      max_rounds=max_rounds, return_stats=True)
    assert stats.value == want_v and stats.rounds == rounds
    assert stats.comm_rounds == 2 + 2 * rounds + base


def test_both_endings_are_reached():
    """The examples above end one at a pivot hit, one at the base case."""
    m = Machine(p=3, seed=0)
    logs = spy_logs(m)
    ms_select_with_cuts(m, [np.zeros(50, dtype=np.int64)] * 3, 70, base_case=1)
    assert schedule(logs[-1]) == (1, False)
    ms_select_with_cuts(m, [np.arange(9), np.arange(40), np.empty(0)], 30)
    assert schedule(logs[-1]) == (0, True)


def _keys(batches):
    return [[(float(s), tuple(uid)) for s, uid in b] for b in batches]


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PS), sizes=st.data(), spread=st.integers(1, 3),
       seed=st.integers(0, 999))
def test_bulk_pq_delete_min_grants_as_the_exscan(p, sizes, spread, seed):
    counts = sizes.draw(st.lists(st.integers(0, 30), min_size=p, max_size=p))
    n = sum(counts)
    if n == 0:
        return
    k = sizes.draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    scores = [rng.integers(0, spread, c).astype(np.float64) for c in counts]
    # PE i's j-th insertion is (score, (i, j)): every key is distinct
    parts = [sorted((float(s), (i, j)) for j, s in enumerate(sc))
             for i, sc in enumerate(scores)]
    want_v, want_cuts = exscan_cuts(parts, k)

    m = Machine(p=p, seed=seed)
    pq = BulkParallelPQ(m)
    pq.insert(scores)
    logs = spy_logs(m)
    res = pq.delete_min(k)
    got = _keys(res.batches)
    assert [len(b) for b in got] == want_cuts and sum(want_cuts) == k
    assert got == [part[:cut] for part, cut in zip(parts, want_cuts)]
    assert (float(res.threshold[0]), tuple(res.threshold[1])) == want_v
    schedule(logs[-1])


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PS), per_pe=st.integers(0, 25), k_frac=st.floats(0, 1),
       spread=st.integers(1, 3), seed=st.integers(0, 999))
def test_random_alloc_pq_delete_min_grants_as_the_exscan(p, per_pe, k_frac,
                                                         spread, seed):
    if per_pe == 0:
        return
    m = Machine(p=p, seed=seed)
    pq = RandomAllocPQ(m)
    rng = np.random.default_rng(seed)
    pq.insert([rng.integers(0, spread, per_pe).astype(np.float64)
               for _ in range(p)])
    parts = [sorted((float(s), tuple(uid)) for s, uid in heap.items())
             for heap in pq.heaps]
    k = max(1, int(k_frac * p * per_pe))
    want_v, want_cuts = exscan_cuts(parts, k)

    logs = spy_logs(m)
    got = _keys(pq.delete_min(k))
    assert [len(b) for b in got] == want_cuts and sum(want_cuts) == k
    assert got == [part[:cut] for part, cut in zip(parts, want_cuts)]
    schedule(logs[-1])


@pytest.mark.parametrize("backend", ["mp", "tcp"])
def test_worker_backends_grant_as_sim(backend):
    """The fused schedule inside real workers: values, cuts, ``report()``
    and ``_rng_seq`` equal sim's on tied input, at both endings."""
    parts = [np.sort(np.random.default_rng(i).integers(0, 3, 40 + 30 * i))
             for i in range(3)]
    parts[1] = np.sort(np.concatenate([parts[1], np.ones(60, dtype=np.int64)]))

    def run(m):
        out = [ms_select_with_cuts(m, parts, k, base_case=b, max_rounds=r)
               for k, b, r in ((50, 1, 200), (50, 64, 200), (7, 8, 0))]
        r = m.report()
        return out, (r.makespan, r.bottleneck_words, r.bottleneck_startups,
                     r.total_traffic), m._rng_seq

    with Machine(p=3, seed=5) as sim, Machine(p=3, seed=5, backend=backend) as real:
        want, got = run(sim), run(real)
    assert got == want
    for (v, cuts), k in zip(want[0], (50, 50, 7)):
        assert (v, cuts) == exscan_cuts(parts, k)
