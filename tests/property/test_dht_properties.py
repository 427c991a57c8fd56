"""Property-based tests: DHT counting and top-k entry extraction (the
SPMD pieces, run by ``tests/support/dht_runner.py``)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hashing import key_owner, make_owner_fn
from repro.machine import Machine
from tests.support.dht_runner import count, exchange, topk
from tests.support.dict_walk import dict_walk, local_key_counts

key_chunks = st.lists(
    st.lists(st.integers(0, 40), max_size=80),
    min_size=1,
    max_size=8,
)


class TestCounting:
    @given(key_chunks)
    @settings(max_examples=50, deadline=None)
    def test_counts_match_oracle(self, chunks):
        m = Machine(p=len(chunks), seed=8)
        samples = [np.array(c, dtype=np.int64) for c in chunks]
        routed = count(m, samples)
        got: dict = {}
        for d in routed:
            for key, c in d.items():
                got[key] = got.get(key, 0) + c
        allv = np.concatenate([s for s in samples if s.size] or [np.empty(0, dtype=np.int64)])
        expect = {}
        for v in allv:
            expect[int(v)] = expect.get(int(v), 0) + 1
        assert got == expect


class TestTopkEntries:
    @given(key_chunks, st.integers(1, 20))
    @settings(max_examples=50, deadline=None)
    def test_topk_is_count_ranking_prefix(self, chunks, k):
        m = Machine(p=len(chunks), seed=9)
        samples = [np.array(c, dtype=np.int64) for c in chunks]
        routed = count(m, samples)
        items = topk(m, routed, k)
        # oracle ranking
        allv = np.concatenate([s for s in samples if s.size] or [np.empty(0, dtype=np.int64)])
        expect: dict = {}
        for v in allv:
            expect[int(v)] = expect.get(int(v), 0) + 1
        oracle = sorted(expect.items(), key=lambda t: (-t[1], t[0]))
        assert items == oracle[: len(items)]
        assert len(items) == min(k, len(oracle))


def _table(counts: dict):
    keys = np.fromiter(counts, dtype=np.int64, count=len(counts))
    return keys, np.fromiter(counts.values(), dtype=np.int64, count=len(counts))


def _all_on_one_owner(p, salt, n):
    """``n`` distinct keys that hash to PE 0."""
    keys = np.arange(-200, 4000, dtype=np.int64)
    return keys[key_owner(keys, p, salt) == 0][:n]


class TestArrayTableAgainstDictWalk:
    """The array-backed table that is merged hop by hop in the workers
    against the dict walk of ``tests/support/dict_walk.py``: the same
    tables on the same owners at the same modeled cost, on empty PEs,
    heavy duplicates, every key on one owner, any ``p`` and both entry
    widths (2.0 for (key, count) pairs, 1.5 for dSBF's fingerprints)."""

    @given(
        st.lists(
            st.lists(st.integers(-40, 40), max_size=80), min_size=1, max_size=8
        ),
        st.integers(0, 3),
        st.booleans(),
        st.sampled_from([2.0, 1.5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_tables_same_cost(self, chunks, salt, one_owner, width):
        p = len(chunks)
        samples = [np.array(c, dtype=np.int64) for c in chunks]
        if one_owner:
            pool = _all_on_one_owner(p, salt, 81)
            samples = [pool[s + 40] for s in samples]
        walked, counted = Machine(p=p, seed=8), Machine(p=p, seed=8)
        local = [local_key_counts(walked, i, s) for i, s in enumerate(samples)]
        want = dict_walk(walked, local, make_owner_fn(p, salt=salt), width)
        if width == 2.0:
            got = count(counted, samples, salt=salt)
        else:
            tables = [_table(local_key_counts(counted, i, s))
                      for i, s in enumerate(samples)]
            got = exchange(counted, tables, salt=salt, width=width)
        assert got == want
        assert [list(d) for d in got] == [sorted(d) for d in got]
        if one_owner:
            assert all(not d for d in got[1:])
        a, b = walked.report(), counted.report()
        assert (a.makespan, a.work_time, a.comm_time, a.bottleneck_words,
                a.bottleneck_startups, a.total_traffic) == (
                b.makespan, b.work_time, b.comm_time, b.bottleneck_words,
                b.bottleneck_startups, b.total_traffic)
