"""Property-based tests: collectives vs NumPy oracles."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hashing import key_owner
from tests.support.dht_runner import exchange
from repro.machine import Machine

from tests.support import listp

pe_values = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=16)


class TestReductions:
    @given(pe_values)
    @settings(max_examples=60, deadline=None)
    def test_allreduce_sum(self, vals):
        m = Machine(p=len(vals), seed=1)
        assert m.allreduce(vals, op="sum")[0] == sum(vals)

    @given(pe_values)
    @settings(max_examples=60, deadline=None)
    def test_allreduce_min_max(self, vals):
        m = Machine(p=len(vals), seed=1)
        assert m.allreduce(vals, op="min")[0] == min(vals)
        assert m.allreduce(vals, op="max")[0] == max(vals)

    @given(pe_values)
    @settings(max_examples=60, deadline=None)
    def test_scan_prefix_sums(self, vals):
        m = Machine(p=len(vals), seed=1)
        got = listp.scan(m, vals, op="sum")
        assert got == list(np.cumsum(vals))

    @given(pe_values)
    @settings(max_examples=60, deadline=None)
    def test_exscan(self, vals):
        m = Machine(p=len(vals), seed=1)
        got = listp.exscan(m, vals, op="sum")
        expect = [0] + list(np.cumsum(vals))[:-1]
        assert got == expect


class TestDataMovement:
    @given(st.integers(1, 12), st.data())
    @settings(max_examples=40, deadline=None)
    def test_alltoall_is_transpose(self, p, data):
        matrix = [
            [data.draw(st.integers(0, 100)) for _ in range(p)] for _ in range(p)
        ]
        m = Machine(p=p, seed=2)
        out = listp.alltoall(m, matrix)
        for i in range(p):
            for j in range(p):
                assert out[j][i] == matrix[i][j]

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=40, deadline=None)
    def test_gather_broadcast_roundtrip(self, p, data):
        vals = [data.draw(st.integers(-50, 50)) for _ in range(p)]
        m = Machine(p=p, seed=3)
        root_list = listp.gather(m, vals, root=0)[0]
        back = listp.broadcast(m, root_list, root=0)
        assert all(b == vals for b in back)

    @given(
        st.integers(1, 8),
        st.lists(st.tuples(st.integers(0, 30), st.integers(1, 9)), max_size=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_hash_table_exchange_conserves_counts(self, p, pairs):
        m = Machine(p=p, seed=4)
        dicts = [dict() for _ in range(p)]
        for idx, (key, c) in enumerate(pairs):
            d = dicts[idx % p]
            d[key] = d.get(key, 0) + c
        expected: dict = {}
        for d in dicts:
            for key, c in d.items():
                expected[key] = expected.get(key, 0) + c
        tables = [(np.array(list(d), dtype=np.int64),
                   np.array(list(d.values()), dtype=np.int64)) for d in dicts]
        routed = exchange(m, tables)
        got: dict = {}
        for pe, d in enumerate(routed):
            for key, c in d.items():
                assert key_owner(np.array([key]), p)[0] == pe
                got[key] = got.get(key, 0) + c
        assert got == expected


class TestClockMonotonicity:
    @given(st.integers(2, 12), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_time_never_decreases(self, p, rounds):
        m = Machine(p=p, seed=5)
        last = 0.0
        for r in range(rounds):
            m.allreduce([r] * p)
            now = m.clock.makespan
            assert now >= last
            last = now
