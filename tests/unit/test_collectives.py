"""Unit tests: collective operations (repro.machine.comm/collectives)."""

import numpy as np
import pytest

from repro.machine import Machine
from repro.machine.collectives import (
    binomial_edges,
    combine,
    hypercube_rounds,
    inclusive_scan,
    tree_reduce_order,
)

from tests.support import listp


class TestSchedules:
    def test_binomial_edges_cover_all_pes(self):
        for p in (1, 2, 3, 5, 8, 13, 16):
            edges = binomial_edges(p, root=0)
            reached = {0}
            for _, s, d in edges:
                assert s in reached, "parent must already hold the message"
                reached.add(d)
            assert reached == set(range(p))

    def test_binomial_edges_count(self):
        for p in (1, 2, 7, 16):
            assert len(binomial_edges(p)) == p - 1

    def test_binomial_edges_nonzero_root(self):
        edges = binomial_edges(4, root=2)
        reached = {2}
        for _, s, d in edges:
            reached.add(d)
        assert reached == {0, 1, 2, 3}

    def test_hypercube_rounds_pair_disjointness(self):
        for p in (2, 4, 8, 16):
            for rnd in hypercube_rounds(p):
                seen = set()
                for i, j in rnd:
                    assert i not in seen and j not in seen
                    seen.update((i, j))

    def test_combine_named_ops(self):
        assert combine("sum", 2, 3) == 5
        assert combine("min", 2, 3) == 2
        assert combine("max", 2, 3) == 3

    def test_combine_arrays_elementwise(self):
        a = np.array([1, 5])
        b = np.array([4, 2])
        assert list(combine("min", a, b)) == [1, 2]

    def test_combine_callable(self):
        assert combine(lambda a, b: a * b, 3, 4) == 12

    def test_combine_unknown_op(self):
        with pytest.raises(ValueError, match="unknown reduction"):
            combine("mean", 1, 2)

    def test_tree_reduce_order_matches_sum(self):
        vals = list(range(17))
        assert tree_reduce_order(vals, "sum") == sum(vals)

    def test_tree_reduce_empty_raises(self):
        with pytest.raises(ValueError):
            tree_reduce_order([], "sum")

    def test_inclusive_scan(self):
        assert inclusive_scan([1, 2, 3], "sum") == [1, 3, 6]


class TestBroadcast:
    def test_value_reaches_all(self, machine):
        out = listp.broadcast(machine, "hello", root=0)
        assert out == ["hello"] * machine.p

    def test_nonzero_root(self, machine8):
        out = listp.broadcast(machine8, 42, root=5)
        assert out[0] == 42

    def test_charges_time(self, machine8):
        listp.broadcast(machine8, np.zeros(100))
        assert machine8.clock.makespan > 0


class TestReductions:
    def test_reduce_sum_at_root(self, machine):
        out = listp.reduce(machine, list(range(machine.p)), op="sum", root=0)
        assert out[0] == sum(range(machine.p))
        if machine.p > 1:
            assert out[1] is None

    def test_allreduce_replicates(self, machine):
        out = machine.allreduce([2] * machine.p, op="sum")
        assert out == [2 * machine.p] * machine.p

    def test_allreduce_min_max(self, machine8):
        vals = [5, 3, 9, 1, 7, 2, 8, 6]
        assert machine8.allreduce(vals, op="min")[0] == 1
        assert machine8.allreduce(vals, op="max")[0] == 9

    def test_vector_allreduce(self, machine8):
        vecs = [np.array([i, -i]) for i in range(8)]
        out = machine8.allreduce(vecs, op="sum")[0]
        assert list(out) == [28, -28]

    def test_wrong_arity_rejected(self, machine8):
        with pytest.raises(ValueError, match="one contribution per PE"):
            machine8.allreduce([1, 2, 3])


class TestScans:
    def test_inclusive_scan(self, machine8):
        out = listp.scan(machine8, [1] * 8, op="sum")
        assert out == list(range(1, 9))

    def test_exscan_with_initial(self, machine8):
        out = listp.exscan(machine8, [1] * 8, op="sum", initial=0)
        assert out == list(range(8))

    def test_exscan_on_odd_machine(self, odd_machine):
        p = odd_machine.p
        out = listp.exscan(odd_machine, list(range(p)), op="sum")
        expect = [sum(range(i)) for i in range(p)]
        assert out == expect


class TestGatherScatter:
    def test_gather_orders_by_rank(self, machine8):
        out = listp.gather(machine8, [f"pe{i}" for i in range(8)], root=0)
        assert out[0] == [f"pe{i}" for i in range(8)]

    def test_gather_direct_costs_linear_startups(self):
        m_tree = Machine(p=16, seed=1)
        listp.gather(m_tree, [np.zeros(4)] * 16, root=0, mode="tree")
        m_dir = Machine(p=16, seed=1)
        listp.gather(m_dir, [np.zeros(4)] * 16, root=0, mode="direct")
        assert m_dir.metrics.msgs_recv[0] > m_tree.metrics.msgs_recv[0]

    def test_gather_unknown_mode(self, machine8):
        with pytest.raises(ValueError):
            listp.gather(machine8, [1] * 8, mode="quantum")

    def test_scatter_delivers_pieces(self, machine8):
        out = listp.scatter(machine8, [i * 10 for i in range(8)], root=0)
        assert out == [i * 10 for i in range(8)]

    def test_allgather(self, machine):
        out = machine.allgather(list(range(machine.p)))
        for row in out:
            assert row == list(range(machine.p))


class TestTimeAdvancement:
    def test_collectives_synchronize_clocks(self, machine8):
        machine8.clock.charge_local([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        machine8.allreduce([0] * 8)
        assert np.allclose(machine8.clock.t, machine8.clock.t[0])
        assert machine8.clock.makespan > 1.0

    def test_metrics_track_bottleneck(self, machine8):
        machine8.allgather([np.zeros(10)] * 8)
        # every PE must end up holding 70 foreign words
        assert machine8.metrics.words_recv.min() >= 70
