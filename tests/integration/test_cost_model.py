"""Integration: the cost model end to end.

The modeled times must (a) follow the analytic formulas exactly for
single collectives, (b) order machine classes sensibly (WAN >> ethernet
>> InfiniBand for latency-bound algorithms), and (c) split into
work/communication components that react to the right knobs.
"""

import numpy as np
import pytest

from repro.machine import CostParams, DistArray, Machine
from repro.machine.calibrate import preset
from repro.machine.cost import FREE_COMMUNICATION, log2_ceil
from repro.selection import ms_select, select_kth

from tests.support import listp


class TestFormulaExactness:
    def test_broadcast_time_matches_formula(self):
        c = CostParams(alpha=1.0, beta=0.1, time_per_op=0.0)
        m = Machine(p=8, cost=c, seed=0)
        listp.broadcast(m, np.zeros(50))
        expected = c.alpha * log2_ceil(8) + c.beta * 50
        assert m.clock.makespan == pytest.approx(expected)

    def test_allreduce_time_matches_formula(self):
        c = CostParams(alpha=2.0, beta=0.5, time_per_op=0.0)
        m = Machine(p=16, cost=c, seed=0)
        m.allreduce([np.zeros(10)] * 16)
        expected = c.alpha * 4 + 2 * c.beta * 10
        assert m.clock.makespan == pytest.approx(expected)

    def test_p2p_time_matches_formula(self):
        c = CostParams(alpha=3.0, beta=0.25, time_per_op=0.0)
        m = Machine(p=4, cost=c, seed=0)
        listp.send(m, 0, 1, np.zeros(100))
        assert m.clock.makespan == pytest.approx(3.0 + 25.0)

    def test_sequenced_collectives_accumulate(self):
        c = CostParams(alpha=1.0, beta=0.0, time_per_op=0.0)
        m = Machine(p=8, cost=c, seed=0)
        for _ in range(5):
            listp.barrier(m)
        assert m.clock.makespan == pytest.approx(5 * 3.0)


class TestMachineClassOrdering:
    def _run_selection(self, cost):
        m = Machine(p=16, cost=cost, seed=1)
        data = DistArray.generate(m, lambda r, g: g.random(2000))
        m.reset()
        select_kth(m, data, 16_000)
        return m.report()

    def test_wan_much_slower_than_cluster(self):
        fast = self._run_selection(preset("infiniband-cluster"))
        slow = self._run_selection(preset("wan"))
        assert slow.makespan > 100 * fast.makespan

    def test_free_communication_isolates_work(self):
        free = self._run_selection(FREE_COMMUNICATION)
        # with alpha = beta = 0 the makespan is pure (possibly skewed)
        # local work; comm_time may still contain waiting at barriers
        assert free.work_time > 0.0
        assert free.makespan <= 1.5 * free.work_time + 1e-12

    def test_latency_bound_algorithm_feels_alpha(self):
        """msSelect is startup-dominated: scaling alpha by 100x must
        scale its makespan by nearly as much."""
        def run(alpha):
            c = CostParams(alpha=alpha, beta=1.6e-9, time_per_op=2e-9)
            m = Machine(p=16, cost=c, seed=2)
            seqs = [np.sort(m.rngs[i].random(2000)) for i in range(16)]
            m.reset()
            ms_select(m, seqs, 8000)
            return m.clock.makespan

        t1 = run(1e-6)
        t2 = run(1e-4)
        assert t2 > 30 * t1


class TestWorkCommSplit:
    def test_bigger_input_grows_work_not_comm(self):
        reports = []
        for n_per_pe in (1000, 8000):
            m = Machine(p=8, seed=3)
            data = DistArray.generate(m, lambda r, g: g.random(n_per_pe))
            m.reset()
            select_kth(m, data, data.global_size // 2)
            reports.append(m.report())
        assert reports[1].work_time > 3 * reports[0].work_time
        assert reports[1].comm_time < 5 * max(reports[0].comm_time, 1e-12)

    def test_imbalance_visible_in_report(self):
        m = Machine(p=8, seed=4)
        chunks = [np.random.default_rng(0).random(8000)] + [
            np.empty(0) for _ in range(7)
        ]
        data = DistArray(m, chunks)
        m.reset()
        select_kth(m, data, 4000)
        rep = m.report()
        assert rep.imbalance > 3.0  # one PE did almost all the work
