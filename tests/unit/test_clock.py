"""Unit tests: simulated per-PE clocks (repro.machine.clock)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import Machine
from repro.machine.clock import SimClock


class TestLocalCharging:
    def test_scalar_applies_to_all(self):
        c = SimClock(4)
        c.charge_local(1.5)
        assert np.allclose(c.t, 1.5)

    def test_vector_applies_per_pe(self):
        c = SimClock(3)
        c.charge_local([1.0, 2.0, 3.0])
        assert c.makespan == pytest.approx(3.0)

    def test_negative_duration_rejected(self):
        c = SimClock(2)
        with pytest.raises(ValueError):
            c.charge_local(-1.0)

    def test_single_pe_charge(self):
        c = SimClock(4)
        c.charge_local([0.0, 0.0, 5.0, 0.0])
        assert c.t[2] == pytest.approx(5.0)
        assert c.t[0] == 0.0


#: non-negative durations from 0 and the subnormals up to 1e300
_durations = st.floats(min_value=0.0, max_value=1e300, allow_subnormal=True)


class TestChargeRows:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), p=st.integers(1, 8), j=st.integers(0, 50))
    def test_rows_equal_sequential_charges_bit_for_bit(self, data, p, j):
        start = data.draw(st.lists(_durations, min_size=p, max_size=p))
        rows = data.draw(st.lists(
            st.lists(_durations, min_size=p, max_size=p), min_size=j, max_size=j
        ))
        one, batch = SimClock(p), SimClock(p)
        for c in (one, batch):
            c.charge_local(start)
        for row in rows:
            one.charge_local(row)
        batch.charge_local_rows(np.array(rows, dtype=np.float64).reshape(j, p))
        assert one.t.tobytes() == batch.t.tobytes()
        assert one.work_time.tobytes() == batch.work_time.tobytes()

    def test_negative_row_moves_no_clock(self):
        c = SimClock(3)
        c.charge_local([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="negative"):
            c.charge_local_rows([[1.0, 1.0, 1.0], [0.0, -1e-300, 0.0]])
        assert c.t.tolist() == [1.0, 2.0, 3.0]
        assert c.work_time.tolist() == [1.0, 2.0, 3.0]

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            SimClock(3).charge_local_rows([[1.0, 1.0]])

    def test_machine_rows_mix_scalars_and_vectors(self):
        rows = [3.0, [1.0, 2.0, 0.5, 7.0], np.log2(37.0) * 37, np.arange(4.0)]
        one, batch = Machine(p=4), Machine(p=4)
        for row in rows:
            one.charge_ops(row)
        # a run of "ops" entries in a charge log is one clock update
        batch.replay_charges([
            [("ops", float(np.broadcast_to(row, 4)[i])) for row in rows]
            for i in range(4)
        ])
        assert one.clock.t.tobytes() == batch.clock.t.tobytes()
        assert one.clock.work_time.tobytes() == batch.clock.work_time.tobytes()


class TestCollectiveSync:
    def test_all_pes_end_at_max_plus_cost(self):
        c = SimClock(3)
        c.charge_local([1.0, 5.0, 2.0])
        end = c.sync_collective(0.5)
        assert end == pytest.approx(5.5)
        assert np.allclose(c.t, 5.5)

    def test_waiting_counts_as_comm_time(self):
        c = SimClock(2)
        c.charge_local([0.0, 10.0])
        c.sync_collective(1.0)
        assert c.comm_time[0] == pytest.approx(11.0)
        assert c.comm_time[1] == pytest.approx(1.0)

    def test_subset_sync_leaves_others_untouched(self):
        c = SimClock(4)
        c.charge_local([1.0, 2.0, 3.0, 4.0])
        c.sync_collective(1.0, ranks=[0, 1])
        assert c.t[0] == c.t[1] == pytest.approx(3.0)
        assert c.t[3] == pytest.approx(4.0)


class TestP2P:
    def test_both_endpoints_meet(self):
        c = SimClock(3)
        c.charge_local([1.0, 4.0, 0.0])
        end = c.charge_p2p(0, 1, 2.0)
        assert end == pytest.approx(6.0)
        assert c.t[0] == c.t[1] == pytest.approx(6.0)
        assert c.t[2] == 0.0


class TestDerivedStats:
    def test_imbalance_balanced(self):
        c = SimClock(4)
        c.charge_local(2.0)
        assert c.imbalance == pytest.approx(1.0)

    def test_imbalance_skewed(self):
        c = SimClock(2)
        c.charge_local([0.0, 4.0])
        assert c.imbalance == pytest.approx(2.0)

    def test_imbalance_of_idle_machine_is_one(self):
        assert SimClock(4).imbalance == 1.0

    def test_reset(self):
        c = SimClock(2)
        c.charge_local(3.0)
        c.reset()
        assert c.makespan == 0.0
