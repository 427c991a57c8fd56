"""Unit tests: result containers and report dataclasses."""

import pytest

from repro.aggregation import SumAggResult
from repro.frequent import FrequentResult
from repro.machine import Machine, MachineReport
from repro.pqueue import DeleteMinResult
from repro.selection import AmsResult, SelectionStats

from tests.support import listp


class TestFrequentResult:
    def _res(self):
        return FrequentResult(
            items=((5, 100.0), (9, 80.0)),
            exact_counts=True,
            rho=0.5,
            sample_size=200,
            k_star=4,
        )

    def test_keys_property(self):
        assert self._res().keys == (5, 9)

    def test_count_of_present(self):
        assert self._res().count_of(9) == 80.0

    def test_count_of_absent(self):
        assert self._res().count_of(42) is None

    def test_frozen(self):
        with pytest.raises(AttributeError):
            self._res().rho = 0.9

    def test_info_defaults_empty(self):
        assert self._res().info == {}


class TestSumAggResult:
    def test_keys(self):
        r = SumAggResult(
            items=((3, 10.0),), exact_sums=True, v_avg=1.0, sample_size=5, k_star=1
        )
        assert r.keys == (3,)


class TestSelectionResults:
    def test_selection_stats_fields(self):
        s = SelectionStats(value=7.0, rounds=3, sample_total=40, base_case_size=16)
        assert s.value == 7.0 and s.rounds == 3

    def test_ams_result_defaults(self):
        r = AmsResult(value=1.0, k=5, cuts=(2, 3), rounds=1)
        assert not r.exact_fallback


class TestDeleteMinResult:
    def test_fields(self):
        r = DeleteMinResult(batches=((1.0,),), k=1, threshold=1.0, rounds=2)
        assert r.k == 1 and r.rounds == 2


class TestMachineReport:
    def test_row_round_trip(self):
        m = Machine(p=4, seed=1)
        m.allreduce([1, 2, 3, 4])
        rep = m.report()
        row = rep.row()
        assert row["p"] == 4
        assert row["time_s"] == rep.makespan
        assert row["volume_words"] == rep.bottleneck_words

    def test_phases_tuple(self):
        m = Machine(p=2, seed=2)
        with m.phase("x"):
            listp.barrier(m)
        rep = m.report()
        assert isinstance(rep.phases, tuple)
        assert rep.phases[0].name == "x"
