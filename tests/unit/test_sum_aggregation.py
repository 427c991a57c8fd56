"""Unit tests: top-k sum aggregation (repro.aggregation.sum_topk)."""

import numpy as np
import pytest

from repro.aggregation import (
    DistKeyValue,
    exact_sums_oracle,
    sum_sample_size,
    top_k_sums_ec,
    top_k_sums_pac,
)
from repro.aggregation.sum_topk import _aggregate_logged, _SumAggState
from repro.common import zipf_sample
from repro.machine import Machine


@pytest.fixture
def rng():
    return np.random.default_rng(79)


def kv_data(machine, n_per_pe=15_000, universe=1024, s=1.1):
    def make(rank, rng):
        keys = zipf_sample(rng, n_per_pe, universe=universe, s=s)
        values = rng.exponential(5.0, size=keys.size)
        return keys, values

    return DistKeyValue.generate(machine, make)


class TestDistKeyValue:
    def test_shapes_checked(self, machine8):
        with pytest.raises(ValueError, match="differ in length"):
            DistKeyValue(machine8, [np.arange(3)] * 8, [np.zeros(2)] * 8)

    def test_negative_values_rejected(self, machine8):
        with pytest.raises(ValueError, match="non-negative"):
            DistKeyValue(machine8, [np.arange(2)] * 8, [np.array([-1.0, 1.0])] * 8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, machine8, bad):
        """NaN passes a ``< 0`` check; the pipelines then answered ``()``
        under RuntimeWarnings."""
        with pytest.raises(ValueError, match="finite"):
            DistKeyValue(machine8, [np.arange(2)] * 8, [np.array([1.0, bad])] * 8)

    def test_float_keys_rejected(self, machine8):
        """0.5 and 0.9 used to collapse to key 0."""
        with pytest.raises(ValueError, match="integer dtype"):
            DistKeyValue(machine8, [np.array([0.5, 0.9])] * 8, [np.ones(2)] * 8)

    def test_local_aggregation_table(self):
        state = _SumAggState(np.array([1, 1, 2]), np.array([2.0, 3.0, 4.0]))
        log: list = []
        uniq, sums = _aggregate_logged(state, log)
        assert list(uniq) == [1, 2]
        assert list(sums) == [5.0, 4.0]
        assert log == [("ops", 3 * np.log2(3))]
        _aggregate_logged(state, log)  # cached: built and charged once
        assert log[1] == ("ops", 0.0)

    def test_global_size(self, machine8):
        kv = DistKeyValue(machine8, [np.arange(5)] * 8, [np.ones(5)] * 8)
        assert kv.global_size == 40


class TestOracle:
    def test_exact_sums(self, machine8):
        kv = DistKeyValue(
            machine8, [np.array([7, 7])] * 8, [np.array([1.0, 2.0])] * 8
        )
        assert exact_sums_oracle(kv) == {7: 24.0}


class TestSampleSize:
    def test_grows_with_p(self):
        assert sum_sample_size(10**6, 64, 1e-3, 1e-4) > sum_sample_size(
            10**6, 4, 1e-3, 1e-4
        )

    def test_inverse_in_eps(self):
        a = sum_sample_size(10**6, 16, 1e-2, 1e-4)
        b = sum_sample_size(10**6, 16, 1e-3, 1e-4)
        assert b / a == pytest.approx(10.0, rel=1e-6)


class TestPacSum:
    def test_estimates_within_bound(self, machine8):
        kv = kv_data(machine8)
        oracle = exact_sums_oracle(kv)
        mass = sum(oracle.values())
        eps = 1e-2
        res = top_k_sums_pac(machine8, kv, 12, eps=eps, delta=1e-3)
        for key, est in res.items:
            assert abs(est - oracle.get(key, 0.0)) <= 2 * eps * mass

    def test_top_set_quality(self, machine8):
        kv = kv_data(machine8)
        oracle = exact_sums_oracle(kv)
        rank = sorted(oracle.items(), key=lambda t: (-t[1], t[0]))
        res = top_k_sums_pac(machine8, kv, 12, eps=5e-3, delta=1e-3)
        # every reported key must have a true sum no worse than the
        # k-th best minus the error budget
        kth = rank[11][1]
        mass = sum(oracle.values())
        for key in res.keys:
            assert oracle.get(key, 0.0) >= kth - 2 * 5e-3 * mass

    def test_empty(self, machine8):
        kv = DistKeyValue(machine8, [np.empty(0, dtype=np.int64)] * 8, [np.empty(0)] * 8)
        assert top_k_sums_pac(machine8, kv, 4).items == ()

    def test_zero_mass(self, machine8):
        kv = DistKeyValue(machine8, [np.arange(5)] * 8, [np.zeros(5)] * 8)
        res = top_k_sums_pac(machine8, kv, 4)
        assert res.items == ()

    def test_subnormal_mass_does_not_underflow(self):
        """Regression: a subnormal total mass made v_avg = m/s round to
        0.0, which weighted_sample_counts rejects."""
        m = Machine(p=1, seed=13)
        kv = DistKeyValue(m, [np.array([0], dtype=np.int64)], [np.array([5e-324])])
        assert top_k_sums_pac(m, kv, 1).v_avg > 0
        m2 = Machine(p=1, seed=13)
        kv2 = DistKeyValue(m2, [np.array([0], dtype=np.int64)], [np.array([5e-324])])
        res = top_k_sums_ec(m2, kv2, 1, k_star=8)
        for key, s in res.items:
            assert s == 5e-324


class TestEcSum:
    def test_sums_exact(self, machine8):
        kv = kv_data(machine8)
        oracle = exact_sums_oracle(kv)
        res = top_k_sums_ec(machine8, kv, 12, eps=1e-2, delta=1e-3)
        assert res.exact_sums
        for key, s in res.items:
            assert s == pytest.approx(oracle[key], rel=1e-9)

    def test_recovers_true_topk(self, machine8):
        kv = kv_data(machine8, s=1.3)  # steep: clear ranking
        oracle = exact_sums_oracle(kv)
        rank = sorted(oracle.items(), key=lambda t: (-t[1], t[0]))[:8]
        res = top_k_sums_ec(machine8, kv, 8, eps=5e-3, delta=1e-3)
        assert set(res.keys) == {key for key, _ in rank}

    def test_k_star_override(self, machine8):
        kv = kv_data(machine8, 2000)
        res = top_k_sums_ec(machine8, kv, 4, k_star=32)
        assert res.k_star == 32

    def test_negative_keys(self, machine):
        keys = np.array([-5] * 7 + [-2**63] * 5 + [3] * 3, dtype=np.int64)
        kv = DistKeyValue(machine, [keys] * machine.p, [np.ones(keys.size)] * machine.p)
        res = top_k_sums_ec(machine, kv, 2, eps=0.3, delta=0.1)
        assert res.items == ((-5, 7.0 * machine.p), (-2**63, 5.0 * machine.p))
        assert top_k_sums_pac(machine, kv, 2, eps=0.3, delta=0.1).keys == (-5, -2**63)

    def test_no_second_input_scan_needed(self, machine8):
        """EC-sum answers exact sums from the aggregation tables; the
        communication for it is just the k*-vector reduction."""
        kv = kv_data(machine8, 4000, universe=256)
        machine8.reset()
        top_k_sums_ec(machine8, kv, 8, k_star=32)
        # candidate identities + exact count vectors: O(k*) words/PE
        assert machine8.metrics.bottleneck_words < 4000


class TestArguments:
    @pytest.mark.parametrize("fn", [top_k_sums_pac, top_k_sums_ec])
    def test_k_checked_up_front(self, machine8, fn):
        """``top_k_sums_ec(k=0)`` used to answer ``()``; empty input
        must not hide a bad ``k`` either."""
        for n in (0, 200):
            with pytest.raises(ValueError, match="k must be >= 1"):
                fn(machine8, kv_data(machine8, n), 0)

    def test_both_variants_return_python_floats(self, machine8):
        kv = kv_data(machine8, 2000)
        for fn in (top_k_sums_pac, top_k_sums_ec):
            assert {type(v) for _, v in fn(machine8, kv, 4, eps=0.05).items} == {float}
