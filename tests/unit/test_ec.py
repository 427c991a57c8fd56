"""Unit tests: Algorithm EC (repro.frequent.ec)."""

import numpy as np
import pytest

from repro.common import zipf_sample
from repro.frequent import (
    exact_counts_oracle,
    optimal_k_star,
    pac_error,
    top_k_frequent_ec,
)
from repro.machine import DistArray, Machine
from tests.support.dht_runner import exact_counts


@pytest.fixture
def rng():
    return np.random.default_rng(67)


def zipf_data(machine, n_per_pe=20_000, universe=2048, s=1.0):
    return DistArray.generate(
        machine, lambda r, g: zipf_sample(g, n_per_pe, universe=universe, s=s)
    )


class TestExactCounts:
    """``exact_counts_gen``, run by ``tests/support/dht_runner.py``."""

    def test_counts_match_oracle(self, machine8):
        data = zipf_data(machine8, 3000)
        true = exact_counts_oracle(data)
        keys = np.array(sorted(true)[:50], dtype=np.int64)
        counts = exact_counts(machine8, data, keys)
        for key, c in zip(keys, counts):
            assert c == true[int(key)]

    def test_absent_keys_zero(self, machine8):
        data = zipf_data(machine8, 1000, universe=100)
        counts = exact_counts(machine8, data, np.array([10**9, 10**9 + 1]))
        assert list(counts) == [0, 0]

    def test_unsorted_candidate_keys(self, machine8):
        data = zipf_data(machine8, 2000, universe=64)
        true = exact_counts_oracle(data)
        keys = np.array([5, 1, 3], dtype=np.int64)
        counts = exact_counts(machine8, data, keys)
        assert counts[0] == true.get(5, 0)
        assert counts[1] == true.get(1, 0)


    def test_no_keys(self, machine):
        """An empty key set counts nothing and reduces nothing (it once
        raised IndexError on every p)."""
        data = zipf_data(machine, 500, universe=64)
        machine.reset()
        for keys in ([], np.empty(0, dtype=np.int64)):
            assert exact_counts(machine, data, keys) is None
        assert machine.metrics.total_traffic == 0


class TestOptimalKStar:
    def test_at_least_k(self):
        assert optimal_k_star(10**6, 32, 64, 1e-3, 1e-4) >= 32

    def test_grows_as_eps_shrinks(self):
        a = optimal_k_star(10**8, 32, 64, 1e-2, 1e-4)
        b = optimal_k_star(10**8, 32, 64, 1e-4, 1e-4)
        assert b > a

    def test_shrinks_with_more_pes(self):
        a = optimal_k_star(10**8, 32, 16, 1e-4, 1e-4)
        b = optimal_k_star(10**8, 32, 1024, 1e-4, 1e-4)
        assert b < a


class TestEc:
    def test_counts_are_exact(self, machine8):
        data = zipf_data(machine8)
        true = exact_counts_oracle(data)
        res = top_k_frequent_ec(machine8, data, 16, eps=5e-3, delta=1e-3)
        assert res.exact_counts
        for key, c in res.items:
            assert c == true[key]

    def test_error_bound(self, machine8):
        data = zipf_data(machine8)
        true = exact_counts_oracle(data)
        n = data.global_size
        eps = 5e-3
        res = top_k_frequent_ec(machine8, data, 16, eps=eps, delta=1e-3)
        assert pac_error(res.keys, true, 16) <= eps * n

    def test_smaller_sample_than_pac(self, machine8):
        """Lemma 10: EC's sampling rate is ~k* times below PAC's."""
        from repro.common.sampling import ec_sample_rate, pac_sample_rate

        n = 10**9
        k, k_star = 32, 10_000
        assert ec_sample_rate(n, k_star, 1e-4, 1e-6) < pac_sample_rate(
            n, k, 1e-4, 1e-6
        ) / 100

    def test_explicit_k_star(self, machine8):
        data = zipf_data(machine8, 5000)
        res = top_k_frequent_ec(machine8, data, 8, eps=1e-2, delta=1e-3, k_star=64)
        assert res.k_star == 64
        assert len(res.items) == 8

    def test_k_star_smaller_than_distinct(self, machine8):
        data = zipf_data(machine8, 5000, universe=4096)
        res = top_k_frequent_ec(machine8, data, 4, eps=1e-2, delta=1e-3, k_star=8)
        assert len(res.items) == 4

    def test_empty_input(self, machine8):
        data = DistArray(machine8, [np.empty(0, dtype=np.int64)] * 8)
        res = top_k_frequent_ec(machine8, data, 4)
        assert res.items == ()

    def test_broadcast_volume_scales_with_k_star(self):
        m1 = Machine(p=8, seed=8)
        d1 = zipf_data(m1, 5000)
        m1.reset()
        top_k_frequent_ec(m1, d1, 8, eps=1e-2, delta=1e-3, k_star=16)
        # the candidate exchange is fused (reduce+allgather); count both
        v_small = m1.metrics.by_kind.get("allgather", 0) + m1.metrics.by_kind.get(
            "reduce_allgather", 0
        )
        m2 = Machine(p=8, seed=8)
        d2 = zipf_data(m2, 5000)
        m2.reset()
        top_k_frequent_ec(m2, d2, 8, eps=1e-2, delta=1e-3, k_star=512)
        v_large = m2.metrics.by_kind.get("allgather", 0) + m2.metrics.by_kind.get(
            "reduce_allgather", 0
        )
        assert v_large > v_small
