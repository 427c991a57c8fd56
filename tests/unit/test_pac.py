"""Unit tests: Algorithm PAC (repro.frequent.pac)."""

import numpy as np
import pytest

from repro.common import zipf_sample
from repro.frequent import (
    exact_counts_oracle,
    pac_error,
    top_k_frequent_ec,
    top_k_frequent_exact,
    top_k_frequent_pac,
)
from repro.machine import DistArray, Machine


@pytest.fixture
def rng():
    return np.random.default_rng(61)


def zipf_data(machine, n_per_pe=20_000, universe=2048, s=1.0):
    return DistArray.generate(
        machine, lambda r, g: zipf_sample(g, n_per_pe, universe=universe, s=s)
    )


class TestExactReference:
    def test_exact_matches_oracle(self, machine, rng):
        data = zipf_data(machine, 5000)
        res = top_k_frequent_exact(machine, data, 8)
        true = exact_counts_oracle(data)
        oracle = sorted(true.items(), key=lambda t: (-t[1], t[0]))[:8]
        assert [(key, int(c)) for key, c in res.items] == oracle

    def test_empty_input(self, machine8):
        data = DistArray(machine8, [np.empty(0, dtype=np.int64)] * 8)
        res = top_k_frequent_exact(machine8, data, 5)
        assert res.items == ()


class TestPac:
    def test_error_bound_holds(self, machine8):
        data = zipf_data(machine8)
        true = exact_counts_oracle(data)
        n = data.global_size
        eps = 5e-3
        res = top_k_frequent_pac(machine8, data, 16, eps=eps, delta=1e-3)
        assert pac_error(res.keys, true, 16) <= eps * n

    def test_estimates_scale_with_rho(self, machine8):
        data = zipf_data(machine8)
        true = exact_counts_oracle(data)
        res = top_k_frequent_pac(machine8, data, 8, rho=0.25)
        n = data.global_size
        for key, est in res.items:
            assert abs(est - true[key]) < 0.3 * true[key] + 0.01 * n

    def test_rho_one_is_exact(self, machine8):
        data = zipf_data(machine8, 2000)
        true = exact_counts_oracle(data)
        res = top_k_frequent_pac(machine8, data, 8, rho=1.0)
        assert res.exact_counts
        for key, est in res.items:
            assert est == true[key]

    def test_items_sorted(self, machine8):
        data = zipf_data(machine8, 3000)
        res = top_k_frequent_pac(machine8, data, 10, rho=0.5)
        counts = [c for _, c in res.items]
        assert counts == sorted(counts, reverse=True)

    def test_empty_input(self, machine8):
        data = DistArray(machine8, [np.empty(0, dtype=np.int64)] * 8)
        res = top_k_frequent_pac(machine8, data, 3)
        assert res.items == ()

    def test_sublinear_communication(self):
        m = Machine(p=16, seed=7)
        data = zipf_data(m, 10_000, universe=1 << 14)
        m.reset()
        top_k_frequent_pac(m, data, 16, rho=0.02)
        assert m.metrics.bottleneck_words < 10_000 / 4

    def test_sample_size_reported(self, machine8):
        data = zipf_data(machine8, 5000)
        res = top_k_frequent_pac(machine8, data, 8, rho=0.1)
        n = data.global_size
        assert 0.05 * n < res.sample_size < 0.2 * n


class TestPacError:
    def test_exact_answer_zero_error(self):
        true = {1: 100, 2: 50, 3: 10}
        assert pac_error([1, 2], true, 2) == 0

    def test_missed_object_counted(self):
        true = {1: 100, 2: 50, 3: 40}
        # output {1, 3}: missed 2 (50), worst chosen 3 (40) -> error 10
        assert pac_error([1, 3], true, 2) == 10

    def test_unknown_key_counts_zero(self):
        true = {1: 100, 2: 50}
        assert pac_error([1, 99], true, 2) == 50

    def test_empty(self):
        assert pac_error([], {}, 3) == 0


PIPELINES = [
    lambda m, d, k: top_k_frequent_pac(m, d, k, rho=1.0),
    lambda m, d, k: top_k_frequent_ec(m, d, k, eps=0.3, delta=0.1),
    top_k_frequent_exact,
]


@pytest.mark.parametrize("fn", PIPELINES, ids=["pac", "ec", "exact"])
class TestArguments:
    def test_k_checked_up_front(self, machine8, fn):
        for n in (0, 50):
            with pytest.raises(ValueError, match="k must be >= 1"):
                fn(machine8, zipf_data(machine8, n), 0)

    def test_float_keys_rejected(self, machine8, fn):
        """0.5 and 0.9 used to collapse to key 0."""
        data = DistArray(machine8, [np.array([0.5, 0.9, 0.9])] * 8)
        with pytest.raises(ValueError, match="integer dtype"):
            fn(machine8, data, 2)

    @pytest.mark.parametrize("dtype,heavy,light", [
        (np.uint64, 2**63 + 5, 2**64 - 1),
        (np.int64, -5, -2**63),
    ], ids=["uint64-above-2**63", "negative-int64"])
    def test_dtype_extremes_keep_their_keys(self, machine, fn, dtype, heavy, light):
        chunk = np.array([heavy] * 7 + [light] * 5 + [3] * 3, dtype=dtype)
        data = DistArray(machine, [chunk] * machine.p)
        res = fn(machine, data, 2)
        assert res.items == ((heavy, 7.0 * machine.p), (light, 5.0 * machine.p))
