"""Unit tests: space-saving summaries (repro.frequent.spacesaving)."""

import numpy as np
import pytest

from repro.common import zipf_sample
from repro.frequent import SpaceSaving, heavy_hitters, top_k_frequent_naive
from repro.machine import DistArray, Machine


@pytest.fixture
def rng():
    return np.random.default_rng(73)


class TestSpaceSaving:
    def test_small_stream_exact(self):
        s = SpaceSaving(10)
        for key in [1, 1, 2, 3, 1]:
            s.offer(key)
        assert s.estimate(1) == 3
        assert s.estimate(2) == 1

    def test_overestimate_bound(self, rng):
        capacity = 50
        s = SpaceSaving(capacity)
        keys = zipf_sample(rng, 20_000, universe=500, s=1.0)
        s.offer_array(keys)
        true = {int(key): int(c) for key, c in zip(*np.unique(keys, return_counts=True))}
        for key, est in s.counters.items():
            assert est >= true.get(key, 0)  # never underestimates tracked keys
            assert est - true.get(key, 0) <= s.n / capacity + 1

    def test_capacity_respected(self, rng):
        s = SpaceSaving(8)
        s.offer_array(rng.integers(0, 1000, 5000))
        assert len(s.counters) <= 8

    def test_merge_conserves_n(self, rng):
        a, b = SpaceSaving(16), SpaceSaving(16)
        a.offer_array(rng.integers(0, 50, 1000))
        b.offer_array(rng.integers(0, 50, 2000))
        merged = a.merge(b)
        assert merged.n == 3000
        assert len(merged.counters) <= 16

    def test_validation(self):
        with pytest.raises(ValueError):
            SpaceSaving(0)
        with pytest.raises(ValueError):
            SpaceSaving(4).offer(1, weight=0)

    def test_top_sorted(self, rng):
        s = SpaceSaving(32)
        s.offer_array(zipf_sample(rng, 5000, universe=100, s=1.2))
        top = s.top(5)
        counts = [c for _, c in top]
        assert counts == sorted(counts, reverse=True)

    def test_comm_words(self):
        s = SpaceSaving(4)
        s.offer(1)
        assert s.comm_words() == 4


class TestHeavyHitters:
    def test_contains_all_true_hitters(self, machine8):
        data = DistArray.generate(
            machine8, lambda r, g: zipf_sample(g, 20_000, universe=1024, s=1.1)
        )
        phi = 0.02
        n = data.global_size
        allv, allc = np.unique(data.concat(), return_counts=True)
        true_hh = {int(v) for v, c in zip(allv, allc) if c > phi * n}
        got = {key for key, _ in heavy_hitters(machine8, data, phi)}
        assert true_hh <= got

    def test_reported_counts_not_below_truth(self, machine8):
        data = DistArray.generate(
            machine8, lambda r, g: zipf_sample(g, 5000, universe=256, s=1.2)
        )
        true = {int(v): int(c) for v, c in zip(*np.unique(data.concat(), return_counts=True))}
        for key, est in heavy_hitters(machine8, data, 0.05):
            assert est >= true.get(key, 0)

    def test_invalid_phi(self, machine8):
        data = DistArray(machine8, [np.arange(10)] * 8)
        with pytest.raises(ValueError):
            heavy_hitters(machine8, data, 0.0)


@pytest.mark.parametrize("backend", ["sim", "mp"])
def test_heavy_hitters_keep_uint64_keys(backend):
    """Keys at or above 2^63 come back as themselves, as the naive
    baseline answers them, not wrapped to negative int64."""
    big = 2**63 + 5
    keys = np.array([big] * 10 + [1, 2, 3], dtype=np.uint64)
    with Machine(p=2, seed=5, backend=backend) as m:
        data = DistArray(m, np.array_split(keys, 2))
        naive = top_k_frequent_naive(m, data, 1, rho=1.0)
        assert heavy_hitters(m, data, 0.5) == [(big, 10)]
        assert naive.items[0][0] == big
