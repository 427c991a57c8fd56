"""Unit tests: distributed hash table counting (repro.frequent.dht),
its SPMD pieces run by ``tests/support/dht_runner.py``."""

import numpy as np
import pytest

from repro.frequent import top_k_frequent_exact
from repro.frequent.dht import local_table
from repro.machine import DistArray
from tests.support.dht_runner import count, topk


@pytest.fixture
def rng():
    return np.random.default_rng(59)


class TestLocalTable:
    def test_counts(self):
        keys, counts = local_table(np.array([1, 1, 2, 3, 3, 3]), [])
        assert dict(zip(keys.tolist(), counts.tolist())) == {1: 2, 2: 1, 3: 3}

    def test_empty(self):
        keys, counts = local_table(np.empty(0, dtype=np.int64), [])
        assert keys.size == counts.size == 0

    def test_charges_work(self):
        log: list = []
        local_table(np.arange(100), log)
        assert log == [("ops", 100 * np.log2(100))]


class TestCounting:
    def test_global_counts_conserved(self, machine, rng):
        samples = [rng.integers(0, 50, 200) for _ in range(machine.p)]
        routed = count(machine, samples)
        total: dict = {}
        for d in routed:
            for key, c in d.items():
                total[key] = total.get(key, 0) + c
        allv, allc = np.unique(np.concatenate(samples), return_counts=True)
        assert total == {int(key): int(c) for key, c in zip(allv, allc)}

    def test_each_key_on_exactly_one_pe(self, machine8, rng):
        samples = [rng.integers(0, 100, 300) for _ in range(8)]
        routed = count(machine8, samples)
        seen = set()
        for d in routed:
            for key in d:
                assert key not in seen
                seen.add(key)

    def test_salt_moves_keys(self, machine8, rng):
        samples = [rng.integers(0, 64, 100) for _ in range(8)]
        a = count(machine8, samples, salt=0)
        b = count(machine8, samples, salt=12345)
        placement_a = {key: i for i, d in enumerate(a) for key in d}
        placement_b = {key: i for i, d in enumerate(b) for key in d}
        assert placement_a != placement_b


class TestTopkEntries:
    def test_exact_k_entries(self, machine8, rng):
        samples = [rng.integers(0, 40, 500) for _ in range(8)]
        routed = count(machine8, samples)
        items = topk(machine8, routed, 10)
        assert len(items) == 10

    def test_matches_oracle_ranking(self, machine8, rng):
        samples = [rng.integers(0, 40, 500) for _ in range(8)]
        routed = count(machine8, samples)
        items = topk(machine8, routed, 10)
        allv, allc = np.unique(np.concatenate(samples), return_counts=True)
        oracle = sorted(
            zip(allv.tolist(), allc.tolist()), key=lambda t: (-t[1], t[0])
        )[:10]
        assert [(int(a), int(b)) for a, b in items] == oracle

    def test_fewer_entries_than_k(self, machine8):
        routed = count(machine8, [np.array([1, 1, 2])] + [np.empty(0, dtype=np.int64)] * 7)
        items = topk(machine8, routed, 10)
        assert len(items) == 2

    def test_tie_handling_exact_k(self, machine8):
        # 20 keys all with equal counts; k=7 must return exactly 7
        samples = [np.arange(20) for _ in range(8)]
        routed = count(machine8, samples)
        items = topk(machine8, routed, 7)
        assert len(items) == 7
        assert all(c == 8 for _, c in items)

    def test_invalid_k(self, machine8):
        data = DistArray(machine8, [np.arange(5)] * 8)
        with pytest.raises(ValueError, match="k must be"):
            top_k_frequent_exact(machine8, data, 0)

    def test_empty_input(self, machine8):
        assert topk(machine8, [{} for _ in range(8)], 5) == []

    def test_sorted_output(self, machine8, rng):
        samples = [rng.integers(0, 30, 200) for _ in range(8)]
        routed = count(machine8, samples)
        items = topk(machine8, routed, 8)
        counts = [c for _, c in items]
        assert counts == sorted(counts, reverse=True)
