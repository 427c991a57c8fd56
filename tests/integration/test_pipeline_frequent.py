"""Integration: frequent-objects algorithms under the paper's error
model, across seeds and distributions."""

import numpy as np
import pytest

from repro.bench.workloads import (
    gapped_workload,
    negative_binomial_workload,
    zipf_keys_workload,
)
from repro.frequent import (
    StreamingTopKMonitor,
    exact_counts_oracle,
    pac_error,
    top_k_frequent_adaptive,
    top_k_frequent_ec,
    top_k_frequent_ec_dsbf,
    top_k_frequent_exact,
    top_k_frequent_naive,
    top_k_frequent_naive_tree,
    top_k_frequent_pac,
    top_k_frequent_pec,
)
from repro.machine import DistArray, Machine


K = 16
EPS = 8e-3
DELTA = 1e-2


def check_eps_bound(machine, data, fn, **kwargs):
    true = exact_counts_oracle(data)
    res = fn(machine, data, K, **kwargs)
    err = pac_error(res.keys, true, K)
    assert err <= EPS * data.global_size, (fn.__name__, err)
    return res


class TestErrorBoundsAcrossSeeds:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_pac_zipf(self, seed):
        m = Machine(p=8, seed=seed)
        data = zipf_keys_workload(m, 20_000, universe=1 << 12, s=1.0)
        check_eps_bound(m, data, top_k_frequent_pac, eps=EPS, delta=DELTA)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ec_zipf(self, seed):
        m = Machine(p=8, seed=seed)
        data = zipf_keys_workload(m, 20_000, universe=1 << 12, s=1.0)
        res = check_eps_bound(m, data, top_k_frequent_ec, eps=EPS, delta=DELTA)
        assert res.exact_counts

    @pytest.mark.parametrize("seed", [0, 1])
    def test_baselines_zipf(self, seed):
        m = Machine(p=8, seed=seed)
        data = zipf_keys_workload(m, 15_000, universe=1 << 12, s=1.0)
        check_eps_bound(m, data, top_k_frequent_naive, eps=EPS, delta=DELTA)
        check_eps_bound(m, data, top_k_frequent_naive_tree, eps=EPS, delta=DELTA)


class TestHardDistributions:
    def test_negative_binomial_plateau(self):
        """The paper's hard case: near-equal frequencies.  The epsilon
        error model tolerates swaps inside the plateau."""
        m = Machine(p=8, seed=7)
        data = negative_binomial_workload(m, 20_000)
        true = exact_counts_oracle(data)
        res = top_k_frequent_pac(m, data, K, eps=EPS, delta=DELTA)
        assert pac_error(res.keys, true, K) <= EPS * data.global_size

    def test_gapped_pec_exact(self):
        m = Machine(p=8, seed=8)
        data = gapped_workload(m, 20_000, universe=1 << 10, k=K, gap=8.0)
        true = exact_counts_oracle(data)
        oracle = sorted(true.items(), key=lambda t: (-t[1], t[0]))[:K]
        res = top_k_frequent_pec(m, data, K, delta=1e-3)
        assert set(res.keys) == {key for key, _ in oracle}

    def test_all_same_key(self):
        m = Machine(p=8, seed=9)
        from repro.machine import DistArray

        data = DistArray(m, [np.full(1000, 5, dtype=np.int64)] * 8)
        res = top_k_frequent_pac(m, data, 3, rho=0.5)
        assert res.items[0][0] == 5
        assert len(res.items) == 1  # only one distinct key exists


class TestAlgorithmsAgreeAtFullSampling:
    def test_all_algorithms_identical_at_rho_one(self):
        m = Machine(p=8, seed=10)
        data = zipf_keys_workload(m, 5000, universe=1 << 10, s=1.1)
        exact = top_k_frequent_exact(m, data, K)
        pac = top_k_frequent_pac(m, data, K, rho=1.0)
        naive = top_k_frequent_naive(m, data, K, rho=1.0)
        tree = top_k_frequent_naive_tree(m, data, K, rho=1.0)
        keys = exact.keys
        assert pac.keys == keys
        assert naive.keys == keys
        assert tree.keys == keys


class TestCommunicationOrdering:
    def test_volume_ranking_matches_paper(self):
        """Figure 7's structural claim at fixed sampling rate:
        coordinator volume(Naive) > tree-root volume(NaiveTree) >
        hash-partitioned volume(PAC)."""
        p = 16
        vols = {}
        for name, fn in (
            ("pac", top_k_frequent_pac),
            ("naive", top_k_frequent_naive),
            ("tree", top_k_frequent_naive_tree),
        ):
            m = Machine(p=p, seed=11)
            data = zipf_keys_workload(m, 4000, universe=1 << 12, s=1.0)
            m.reset()
            fn(m, data, K, rho=0.5)
            vols[name] = m.metrics.bottleneck_words
        assert vols["naive"] > vols["tree"] > vols["pac"]


def _monitor(m, data, k):
    mon = StreamingTopKMonitor(m, k, eps=0.05, delta=0.1)
    mon.ingest(data.chunks)
    return mon.top_k()


#: every family over int64 keys; PEC-zipf is left out (its universe is
#: the Zipf ranks)
FAMILIES = {
    "pac": lambda m, d, k: top_k_frequent_pac(m, d, k, rho=0.5),
    "ec": lambda m, d, k: top_k_frequent_ec(m, d, k, eps=0.05, delta=0.1),
    "exact": top_k_frequent_exact,
    "naive": lambda m, d, k: top_k_frequent_naive(m, d, k, rho=0.5),
    "naive_tree": lambda m, d, k: top_k_frequent_naive_tree(m, d, k, rho=0.5),
    "pec": lambda m, d, k: top_k_frequent_pec(m, d, k, delta=0.1),
    "adaptive": lambda m, d, k: top_k_frequent_adaptive(m, d, k, eps=0.05, delta=0.1),
    "dsbf": lambda m, d, k: top_k_frequent_ec_dsbf(m, d, k, eps=0.05, delta=0.1),
    "monitor": _monitor,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_uint64_keys_above_2_63_shift_the_answer(family):
    """Keys ``2**63 + j`` as uint64 give the int64 answer over ``j``
    shifted by ``2**63``: the keys keep their dtype end to end.  In the
    second layout the last PE holds no keys (an int64 chunk, so its
    table defaults to int64): joining it must not turn the other PEs'
    uint64 keys into float64, which would round them."""
    rng = np.random.default_rng(63)
    keys = rng.permutation(np.repeat(np.arange(30), np.arange(30, 0, -1) * 4))
    for filled in (4, 3):
        chunks = np.array_split(keys, filled)
        answers = []
        for shift, dtype in ((0, np.int64), (2**63, np.uint64)):
            m = Machine(p=4, seed=21)
            parts = [c.astype(dtype) + dtype(shift) for c in chunks]
            parts += [np.empty(0, dtype=np.int64)] * (4 - filled)
            answers.append(FAMILIES[family](m, DistArray(m, parts), 5).items)
        plain, shifted = answers
        assert len(plain) == 5
        assert shifted == tuple((key + 2**63, c) for key, c in plain), filled
