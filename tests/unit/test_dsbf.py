"""Unit tests: dSBF fingerprint counting (repro.frequent.dsbf)."""

from math import ceil

import numpy as np
import pytest

from repro.common import zipf_sample
from repro.common.hashing import key_owner
from repro.frequent import (
    dsbf_top_candidates,
    exact_counts_oracle,
    pac_error,
    top_k_frequent_ec,
    top_k_frequent_ec_dsbf,
)
from repro.frequent.dsbf import MAX_ROUNDS
from repro.kernels import fingerprint32
from repro.machine import DistArray, Machine


@pytest.fixture
def rng():
    return np.random.default_rng(103)


def zipf_data(machine, n_per_pe=20_000, universe=2048):
    return DistArray.generate(
        machine, lambda r, g: zipf_sample(g, n_per_pe, universe=universe, s=1.0)
    )


class TestCandidates:
    def test_matches_direct_counting(self, machine8, rng):
        samples = [rng.integers(0, 200, 2000) for _ in range(8)]
        cands, stats = dsbf_top_candidates(machine8, samples, 16)
        # oracle: most frequent sampled keys
        allv, allc = np.unique(np.concatenate(samples), return_counts=True)
        oracle = sorted(zip(allv.tolist(), allc.tolist()), key=lambda t: (-t[1], t[0]))
        assert [key for key, _ in cands] == [key for key, _ in oracle[:16]]
        # sample counts must be exact despite the fingerprint indirection
        cmap = dict(oracle)
        for key, c in cands:
            assert c == cmap[key]

    def test_k_star_larger_than_distinct(self, machine8, rng):
        samples = [rng.integers(0, 30, 500) for _ in range(8)]
        cands, stats = dsbf_top_candidates(machine8, samples, 1000)
        assert len(cands) <= 30
        assert not stats.flat_suspected

    def test_invalid_k_star(self, machine8):
        with pytest.raises(ValueError):
            dsbf_top_candidates(machine8, [np.arange(5)] * 8, 0)

    def test_collision_margin_grows(self, machine8, rng):
        """With a tiny initial margin the retry loop must still converge
        to a correct candidate set (count-equivalent to the oracle: at
        the boundary count, any tie member is a valid candidate)."""
        samples = [rng.integers(0, 400, 3000) for _ in range(8)]
        cands, stats = dsbf_top_candidates(machine8, samples, 32, kappa0=1)
        allv, allc = np.unique(np.concatenate(samples), return_counts=True)
        oracle = sorted(zip(allv.tolist(), allc.tolist()), key=lambda t: (-t[1], t[0]))
        cmap = dict(zip(allv.tolist(), allc.tolist()))
        # counts sequence identical to the oracle's
        assert [c for _, c in cands] == [c for _, c in oracle[:32]]
        # every reported count is the key's true sample count
        assert all(cmap[key] == c for key, c in cands)
        # keys strictly above the boundary count must all be present
        boundary = oracle[31][1]
        must_have = {key for key, c in oracle if c > boundary}
        assert must_have <= {key for key, _ in cands}

    @pytest.mark.parametrize("kappa0", [0, 1])
    def test_a_non_negative_margin_resolves_in_one_round(self, machine8, rng, kappa0):
        """Every selected fingerprint reveals at least its own key, so
        ``k_star + kappa0 >= k_star`` keys come back in the first round:
        the retry never runs and the margin never doubles."""
        samples = [rng.integers(0, 400, 3000) for _ in range(8)]
        cands, stats = dsbf_top_candidates(machine8, samples, 32, kappa0=kappa0)
        assert (stats.rounds, stats.kappa, stats.flat_suspected) == (1, kappa0, False)
        assert len(cands) == 32

    def test_a_negative_margin_retries_and_flags_flat(self, machine8, rng):
        """Only a negative margin reveals fewer than ``k_star`` keys;
        doubling it makes it more negative, so every round retries and
        the loop ends at its bound with ``flat_suspected``."""
        samples = [rng.integers(0, 400, 3000) for _ in range(8)]
        cands, stats = dsbf_top_candidates(machine8, samples, 32, kappa0=-1)
        assert (stats.rounds, stats.kappa, stats.flat_suspected) == (
            MAX_ROUNDS, -(2 ** (MAX_ROUNDS - 1)), True)
        assert len(cands) == 32 - 2 ** (MAX_ROUNDS - 1)


class TestEcDsbf:
    def test_same_guarantees_as_ec(self, machine8):
        data = zipf_data(machine8)
        true = exact_counts_oracle(data)
        eps = 5e-3
        res = top_k_frequent_ec_dsbf(machine8, data, 16, eps=eps, delta=1e-3)
        assert res.exact_counts
        for key, c in res.items:
            assert c == true[key]
        assert pac_error(res.keys, true, 16) <= eps * data.global_size

    def test_reduced_insertion_volume(self):
        """The point of dSBF: the DHT insertion phase ships fewer words
        than the key-based exchange at equal sampling rate."""
        kwargs = dict(eps=5e-3, delta=1e-3, k_star=64, rho=0.05)
        m1 = Machine(p=16, seed=11)
        d1 = zipf_data(m1, 10_000, universe=1 << 14)
        m1.reset()
        top_k_frequent_ec(m1, d1, 16, **kwargs)
        vol_keys = m1.metrics.by_kind.get("dht_exchange", 0)
        m2 = Machine(p=16, seed=11)
        d2 = zipf_data(m2, 10_000, universe=1 << 14)
        m2.reset()
        top_k_frequent_ec_dsbf(m2, d2, 16, **kwargs)
        vol_fp = m2.metrics.by_kind.get("dht_exchange", 0)
        # fingerprints collide and merge: strictly no more DHT volume
        assert vol_fp <= vol_keys

    def test_empty_input(self, machine8):
        data = DistArray(machine8, [np.empty(0, dtype=np.int64)] * 8)
        assert top_k_frequent_ec_dsbf(machine8, data, 4).items == ()

    def test_stats_reported(self, machine8):
        data = zipf_data(machine8, 5000)
        res = top_k_frequent_ec_dsbf(machine8, data, 8, eps=1e-2, delta=1e-3, k_star=32)
        assert "dsbf_rounds" in res.info
        assert res.info["dsbf_rounds"] >= 1


@pytest.mark.parametrize("p", [3, 5])
def test_exchange_charges_one_and_a_half_words_per_entry(p):
    """Off the powers of two the fingerprint tables travel straight to
    their owners: ``ceil(1.5 n)`` words for the ``n`` (fingerprint,
    count) entries a PE sends to each other PE."""
    salt = 0xD5BF
    rng = np.random.default_rng(p)
    samples = [rng.integers(0, 300, 400 + 50 * i) for i in range(p)]
    m = Machine(p=p, seed=5)
    dsbf_top_candidates(m, samples, 8, salt=salt)
    want = 0
    for i, s in enumerate(samples):
        owners = key_owner(np.unique(fingerprint32(np.unique(s), salt)), p, salt + 1)
        want += sum(ceil(1.5 * np.count_nonzero(owners == j)) for j in range(p) if j != i)
    assert m.metrics.by_kind["alltoall"] == want
