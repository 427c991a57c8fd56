"""Unit tests: flexible-k selection (Section 4.3, Algorithm 2)."""

import numpy as np
import pytest

from repro.machine import Machine
from repro.selection import ams_select, ams_select_batched
from repro.selection.flexible import _max_based_rate, _min_based_rate


@pytest.fixture
def rng():
    return np.random.default_rng(29)


def sorted_chunks(machine, rng, n_per_pe):
    return [np.sort(rng.random(n_per_pe)) for _ in range(machine.p)]


def check_prefix(seqs, res):
    """The cuts must select exactly the res.k globally smallest."""
    allv = np.sort(np.concatenate(seqs))
    got = np.sort(np.concatenate([seqs[i][: res.cuts[i]] for i in range(len(seqs))]))
    assert got.size == res.k
    assert np.array_equal(got, allv[: res.k])


class TestRates:
    def test_min_rate_k_lo_one(self):
        assert _min_based_rate(1, 100) == 1.0

    def test_min_rate_in_unit_interval(self):
        for k_lo, k_hi in ((2, 4), (100, 200), (1000, 1001)):
            r = _min_based_rate(k_lo, k_hi)
            assert 0.0 < r <= 1.0

    def test_min_rate_decreases_with_k(self):
        assert _min_based_rate(1000, 2000) < _min_based_rate(10, 20)

    def test_max_rate_full_range(self):
        assert _max_based_rate(50, 100, 100) == 1.0

    def test_max_rate_in_unit_interval(self):
        r = _max_based_rate(900, 950, 1000)
        assert 0.0 < r <= 1.0


class TestAmsSelect:
    def test_k_within_range(self, machine, rng):
        seqs = sorted_chunks(machine, rng, 500)
        n = 500 * machine.p
        for k_lo, k_hi in ((1, 10), (n // 4, n // 2), (max(1, n - 10), n)):
            res = ams_select(machine, seqs, k_lo, k_hi)
            assert k_lo <= res.k <= k_hi
            check_prefix(seqs, res)

    def test_wide_range_few_rounds(self, machine8, rng):
        seqs = sorted_chunks(machine8, rng, 1000)
        rounds = [ams_select(machine8, seqs, 1000, 2000).rounds for _ in range(10)]
        assert np.mean(rounds) < 4  # Theorem 3: O(1) expected

    def test_degenerate_range_falls_back(self, machine8, rng):
        seqs = sorted_chunks(machine8, rng, 200)
        res = ams_select(machine8, seqs, 700, 700, max_rounds=3)
        assert res.k == 700
        check_prefix(seqs, res)

    def test_max_estimator_branch(self, machine8, rng):
        """k close to n triggers the dual (max-based) estimator."""
        seqs = sorted_chunks(machine8, rng, 300)
        n = 2400
        res = ams_select(machine8, seqs, n - 20, n - 1)
        assert n - 20 <= res.k <= n - 1
        check_prefix(seqs, res)

    def test_empty_some_pes(self, machine8, rng):
        seqs = [np.sort(rng.random(500))] + [np.empty(0)] * 7
        res = ams_select(machine8, seqs, 100, 200)
        assert 100 <= res.k <= 200
        check_prefix(seqs, res)

    def test_invalid_range(self, machine8, rng):
        seqs = sorted_chunks(machine8, rng, 10)
        with pytest.raises(ValueError):
            ams_select(machine8, seqs, 10, 5)
        with pytest.raises(ValueError):
            ams_select(machine8, seqs, 1, 100)

    def test_ranks_must_be_whole_numbers(self, machine8, rng):
        seqs = sorted_chunks(machine8, rng, 10)
        with pytest.raises(ValueError, match="k_lo.*2.5"):
            ams_select(machine8, seqs, 2.5, 40)
        with pytest.raises(ValueError, match="k_hi.*True"):
            ams_select(machine8, seqs, 1, True)
        assert 10 <= ams_select(machine8, seqs, 10.0, np.int64(40)).k <= 40

    def test_single_pe(self, rng):
        m = Machine(p=1, seed=4)
        seqs = [np.sort(rng.random(1000))]
        res = ams_select(m, seqs, 100, 200)
        assert 100 <= res.k <= 200
        assert res.cuts[0] == res.k

    def test_latency_advantage_over_exact(self, rng):
        """Flexible selection should need fewer collective rounds than
        exact msSelect at the same scale (Table 1, rows 2-3)."""
        from repro.selection import ms_select

        p, n_per_pe, k = 16, 2000, 8000
        m1 = Machine(p=p, seed=5)
        seqs = [np.sort(m1.rngs[i].random(n_per_pe)) for i in range(p)]
        m1.reset()
        ms_select(m1, seqs, k)
        exact_startups = m1.metrics.bottleneck_startups
        m2 = Machine(p=p, seed=5)
        m2.reset()
        flex_total = 0
        for _ in range(5):
            mm = Machine(p=p, seed=5)
            ams_select(mm, seqs, k, 2 * k)
            flex_total += mm.metrics.bottleneck_startups
        assert flex_total / 5 < exact_startups


class TestAmsBatched:
    def test_k_within_range(self, machine8, rng):
        seqs = sorted_chunks(machine8, rng, 500)
        for d in (2, 8):
            res = ams_select_batched(machine8, seqs, 1000, 2000, d=d)
            assert 1000 <= res.k <= 2000
            check_prefix(seqs, res)

    def test_narrow_range_benefits_from_d(self, machine8, rng):
        """Theorem 4: d trials tolerate windows of width k/d."""
        seqs = sorted_chunks(machine8, rng, 1000)
        k = 4000
        narrow = (k, k + k // 16)
        rounds_d16 = [
            ams_select_batched(machine8, seqs, *narrow, d=16).rounds for _ in range(5)
        ]
        assert np.mean(rounds_d16) <= 4

    def test_d_one_matches_scalar_semantics(self, machine8, rng):
        seqs = sorted_chunks(machine8, rng, 200)
        res = ams_select_batched(machine8, seqs, 100, 400, d=1)
        assert 100 <= res.k <= 400

    def test_invalid_d(self, machine8, rng):
        with pytest.raises(ValueError):
            ams_select_batched(machine8, sorted_chunks(machine8, rng, 10), 1, 5, d=0)
