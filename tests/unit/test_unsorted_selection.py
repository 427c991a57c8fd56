"""Unit tests: distributed unsorted selection (Section 4.1, Algorithm 1)."""

import numpy as np
import pytest

from repro.machine import DistArray, Machine
from repro.selection import select_kth, select_topk_largest, select_topk_smallest
from repro.testing import make_dist, sorted_oracle
from tests.support.special_floats import special_float_chunks


@pytest.fixture
def rng():
    return np.random.default_rng(17)


class TestSelectKth:
    def test_matches_oracle(self, machine, rng):
        data = make_dist(machine, rng, 2000)
        s = sorted_oracle(data)
        n = data.global_size
        for k in (1, n // 3, n):
            assert select_kth(machine, data, k) == s[k - 1]

    def test_odd_p(self, odd_machine, rng):
        data = make_dist(odd_machine, rng, 1500)
        s = sorted_oracle(data)
        assert select_kth(odd_machine, data, 100) == s[99]

    def test_single_pe(self, rng):
        m = Machine(p=1, seed=0)
        data = make_dist(m, rng, 5000)
        s = sorted_oracle(data)
        assert select_kth(m, data, 2500) == s[2499]

    def test_all_data_on_one_pe(self, machine8, rng):
        chunks = [rng.integers(0, 10**6, 8000)] + [np.empty(0, dtype=np.int64)] * 7
        data = DistArray(machine8, chunks)
        s = sorted_oracle(data)
        assert select_kth(machine8, data, 4000) == s[3999]

    def test_duplicate_heavy_input(self, machine8, rng):
        data = make_dist(machine8, rng, 3000, lo=0, hi=4)
        s = sorted_oracle(data)
        for k in (1, 9000, 24_000):
            assert select_kth(machine8, data, k) == s[k - 1]

    def test_all_equal(self, machine8):
        data = DistArray(machine8, [np.full(100, 3)] * 8)
        assert select_kth(machine8, data, 400) == 3

    def test_invalid_k(self, machine8, rng):
        data = make_dist(machine8, rng, 10)
        with pytest.raises(ValueError):
            select_kth(machine8, data, 0)
        with pytest.raises(ValueError):
            select_kth(machine8, data, 81)

    def test_k_must_be_a_whole_number(self, machine8, rng):
        data = make_dist(machine8, rng, 10)
        with pytest.raises(ValueError, match="2.7"):
            select_kth(machine8, data, 2.7)
        with pytest.raises(ValueError, match="True"):
            select_kth(machine8, data, True)
        s = sorted_oracle(data)
        assert select_kth(machine8, data, 3.0) == s[2]
        assert select_kth(machine8, data, np.int32(3)) == s[2]

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    def test_nan_inf_and_signed_zero_sort_like_numpy(self, backend):
        with Machine(p=3, seed=12, backend=backend) as m:
            data = DistArray(m, special_float_chunks(3, 1500, 12))
            s = sorted_oracle(data)
            n, finite = s.size, int(np.count_nonzero(~np.isnan(s)))
            for k in (1, 7, n // 3, finite, finite + 1, n):
                got = select_kth(m, data, k)
                assert np.array_equal(got, s[k - 1], equal_nan=True), k

    def test_stats(self, machine8, rng):
        data = make_dist(machine8, rng, 4000)
        stats = select_kth(machine8, data, 16_000, return_stats=True)
        assert stats.value == sorted_oracle(data)[15_999]
        assert stats.rounds >= 1
        assert stats.sample_total > 0

    def test_sublinear_communication(self, rng):
        """Theorem 1: per-PE volume should be far below n/p."""
        m = Machine(p=16, seed=2)
        n_per_pe = 4000
        data = make_dist(m, rng, n_per_pe)
        m.reset()
        select_kth(m, data, data.global_size // 2)
        assert m.metrics.bottleneck_words < n_per_pe / 4

    def test_sample_factor_knob(self, machine8, rng):
        data = make_dist(machine8, rng, 2000)
        s = sorted_oracle(data)
        for f in (0.5, 4.0):
            assert select_kth(machine8, data, 1000, sample_factor=f) == s[999]

    def test_float_values(self, machine8):
        data = DistArray.generate(machine8, lambda r, g: g.random(1000))
        s = sorted_oracle(data)
        assert select_kth(machine8, data, 4000) == pytest.approx(s[3999])


class TestTopkExtraction:
    def test_smallest_exact_k_with_ties(self, machine8, rng):
        data = make_dist(machine8, rng, 1000, lo=0, hi=50)  # many ties
        sel, thr = select_topk_smallest(machine8, data, 777)
        assert sel.global_size == 777
        assert np.array_equal(np.sort(sel.concat()), sorted_oracle(data)[:777])

    def test_largest(self, machine8, rng):
        data = make_dist(machine8, rng, 1000)
        sel, thr = select_topk_largest(machine8, data, 123)
        assert sel.global_size == 123
        assert np.array_equal(np.sort(sel.concat()), sorted_oracle(data)[-123:])

    def test_k_must_be_a_whole_number(self, machine8, rng):
        data = make_dist(machine8, rng, 10)
        with pytest.raises(ValueError, match="7.5"):
            select_topk_smallest(machine8, data, 7.5)
        with pytest.raises(ValueError, match="True"):
            select_topk_largest(machine8, data, True)

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    def test_nan_inf_and_signed_zero_sort_like_numpy(self, backend):
        """Up to the last non-NaN rank (a NaN threshold equals nothing,
        so a cut past it comes back empty -- as it did before)."""
        with Machine(p=3, seed=13, backend=backend) as m:
            data = DistArray(m, special_float_chunks(3, 1500, 13))
            s = sorted_oracle(data)
            finite = int(np.count_nonzero(~np.isnan(s)))
            for k in (1, s.size // 3, finite):
                sel, thr = select_topk_smallest(m, data, k)
                assert thr == s[k - 1]
                assert np.array_equal(np.sort(sel.concat()), s[:k])

    def test_k_equals_n(self, machine8, rng):
        data = make_dist(machine8, rng, 100)
        sel, _ = select_topk_smallest(machine8, data, 800)
        assert sel.global_size == 800

    def test_selected_stay_on_owner_pes(self, machine8, rng):
        """Owner-computes: every selected element must come from its PE."""
        data = make_dist(machine8, rng, 500)
        sel, _ = select_topk_smallest(machine8, data, 100)
        for i in range(8):
            assert np.all(np.isin(sel.chunks[i], data.chunks[i]))
