"""Unit tests: sequential quickselect / Floyd-Rivest."""

import math

import numpy as np
import pytest

from repro.selection import floyd_rivest_select, fr_pivots, kth_smallest, quickselect


@pytest.fixture
def rng():
    return np.random.default_rng(13)


class TestQuickselect:
    def test_matches_sort(self, rng):
        data = rng.integers(0, 1000, 2000)
        s = np.sort(data)
        for k in (1, 2, 1000, 1999, 2000):
            assert quickselect(data, k) == s[k - 1]

    def test_all_equal(self):
        data = np.full(100, 7)
        assert quickselect(data, 50) == 7

    def test_duplicate_heavy(self, rng):
        data = rng.integers(0, 5, 1000)
        s = np.sort(data)
        for k in (1, 500, 1000):
            assert quickselect(data, k) == s[k - 1]

    def test_input_not_modified(self, rng):
        data = rng.integers(0, 100, 500)
        before = data.copy()
        quickselect(data, 250)
        assert np.array_equal(data, before)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            quickselect(np.arange(10), 0)
        with pytest.raises(ValueError):
            quickselect(np.arange(10), 11)

    def test_floats(self, rng):
        data = rng.random(777)
        assert quickselect(data, 300) == np.sort(data)[299]


class TestFloydRivest:
    def test_matches_sort_large(self, rng):
        data = rng.integers(0, 10**6, 50_000)
        s = np.sort(data)
        for k in (1, 100, 25_000, 50_000):
            assert floyd_rivest_select(data, k) == s[k - 1]

    def test_skewed_input(self, rng):
        data = np.concatenate([np.zeros(10_000), rng.integers(1, 100, 10_000)])
        s = np.sort(data)
        assert floyd_rivest_select(data, 10_000) == s[9999]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            floyd_rivest_select(np.arange(10), 0)


class TestFrPivots:
    def test_pivots_bracket_target(self, rng):
        sample = np.sort(rng.random(100))
        lo, hi = fr_pivots(sample, k=5000, n=10_000)
        assert lo <= sample[50] <= hi

    def test_pivots_ordered(self, rng):
        sample = np.sort(rng.random(64))
        lo, hi = fr_pivots(sample, k=1, n=1000)
        assert lo <= hi

    def test_extreme_ranks_clamped(self, rng):
        sample = np.sort(rng.random(32))
        lo, hi = fr_pivots(sample, k=10**9, n=10**9)
        assert hi == sample[-1]

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            fr_pivots(np.empty(0), 1, 10)

    @pytest.mark.parametrize("s,k,n", [(2, 1, 2), (9, 3, 10), (40, 500, 1000),
                                       (40, 1, 1000), (100, 999, 1000), (7, 7, 7)])
    def test_delta_is_one_standard_deviation(self, s, k, n):
        # positions c -+ max(1/2, sqrt(c (s - c) / s)), c = k s / n, clamped
        sample = np.arange(s) * 10
        c = k * s / n
        delta = max(0.5, math.sqrt(c * (s - c) / s))
        lo = min(max(math.floor(c - delta), 0), s - 1)
        hi = min(max(math.ceil(c + delta), 0), s - 1)
        assert fr_pivots(sample, k, n) == (sample[lo], sample[hi])

    @pytest.mark.parametrize("k", [1, 50, 100])
    def test_one_element_sample_gives_equal_pivots(self, k):
        lo, hi = fr_pivots(np.array([3.5]), k, 100)
        assert lo == hi == 3.5

    def test_pivots_are_sample_members_and_clamp_at_both_ends(self, rng):
        for s in range(1, 70):
            sample = np.sort(rng.random(s))
            for k, n in ((1, 10**6), (10**6, 10**6), (s, 2 * s), (1, 1)):
                lo, hi = fr_pivots(sample, k, n)
                assert lo in sample and hi in sample and lo <= hi
            assert fr_pivots(sample, 1, 10**6)[0] == sample[0]
            assert fr_pivots(sample, 10**6, 10**6)[1] == sample[-1]

    def test_index_bracket_contains_the_target_position(self):
        for s in range(1, 70):
            sample = np.arange(s)  # a pivot's value is its index
            for k in range(1, 201):
                c = k * s / 200
                lo, hi = fr_pivots(sample, k, 200)
                assert lo <= min(c, s - 1) <= hi, (s, k)

    def test_median_pivots_no_longer_span_the_sample(self):
        # Delta = s^(5/6) >= s/2 put the pair at (S[0], S[-1]) for s < 64
        for s in range(4, 64):
            sample = np.arange(s)
            assert fr_pivots(sample, 5000, 10_000) != (sample[0], sample[-1]), s


class TestDispatch:
    def test_kth_smallest_small_and_large(self, rng):
        small = rng.integers(0, 50, 100)
        large = rng.integers(0, 50, 10_000)
        assert kth_smallest(small, 50) == np.sort(small)[49]
        assert kth_smallest(large, 5000) == np.sort(large)[4999]

    def test_invalid(self):
        with pytest.raises(ValueError):
            kth_smallest(np.arange(5), 6)
