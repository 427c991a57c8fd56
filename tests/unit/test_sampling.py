"""Unit tests: samplers and sample-size formulas (repro.common.sampling)."""

import numpy as np
import pytest

from repro.common.sampling import (
    bernoulli_sample,
    bernoulli_skip_indices,
    ec_sample_rate,
    geometric_rank,
    pac_sample_rate,
    weighted_sample_counts,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestBernoulliSample:
    def test_rate_zero_empty(self, rng):
        assert bernoulli_sample(rng, np.arange(100), 0.0).size == 0

    def test_rate_one_everything(self, rng):
        data = np.arange(50)
        out = bernoulli_sample(rng, data, 1.0)
        assert np.array_equal(np.sort(out), data)

    def test_sample_is_subset(self, rng):
        data = np.arange(1000)
        out = bernoulli_sample(rng, data, 0.1)
        assert np.all(np.isin(out, data))

    def test_expected_size(self, rng):
        sizes = [bernoulli_sample(rng, np.arange(10_000), 0.2).size for _ in range(30)]
        assert abs(np.mean(sizes) - 2000) < 100

    def test_invalid_rate(self, rng):
        with pytest.raises(ValueError):
            bernoulli_sample(rng, np.arange(5), 1.5)

    def test_empty_input(self, rng):
        assert bernoulli_sample(rng, np.empty(0), 0.5).size == 0


class TestSkipIndices:
    def test_indices_in_range_and_increasing(self, rng):
        idx = bernoulli_skip_indices(rng, 1000, 0.05)
        assert np.all(idx >= 0) and np.all(idx < 1000)
        assert np.all(np.diff(idx) > 0)

    def test_expected_count(self, rng):
        counts = [bernoulli_skip_indices(rng, 20_000, 0.1).size for _ in range(20)]
        assert abs(np.mean(counts) - 2000) < 150

    def test_rate_one_takes_all(self, rng):
        idx = bernoulli_skip_indices(rng, 17, 1.0)
        assert np.array_equal(idx, np.arange(17))

    def test_zero_rate(self, rng):
        assert bernoulli_skip_indices(rng, 100, 0.0).size == 0

    def test_zero_length(self, rng):
        assert bernoulli_skip_indices(rng, 0, 0.3).size == 0


class TestGeometricRank:
    def test_mean_close_to_inverse_rate(self, rng):
        draws = [geometric_rank(rng, 0.1) for _ in range(3000)]
        assert abs(np.mean(draws) - 10.0) < 1.0

    def test_always_at_least_one(self, rng):
        assert all(geometric_rank(rng, 0.9) >= 1 for _ in range(100))

    def test_invalid_rate(self, rng):
        with pytest.raises(ValueError):
            geometric_rank(rng, 0.0)


class TestWeightedSampleCounts:
    def test_unbiased(self, rng):
        values = np.full(5000, 3.7)
        counts = weighted_sample_counts(rng, values, v_avg=2.0)
        assert abs(counts.mean() - 3.7 / 2.0) < 0.05

    def test_deterministic_part(self, rng):
        values = np.array([10.0, 20.0])
        counts = weighted_sample_counts(rng, values, v_avg=5.0)
        assert counts[0] == 2 and counts[1] == 4  # integral: no randomness

    def test_deviation_at_most_one_per_key(self, rng):
        values = rng.exponential(5.0, 1000)
        counts = weighted_sample_counts(rng, values, v_avg=2.0)
        assert np.all(np.abs(counts - values / 2.0) <= 1.0)

    @pytest.mark.parametrize("values,v_avg,named", [
        ([1.0, np.nan], 1.0, "nan"),
        ([2.0, np.inf], 1.0, "inf"),
        ([-np.inf, 1.0], 1.0, "-inf"),
        ([1.0], np.nan, "nan"),
        ([1.0], np.inf, "inf"),
        ([1.0], 0.0, "0.0"),
        ([1.0], -2.0, "-2.0"),
        ([-1.0], 1.0, "non-negative"),
    ])
    def test_rejects_before_drawing(self, values, v_avg, named):
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        with pytest.raises(ValueError, match=named):
            weighted_sample_counts(rng, np.array(values), v_avg)
        assert rng.bit_generator.state == twin.bit_generator.state


class TestSampleRates:
    def test_pac_rate_decreases_with_eps(self):
        lo = pac_sample_rate(10**9, 32, 1e-2, 1e-4)
        hi = pac_sample_rate(10**9, 32, 1e-3, 1e-4)
        assert hi > lo

    def test_pac_rate_capped_at_one(self):
        assert pac_sample_rate(100, 32, 1e-6, 1e-8) == 1.0

    def test_ec_rate_smaller_than_pac(self):
        n, k = 10**9, 32
        k_star = 10_000
        assert ec_sample_rate(n, k_star, 1e-4, 1e-6) < pac_sample_rate(n, k, 1e-4, 1e-6)

    def test_ec_rate_scales_inverse_kstar(self):
        n = 10**10
        r1 = ec_sample_rate(n, 100, 1e-4, 1e-6)
        r2 = ec_sample_rate(n, 400, 1e-4, 1e-6)
        assert r1 / r2 == pytest.approx(4.0, rel=1e-6)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            pac_sample_rate(100, 32, 0.0, 0.1)
        with pytest.raises(ValueError):
            pac_sample_rate(100, 32, 0.1, 1.5)
        with pytest.raises(ValueError):
            pac_sample_rate(100, 0, 0.1, 0.1)
        with pytest.raises(ValueError):
            ec_sample_rate(100, 0, 0.1, 0.1)
