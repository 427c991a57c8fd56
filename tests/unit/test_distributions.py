"""Unit tests: input distributions (repro.common.distributions)."""

import numpy as np
import pytest

from repro.common.distributions import (
    GappedSpec,
    ZipfDistribution,
    _inversion,
    gapped_sample,
    harmonic_number,
    negative_binomial_sample,
    zipf_sample,
)
from repro.kernels import guide_size


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestHarmonic:
    def test_known_values(self):
        assert harmonic_number(1, 1.0) == pytest.approx(1.0)
        assert harmonic_number(3, 1.0) == pytest.approx(1 + 0.5 + 1 / 3)

    def test_s_zero_counts(self):
        assert harmonic_number(10, 0.0) == pytest.approx(10.0)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            harmonic_number(0, 1.0)


class TestZipf:
    def test_range(self, rng):
        x = ZipfDistribution(100, 1.0).sample(rng, 5000)
        assert x.min() >= 1 and x.max() <= 100

    def test_rank_one_most_frequent(self, rng):
        x = ZipfDistribution(1000, 1.2).sample(rng, 50_000)
        vals, counts = np.unique(x, return_counts=True)
        assert vals[np.argmax(counts)] == 1

    def test_frequency_matches_law(self, rng):
        d = ZipfDistribution(64, 1.0)
        n = 200_000
        x = d.sample(rng, n)
        c1 = (x == 1).sum()
        c2 = (x == 2).sum()
        # expect c1/c2 ~= 2
        assert 1.7 < c1 / c2 < 2.3

    def test_expected_count_formula(self, rng):
        d = ZipfDistribution(64, 1.0)
        n = 100_000
        x = d.sample(rng, n)
        exp1 = d.expected_count(1, n)
        assert abs((x == 1).sum() - exp1) < 0.1 * exp1

    def test_pmf_sums_to_one(self):
        assert ZipfDistribution(500, 1.3).pmf().sum() == pytest.approx(1.0)

    def test_s_zero_is_uniform(self, rng):
        pmf = ZipfDistribution(10, 0.0).pmf()
        assert np.allclose(pmf, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfDistribution(0, 1.0)
        with pytest.raises(ValueError):
            ZipfDistribution(10, -1.0)

    @pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf])
    def test_non_finite_exponent_rejected(self, s):
        """A NaN exponent used to draw all ones; inf the same."""
        with pytest.raises(ValueError, match=f"exponent must be finite.*got {s}"):
            ZipfDistribution(16, s)

    @pytest.mark.parametrize("universe", [16.5, True, "16", np.nan])
    def test_non_whole_universe_rejected(self, universe):
        """16.5 used to build a 17-entry CDF."""
        with pytest.raises(ValueError, match=f"universe must be a whole number.*{universe!r}"):
            ZipfDistribution(universe, 1.0)

    def test_whole_universe_is_an_int(self):
        assert ZipfDistribution(np.int64(16), 1.0).universe == 16
        assert type(ZipfDistribution(16.0, 1.0).universe) is int

    def test_draws_are_the_inverse_cdf_of_one_random_block(self):
        """The contract: ``searchsorted(cdf, rng.random(size), "right")
        + 1``, generator left where ``rng.random(size)`` leaves it."""
        d = ZipfDistribution(1 << 12, 1.1)
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        got = d.sample(rng, 100_000)
        want = np.searchsorted(d.cdf(), twin.random(100_000), side="right") + 1
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_guide_table_is_built_only_for_a_draw_of_m_values(self, rng):
        _inversion.cache_clear()
        d = ZipfDistribution(1 << 10, 1.0)
        m = guide_size(1 << 10)
        d.sample(rng, m - 1)
        assert _inversion(d).guide is None
        d.sample(rng, m)
        assert _inversion(d).guide.size == m
        assert _inversion(d).guide.dtype == np.int32
        assert not _inversion(d).cdf.flags.writeable

    def test_wrapper(self, rng):
        x = zipf_sample(rng, 100, universe=50, s=1.0)
        assert x.dtype == np.int64 and x.size == 100


class TestNegativeBinomial:
    def test_plateau_center(self, rng):
        x = negative_binomial_sample(rng, 100_000, r=1000, p_success=0.05)
        # mean of NB(r, p) counting failures: r (1-p)/p = 19000
        assert abs(x.mean() - 19_000) < 200

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            negative_binomial_sample(rng, 10, r=0)
        with pytest.raises(ValueError):
            negative_binomial_sample(rng, 10, p_success=1.5)


class TestGapped:
    def test_head_heavier_than_tail(self, rng):
        spec = GappedSpec(universe=256, k=8, gap=6.0)
        x = spec.sample(rng, 100_000)
        vals, counts = np.unique(x, return_counts=True)
        cmap = dict(zip(vals, counts))
        head_min = min(cmap.get(i, 0) for i in range(1, 9))
        tail_max = max(cmap.get(i, 0) for i in range(9, 257))
        assert head_min > 2 * tail_max  # gap factor 6 with noise margin

    def test_pmf_gap_ratio(self):
        spec = GappedSpec(universe=100, k=5, gap=4.0)
        pmf = spec.pmf()
        assert pmf[0] / pmf[50] == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GappedSpec(universe=10, k=10, gap=2.0)
        with pytest.raises(ValueError):
            GappedSpec(universe=10, k=2, gap=1.0)

    @pytest.mark.parametrize("gap", [np.nan, np.inf])
    def test_non_finite_gap_rejected(self, gap):
        """inf used to draw all ones (with a divide warning); NaN passed
        the ``<= 1`` check."""
        with pytest.raises(ValueError, match=f"gap must be finite.*got {gap}"):
            GappedSpec(16, 2, gap)

    @pytest.mark.parametrize("universe, k", [(16.5, 2), (True, 1), (16, 2.5)])
    def test_non_whole_universe_or_k_rejected(self, universe, k):
        with pytest.raises(ValueError, match="whole number|need 1 <= k"):
            GappedSpec(universe, k, 4.0)

    def test_cdf_is_cached_with_zipf(self, rng):
        """One sampler and one cache for both laws: the CDF is built
        once per spec, not per call."""
        _inversion.cache_clear()
        spec = GappedSpec(universe=100, k=5, gap=4.0)
        spec.sample(rng, 10)
        spec.sample(rng, 10)
        GappedSpec(universe=100, k=5, gap=4.0).sample(rng, 10)
        ZipfDistribution(100, 1.0).sample(rng, 10)
        info = _inversion.cache_info()
        assert (info.hits, info.misses) == (2, 2)
        np.testing.assert_array_equal(_inversion(spec).cdf, np.cumsum(spec.pmf()))

    def test_wrapper(self, rng):
        x = gapped_sample(rng, 1000, universe=64, k=4, gap=8.0)
        assert x.min() >= 1 and x.max() <= 64
