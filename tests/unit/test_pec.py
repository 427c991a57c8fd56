"""Unit tests: Algorithm PEC (repro.frequent.pec)."""

import numpy as np
import pytest

from repro.common import gapped_sample, zipf_sample
from repro.frequent import (
    estimate_k_star,
    exact_counts_oracle,
    top_k_frequent_pec,
    top_k_frequent_pec_zipf,
)
from repro.machine import DistArray, Machine


@pytest.fixture
def rng():
    return np.random.default_rng(71)


def gapped_data(machine, k=16, gap=6.0, n_per_pe=20_000, universe=1024):
    return DistArray.generate(
        machine,
        lambda r, g: gapped_sample(g, n_per_pe, universe=universe, k=k, gap=gap),
    )


class TestEstimateKStar:
    """Lemma 12 as a pure function of the head's sample counts."""

    def test_first_count_below_the_threshold_ends_the_candidates(self):
        head = [400, 390, 380, 20, 10, 5]
        assert estimate_k_star(head, 3, 1e-3) == (4, True)

    def test_flat_head_is_capped(self):
        head = [100] * 10
        assert estimate_k_star(head, 3, 1e-3) == (10, False)

    def test_short_head_is_exact(self):
        assert estimate_k_star([7, 3], 4, 1e-3) == (4, True)
        assert estimate_k_star([], 4, 1e-3) == (4, True)


class TestPec:
    def test_exact_on_gapped_input(self, machine8):
        k = 16
        data = gapped_data(machine8, k=k)
        true = exact_counts_oracle(data)
        oracle = sorted(true.items(), key=lambda t: (-t[1], t[0]))[:k]
        res = top_k_frequent_pec(machine8, data, k, delta=1e-3)
        assert set(res.keys) == {key for key, _ in oracle}
        assert res.info["gap_found"]

    def test_counts_exact(self, machine8):
        data = gapped_data(machine8, k=8)
        true = exact_counts_oracle(data)
        res = top_k_frequent_pec(machine8, data, 8, delta=1e-3)
        for key, c in res.items:
            assert c == true[key]

    def test_k_star_moderate_for_big_gap(self, machine8):
        data = gapped_data(machine8, k=8, gap=10.0)
        res = top_k_frequent_pec(machine8, data, 8, delta=1e-3)
        assert res.k_star <= 64  # far below the 16k cap

    def test_flat_distribution_reports_no_gap(self, machine8):
        data = DistArray.generate(
            machine8, lambda r, g: g.integers(0, 512, 10_000).astype(np.int64)
        )
        res = top_k_frequent_pec(machine8, data, 8, delta=1e-3, cap_factor=4)
        # uniform input: either no gap found, or the cap was hit
        assert (not res.info["gap_found"]) or res.k_star <= 4 * 8

    def test_empty_input(self, machine8):
        data = DistArray(machine8, [np.empty(0, dtype=np.int64)] * 8)
        res = top_k_frequent_pec(machine8, data, 4)
        assert res.items == ()


class TestPecZipf:
    def test_exact_on_zipf(self, machine8):
        k = 8
        data = DistArray.generate(
            machine8, lambda r, g: zipf_sample(g, 30_000, universe=4096, s=1.0)
        )
        true = exact_counts_oracle(data)
        oracle = {key for key, _ in sorted(true.items(), key=lambda t: (-t[1], t[0]))[:k]}
        res = top_k_frequent_pec_zipf(machine8, data, k, delta=1e-3, s=1.0, universe=4096)
        assert set(res.keys) == oracle

    def test_k_star_closed_form(self, machine8):
        data = DistArray.generate(
            machine8, lambda r, g: zipf_sample(g, 1000, universe=256, s=1.0)
        )
        res = top_k_frequent_pec_zipf(machine8, data, 10, s=1.0, universe=256)
        assert res.k_star == int(np.ceil((2 + np.sqrt(2)) * 10))

    def test_steeper_exponent_needs_smaller_sample(self, machine8):
        data = DistArray.generate(
            machine8, lambda r, g: zipf_sample(g, 20_000, universe=1024, s=1.5)
        )
        res_steep = top_k_frequent_pec_zipf(machine8, data, 8, s=1.5, universe=1024)
        res_flat = top_k_frequent_pec_zipf(machine8, data, 8, s=1.0, universe=1024)
        # k* shrinks with s (fewer candidates hide near the boundary)
        assert res_steep.k_star <= res_flat.k_star

    def test_universe_inferred(self, machine8):
        data = DistArray.generate(
            machine8, lambda r, g: zipf_sample(g, 5000, universe=512, s=1.0)
        )
        res = top_k_frequent_pec_zipf(machine8, data, 4, s=1.0)
        assert res.info["universe"] <= 512
