"""Unit tests: argument validation helpers (repro.common.validation)."""

import pytest

import numpy as np

from repro.common.validation import (
    as_rank,
    check_finite_positive,
    check_k_star,
    check_positive,
    check_probability,
    check_rank,
    check_rank_range,
    check_rate,
)


class TestAsRank:
    def test_whole_numbers_become_ints(self):
        for k in (5, np.int64(5), np.uint8(5), 5.0, np.float32(5.0)):
            got = as_rank(k)
            assert got == 5 and type(got) is int

    @pytest.mark.parametrize(
        "k", [2.7, True, np.True_, "5", None, float("nan"), float("inf"), 1 + 0j]
    )
    def test_anything_else_is_named_not_truncated(self, k):
        with pytest.raises(ValueError, match="rank 7 must be an integer") as ei:
            as_rank(k, "rank 7")
        assert repr(k) in str(ei.value)


class TestCheckRank:
    def test_valid_passes_through(self):
        assert check_rank(5, 10) == 5

    def test_bounds(self):
        assert check_rank(1, 10) == 1
        assert check_rank(10, 10) == 10

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="1 <= k"):
            check_rank(0, 10)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            check_rank(11, 10)

    def test_custom_name_in_message(self):
        with pytest.raises(ValueError, match="kk"):
            check_rank(0, 10, what="kk")

    def test_fraction_and_bool_rejected(self):
        with pytest.raises(ValueError, match="2.7"):
            check_rank(2.7, 10)
        with pytest.raises(ValueError, match="True"):
            check_rank(True, 10)
        assert check_rank(3.0, 10) == 3


class TestCheckRankRange:
    def test_valid(self):
        assert check_rank_range(2, 5, 10) == (2, 5)

    def test_degenerate_range_ok(self):
        assert check_rank_range(3, 3, 10) == (3, 3)

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            check_rank_range(5, 2, 10)

    def test_out_of_n(self):
        with pytest.raises(ValueError):
            check_rank_range(1, 11, 10)

    def test_fraction_and_bool_rejected(self):
        with pytest.raises(ValueError, match="k_lo.*2.5"):
            check_rank_range(2.5, 5, 10)
        with pytest.raises(ValueError, match="k_hi.*True"):
            check_rank_range(1, True, 10)


class TestOthers:
    def test_check_positive(self):
        assert check_positive(2, "x") == 2
        with pytest.raises(ValueError):
            check_positive(0, "x")

    def test_check_probability(self):
        assert check_probability(0.5, "p") == 0.5
        assert check_probability(1.0, "p") == 1.0
        with pytest.raises(ValueError):
            check_probability(0.0, "p")
        assert check_probability(0.0, "p", open_left=False) == 0.0
        with pytest.raises(ValueError):
            check_probability(1.1, "p")


class TestOverrides:
    """The sampling pipelines' overrides, refused before any charge."""

    def test_check_rate(self):
        assert check_rate(0.3, "rho") == 0.3
        assert check_rate(1, "rho") == 1
        assert check_rate(np.float32(0.5), "rho") == np.float32(0.5)
        for bad in (0.0, -0.1, 1.5, float("nan"), float("inf"), True, "0.5"):
            with pytest.raises(ValueError, match="^rho must be a sampling rate"):
                check_rate(bad, "rho")

    def test_check_k_star(self):
        assert check_k_star(12, 8) == 12
        assert check_k_star(8.0, 8) == 8
        assert type(check_k_star(np.int64(9), 8)) is int
        for bad in (7, 0, -3, 9.5, float("nan"), True, "12"):
            with pytest.raises(ValueError, match="^k_star must"):
                check_k_star(bad, 8)

    def test_check_finite_positive(self):
        assert check_finite_positive(16.0, "s") == 16.0
        assert check_finite_positive(1e-300, "s") == 1e-300
        for bad in (0, -5, float("nan"), float("inf"), True, "3"):
            with pytest.raises(ValueError, match="^s must be finite and positive"):
                check_finite_positive(bad, "s")
