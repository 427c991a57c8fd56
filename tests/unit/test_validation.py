"""Unit tests: argument validation helpers (repro.common.validation)."""

import pytest

import numpy as np

from repro.common.validation import (
    as_rank,
    check_positive,
    check_probability,
    check_rank,
    check_rank_range,
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
