"""Unit tests: the serve engine's index of answered order statistics
(repro.serve.rank_index) -- free answers, bracket windows, the cap."""

import numpy as np

from repro.serve import rank_index
from repro.serve.rank_index import MAX_ENTRIES, RankIndex

#: 20 sorted values with runs of ties: ranks 1..20
DATA = np.array([1, 2, 2, 2, 3, 4, 5, 5, 6, 7, 8, 8, 8, 8, 9, 10, 11, 12, 12, 13])


def _counts(v):
    return (int(np.searchsorted(DATA, v, "left")),
            int(np.searchsorted(DATA, v, "right")))


def _record(index, k, *, less=True, leq=True):
    v = int(DATA[k - 1])
    n_less, n_leq = _counts(v)
    index.record(k, v, n_less if less else None, n_leq if leq else None)


class TestAnswers:
    def test_a_value_with_exact_counts_holds_its_whole_tie_run(self):
        index = RankIndex(DATA.size)
        _record(index, 12)  # value 8 at ranks 11..14
        assert [index.answer(k) for k in (10, 11, 14, 15)] == [
            (False, None), (True, 8), (True, 8), (False, None)]

    def test_an_unknown_count_falls_back_to_the_recorded_ranks(self):
        index = RankIndex(DATA.size)
        _record(index, 12, leq=False)   # 8: ranks 11..12 known
        assert index.answer(11) == (True, 8)
        assert index.answer(12) == (True, 8)
        assert index.answer(13) == (False, None)
        _record(index, 13, less=False)  # 8 again: ranks 11..13 known
        assert index.answer(13) == (True, 8)
        assert index.entries() == [(8, 10, 14)]

    def test_nan_is_never_recorded(self):
        index = RankIndex(5)
        index.record(5, float("nan"), None, None)
        assert len(index) == 0
        assert index.windows([5]) == [(None, None, 0, 5, [5])]

    def test_a_nan_answer_holds_every_rank_above_it(self):
        """NaN sorts last: the lowest rank seen to hold it starts a span
        that runs to ``n``, and NaN never bounds a window."""
        index = RankIndex(7)  # sorted: 1, 2, 2, 3, NaN, NaN, NaN
        index.record(6, float("nan"), None, None)
        assert [index.answer(k)[0] for k in range(1, 8)] == [False] * 5 + [True] * 2
        value = index.answer(7)[1]
        assert value != value
        index.record(5, float("nan"), None, None)
        index.record(7, float("nan"), None, None)  # a higher rank: no change
        assert [index.answer(k)[0] for k in range(1, 8)] == [False] * 4 + [True] * 3
        index.record(2, 2.0, 1, 3)
        assert index.windows([4]) == [(2.0, None, 3, 4, [4])]
        assert index.entries() == [(2.0, 1, 3)]


class TestWindows:
    def test_an_empty_index_gives_the_whole_dataset(self):
        assert RankIndex(20).windows([3, 9]) == [(None, None, 0, 20, [3, 9])]

    def test_nearest_exact_brackets_size_the_window(self):
        index = RankIndex(DATA.size)
        for k in (2, 9, 17):  # values 2, 6, 11
            _record(index, k)
        assert index.windows([6, 12, 20]) == [
            (2, 6, 4, 4, [6]),       # 3 4 5 5: ranks 5..8
            (6, 11, 9, 7, [12]),     # ranks 10..16
            (11, None, 17, 3, [20]),  # ranks 18..20
        ]

    def test_a_one_sided_count_brackets_on_its_exact_side_only(self):
        index = RankIndex(DATA.size)
        _record(index, 9, leq=False)   # 6: n_less exact only
        _record(index, 15, less=False)  # 9: n_leq exact only
        # rank 5 sits below 6: 6 bounds it above; rank 12 sits between
        # them, where neither bounds it, rank 18 lies above 9
        assert index.windows([5]) == [(None, 6, 0, 8, [5])]
        assert index.windows([12]) == [(None, None, 0, 20, [12])]
        assert index.windows([18]) == [(9, None, 15, 5, [18])]

    def test_windows_sharing_elements_merge(self):
        index = RankIndex(DATA.size)
        _record(index, 9, leq=False)   # 6 bounds above only (n_less 8)
        _record(index, 5, less=False)  # 3 bounds below only (n_leq 5)
        # rank 4 gets (None, 6) and rank 7 (3, 6) inside it; rank 10
        # gets (3, None): all share ranks 6..8, so they are one window
        assert index.windows([4, 7]) == [(None, 6, 0, 8, [4, 7])]
        assert index.windows([4, 10]) == [(None, None, 0, 20, [4, 10])]
        _record(index, 20)  # 13 bounds above (n_less 19)
        assert index.windows([4, 10]) == [(None, 13, 0, 19, [4, 10])]


class TestCap:
    def test_the_cap_holds_under_a_stream_of_distinct_ranks(self):
        n = MAX_ENTRIES + 100
        index = RankIndex(n)
        for k in range(1, n + 1):  # values 10 * k: one per rank
            index.record(k, 10 * k, k - 1, k)
        assert len(index) == MAX_ENTRIES
        assert index.answer(MAX_ENTRIES) == (True, 10 * MAX_ENTRIES)
        assert index.answer(MAX_ENTRIES + 1) == (False, None)
        # a rank past the cap still gets the exact window above the last
        # recorded value
        assert index.windows([n]) == [
            (10 * MAX_ENTRIES, None, MAX_ENTRIES, 100, [n])]

    def test_a_recorded_value_still_learns_its_counts_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(rank_index, "MAX_ENTRIES", 1)
        index = RankIndex(DATA.size)
        _record(index, 12, leq=False)
        _record(index, 2)  # a second value: not recorded
        _record(index, 13)  # 8 again, now with its n_leq
        assert index.entries() == [(8, 10, 14)]
