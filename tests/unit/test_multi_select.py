"""Unit tests: distributed multiselection and quantiles."""

import numpy as np
import pytest

from repro.machine import DistArray, Machine
from repro.selection import multi_select, quantiles
from repro.testing import make_dist, sorted_oracle
from tests.support.special_floats import special_float_chunks


@pytest.fixture
def rng():
    return np.random.default_rng(101)


class TestMultiSelect:
    def test_matches_oracle_many_ranks(self, machine8, rng):
        data = make_dist(machine8, rng, 2000)
        s = sorted_oracle(data)
        ks = [1, 7, 500, 8000, 15999, 16000]
        vals = multi_select(machine8, data, ks)
        for k, v in zip(sorted(set(ks)), vals):
            assert v == s[k - 1]

    def test_single_rank_matches_select_kth(self, machine8, rng):
        from repro.selection import select_kth

        data = make_dist(machine8, rng, 1000)
        assert multi_select(machine8, data, [4000])[0] == select_kth(
            machine8, data, 4000
        )

    def test_duplicate_ranks_deduplicated(self, machine8, rng):
        data = make_dist(machine8, rng, 500)
        vals = multi_select(machine8, data, [100, 100, 100])
        assert len(vals) == 1

    def test_duplicate_heavy_values(self, machine8, rng):
        data = make_dist(machine8, rng, 1000, lo=0, hi=5)
        s = sorted_oracle(data)
        ks = [1, 2000, 4000, 8000]
        vals = multi_select(machine8, data, ks)
        for k, v in zip(ks, vals):
            assert v == s[k - 1]

    def test_empty_ranks(self, machine8, rng):
        data = make_dist(machine8, rng, 10)
        assert multi_select(machine8, data, []) == []

    def test_rank_out_of_range(self, machine8, rng):
        data = make_dist(machine8, rng, 10)
        with pytest.raises(ValueError):
            multi_select(machine8, data, [0])
        with pytest.raises(ValueError):
            multi_select(machine8, data, [81])

    def test_ranks_must_be_whole_numbers(self, machine8, rng):
        data = make_dist(machine8, rng, 10)
        with pytest.raises(ValueError, match="2.7"):
            multi_select(machine8, data, [2.7, 10.2])
        with pytest.raises(ValueError, match="True"):
            multi_select(machine8, data, [True])
        s = sorted_oracle(data)
        assert multi_select(machine8, data, [np.int64(3), 10.0]) == [s[2], s[9]]

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_nan_inf_and_signed_zero_sort_like_numpy(self, backend, dtype):
        """NaN ranks last, as in ``np.sort``: it fails both pivot tests
        and so stays in the upper part at every level."""
        with Machine(p=3, seed=11, backend=backend) as m:
            data = DistArray(m, special_float_chunks(3, 1500, 11, dtype))
            s = sorted_oracle(data)
            n, finite = s.size, int(np.count_nonzero(~np.isnan(s)))
            ks = [1, 7, n // 3, finite, finite + 1, n - 1, n]
            got = np.array(multi_select(m, data, ks), dtype=dtype)
            assert np.array_equal(got, s[np.array(ks) - 1], equal_nan=True)

    def test_skewed_placement(self, machine8, rng):
        chunks = [rng.integers(0, 10**6, 5000)] + [np.empty(0, dtype=np.int64)] * 7
        data = DistArray(machine8, chunks)
        s = sorted_oracle(data)
        vals = multi_select(machine8, data, [1, 2500, 5000])
        assert vals == [s[0], s[2499], s[4999]]

    def test_shared_recursion_cheaper_than_independent(self, rng):
        """m shared ranks must beat m independent selections on local
        work: every element is partitioned once per shared level instead
        of once per rank (traffic is comparable since the deep segments
        dominate either way)."""
        from repro.selection import select_kth

        ks = [1000, 2000, 4000, 8000, 12000]
        m1 = Machine(p=8, seed=9)
        data1 = make_dist(m1, np.random.default_rng(5), 2000)
        m1.reset()
        multi_select(m1, data1, ks)
        shared = m1.clock.work_time.max()
        m2 = Machine(p=8, seed=9)
        data2 = make_dist(m2, np.random.default_rng(5), 2000)
        m2.reset()
        for k in ks:
            select_kth(m2, data2, k)
        independent = m2.clock.work_time.max()
        assert shared < independent


class TestPackedLevelMessage:
    @pytest.mark.parametrize("n_ranks", [1, 6, 26])
    def test_allgather_request_is_one_array_plus_sizes(self, monkeypatch, n_ranks):
        """However many segments a level holds, each rank's sample
        allgather carries one packed array and one list of ints."""
        from repro.machine.backends import base

        requests_seen: list = []
        reference = base.spmd_collective

        def spy(kind, requests):
            if kind == "allgather":
                requests_seen.append(list(requests))
            return reference(kind, requests)

        monkeypatch.setattr(base, "spmd_collective", spy)
        m = Machine(p=4, seed=17)
        data = make_dist(m, np.random.default_rng(3), 3000)
        s = sorted_oracle(data)
        # a lone rank sits mid-data: one at an end takes no allgather
        ks = ([s.size // 2] if n_ranks == 1 else
              sorted({int(k) for k in np.linspace(1, s.size, n_ranks)}))
        assert len(ks) == n_ranks
        assert multi_select(m, data, ks) == [s[k - 1] for k in ks]
        assert requests_seen
        most = 0
        for requests in requests_seen:
            widths = set()
            for kind, payload in requests:
                packed, sizes = payload
                assert type(packed) is np.ndarray and packed.ndim == 1
                assert type(sizes) is list
                assert all(type(size) is int for size in sizes)
                assert sum(sizes) == packed.size
                widths.add(len(sizes))
            assert len(widths) == 1  # one size per segment, on every rank
            most = max(most, widths.pop())
        assert (most > 1) == (n_ranks > 1)


class TestQuantiles:
    def test_median(self, machine8, rng):
        data = make_dist(machine8, rng, 1000)
        s = sorted_oracle(data)
        med = quantiles(machine8, data, [0.5])[0]
        assert med == s[int(np.ceil(0.5 * 8000)) - 1]

    def test_order_preserved(self, machine8, rng):
        data = make_dist(machine8, rng, 500)
        out = quantiles(machine8, data, [0.9, 0.1])
        assert out[0] >= out[1]

    def test_extremes(self, machine8, rng):
        data = make_dist(machine8, rng, 300)
        s = sorted_oracle(data)
        lo, hi = quantiles(machine8, data, [0.0, 1.0])
        assert lo == s[0] and hi == s[-1]

    def test_invalid_q(self, machine8, rng):
        data = make_dist(machine8, rng, 10)
        with pytest.raises(ValueError):
            quantiles(machine8, data, [1.5])

    @pytest.mark.parametrize("q, shown", [
        ("0.5", "'0.5'"), (True, "True"), (False, "False"), (np.True_, "True"),
        (float("nan"), "nan"),
    ])
    def test_q_must_be_a_number(self, machine8, rng, q, shown):
        """``True`` must not read as 1.0 (rank n), nor a string as its
        number."""
        data = make_dist(machine8, rng, 10)
        with pytest.raises(ValueError, match=shown):
            quantiles(machine8, data, [0.25, q])

    def test_empty_data(self, machine8):
        data = DistArray(machine8, [np.empty(0)] * 8)
        with pytest.raises(ValueError):
            quantiles(machine8, data, [0.5])
