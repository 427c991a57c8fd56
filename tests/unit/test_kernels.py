"""Kernel tests: every kernel in :mod:`repro.kernels` against an
independent oracle.

A kernel has one numpy body, so there is no second implementation of it
to agree with; what the tests pin is what callers rely on -- parts,
cuts and merges equal to plain numpy / ``sorted`` oracles,
``spacesaving_offer`` equal to the per-key ``SpaceSaving.offer`` policy,
``fingerprint32`` equal to the scalar fingerprint, and the RNG kernels'
exact stream positions (the inverse-CDF kernel's values are held to
``searchsorted`` in ``tests/property/test_inverse_cdf_differential.py``).
"""

import inspect
import math

import numpy as np
import pytest

from repro import kernels
from repro.common.hashing import splitmix64
from repro.frequent import SpaceSaving
from repro.kernels import (
    ArrayTreap,
    compact,
    fingerprint32,
    guide_table,
    inverse_cdf_sample,
    partition3,
    partition_count,
    partition_take,
    skip_sample_indices,
    spacesaving_offer,
    splitmix64_array,
    topk_count,
    topk_cut,
    treap_merge,
    weighted_counts,
)
from repro.machine.ctrrng import philox_generator
from tests.support import partition_oracle as oracle
from tests.support.fingerprint import fingerprint
from tests.support.pointer_treap import Treap


def rng_pair(seq=7):
    """Two generators at the same draw address (identical streams)."""
    return (
        philox_generator(0xC0FFEE, 0, 3, seq),
        philox_generator(0xC0FFEE, 0, 3, seq),
    )


def same_state(a, b):
    """Bit-generator states equal (Philox's hold arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def same_parts(got, want):
    return len(got) == len(want) and all(
        g.dtype == w.dtype and np.array_equal(g, w, equal_nan=g.dtype.kind == "f")
        for g, w in zip(got, want)
    )


# ----------------------------------------------------------------------
# What the frozen benchmark imports
# ----------------------------------------------------------------------

class TestFixedPoints:
    #: name -> parameters, as ``benchmarks/ledger/layers.py`` calls them
    SIGNATURES = {
        "partition3": ["arr", "lo", "hi"],
        "topk_count": ["arr", "threshold"],
        "topk_cut": ["arr", "threshold", "keep_eq"],
        "splitmix64_array": ["x"],
        "treap_merge": ["s_a", "a_a", "b_a", "s_b", "a_b", "b_b"],
        "spacesaving_offer": ["keys", "counts", "capacity", "max_evicted",
                              "new_keys", "new_counts"],
        "weighted_counts": ["rng", "values", "v_avg"],
        "skip_sample_indices": ["rng", "n", "rho"],
    }

    @pytest.mark.parametrize("name", sorted(SIGNATURES))
    def test_kernel_is_a_plain_function_with_its_signature(self, name):
        fn = getattr(kernels, name)
        assert inspect.isfunction(fn)
        assert list(inspect.signature(fn).parameters) == self.SIGNATURES[name]

    def test_array_treap_takes_an_optional_generator(self):
        assert inspect.isclass(kernels.ArrayTreap)
        params = inspect.signature(kernels.ArrayTreap).parameters
        assert list(params) == ["rng"] and params["rng"].default is None

    def test_provenance_probes(self):
        assert kernels.effective_mode() == "python"
        assert isinstance(kernels.numba_available(), bool)


# ----------------------------------------------------------------------
# Partition and top-k cut against the three-mask oracle
# ----------------------------------------------------------------------

class TestPartition:
    #: pivot pairs: inside, spanning, equal, above and below the data
    PIVOTS = [(10, 30), (0, 49), (25, 25), (60, 70), (-5, -1)]

    def test_partition3(self):
        arr = np.random.default_rng(1).integers(0, 50, 10_000)
        for lo, hi in self.PIVOTS:
            assert same_parts(partition3(arr, lo, hi), oracle.partition3(arr, lo, hi))

    def test_partition_count_sizes_and_masks(self):
        arr = np.random.default_rng(1).integers(0, 50, 10_000)
        for lo, hi in self.PIVOTS:
            (n_lo, n_mid), (below, upper) = partition_count(arr, lo, hi)
            want = oracle.partition3(arr, lo, hi)
            assert (n_lo, n_mid) == (want[0].size, want[1].size)
            assert below.dtype == upper.dtype == np.bool_
            assert np.array_equal(below, arr < lo)
            assert np.array_equal(upper, arr > hi)

    def test_compact_whole_truncated_and_into_out(self):
        arr = np.random.default_rng(6).integers(0, 50, 10_000)
        mask = arr < 20
        hits = int(mask.sum())
        for size in (hits, hits // 3, 0):
            assert np.array_equal(compact(arr, mask, size), arr[mask][:size])
        out = np.full(hits + 2, -1)
        compact(arr, mask, hits, out=out[1:-1])
        assert np.array_equal(out[1:-1], arr[mask]) and out[0] == -1 == out[-1]

    def test_partition_take_every_part(self):
        arr = np.random.default_rng(1).integers(0, 50, 10_000)
        for lo, hi in self.PIVOTS:
            want = oracle.partition3(arr, lo, hi)
            (n_lo, n_mid), masks = partition_count(arr, lo, hi)
            sizes = (n_lo, n_mid, arr.size - n_lo - n_mid)
            for part, size in enumerate(sizes):
                assert np.array_equal(partition_take(arr, masks, part, size), want[part])

    def test_partition_kernels_keep_nan_in_the_upper_part(self):
        arr = np.random.default_rng(5).normal(size=2_000)
        arr[::7] = np.nan
        nan = float("nan")
        for lo, hi in [(-0.5, 0.5), (0.0, 0.0), (0.0, nan), (nan, nan)]:
            assert same_parts(partition3(arr, lo, hi), oracle.partition3(arr, lo, hi))
            _, (below, upper) = partition_count(arr, lo, hi)
            assert upper[np.isnan(arr)].all() and not (below & upper).any()

    def test_topk_count(self):
        arr = np.random.default_rng(2).integers(0, 20, 5_000)
        for t in [0, 7, 19, 25]:
            assert topk_count(arr, t) == (int((arr < t).sum()), int((arr == t).sum()))

    def test_topk_cut_including_tie_clipping(self):
        arr = np.random.default_rng(3).integers(0, 20, 5_000)
        n_eq = int((arr == 7).sum())
        for keep in [0, 1, n_eq // 2, n_eq, n_eq + 100]:
            assert np.array_equal(topk_cut(arr, 7, keep), oracle.topk_cut(arr, 7, keep))

    def test_empty_input(self):
        # a PE whose slice ran dry still takes part in every level
        arr = np.empty(0, dtype=np.int64)
        assert same_parts(partition3(arr, 1, 2), (arr, arr, arr))
        (n_lo, n_mid), (below, upper) = partition_count(arr, 1, 2)
        assert (n_lo, n_mid) == (0, 0) and below.size == upper.size == 0
        assert same_parts([compact(arr, below, 0)], [arr])
        assert topk_count(arr, 1) == (0, 0)
        assert same_parts([topk_cut(arr, 1, 5)], [arr])

    def test_parts_keep_the_input_dtype(self):
        base = np.random.default_rng(4).integers(0, 50, 3_000)
        for dtype in (np.int32, np.int64, np.uint64, np.float32, np.float64):
            arr = base.astype(dtype)
            lo, hi = dtype(10), dtype(30)
            assert same_parts(partition3(arr, lo, hi), oracle.partition3(arr, lo, hi)), dtype
            assert topk_cut(arr, lo, 3).dtype == dtype


# ----------------------------------------------------------------------
# Merge, counters, hashing
# ----------------------------------------------------------------------

def merged_keys(cols):
    return list(zip(*(c.tolist() for c in cols)))


class TestTreapMerge:
    def test_shared_scores_take_the_tie_path(self):
        r = np.random.default_rng(4)
        s_a = np.sort(r.integers(0, 10, 300).astype(np.float64))
        s_b = np.sort(r.integers(0, 10, 200).astype(np.float64))
        a = (s_a, np.zeros(300, dtype=np.int64), np.arange(300, dtype=np.int64))
        b = (s_b, np.zeros(200, dtype=np.int64), np.arange(200, dtype=np.int64))
        got = treap_merge(*a, *b)
        assert [c.dtype for c in got] == [np.float64, np.int64, np.int64]
        assert merged_keys(got) == sorted(merged_keys(a) + merged_keys(b))

    def test_placement_path_without_shared_scores(self):
        # no score of the second run occurs in the first, so the merge
        # places by searchsorted instead of lexsorting; the second run
        # repeats scores inside itself and reaches past both ends of the
        # first
        s_a = np.arange(0.0, 400.0, 2.0)
        s_b = np.sort(np.repeat(np.arange(-3.0, 405.0, 6.0), 3))
        a = (s_a, np.zeros(s_a.size, dtype=np.int64), np.arange(s_a.size, dtype=np.int64))
        b = (s_b, np.ones(s_b.size, dtype=np.int64), np.arange(s_b.size, dtype=np.int64))
        assert not np.intersect1d(s_a, s_b).size
        for x, y in [(a, b), (tuple(c[:0] for c in a), b), (a, tuple(c[:0] for c in b))]:
            got = treap_merge(*x, *y)
            assert merged_keys(got) == sorted(merged_keys(x) + merged_keys(y))

    def test_both_runs_empty(self):
        empty = (np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        got = treap_merge(*empty, *empty)
        assert [c.dtype for c in got] == [np.float64, np.int64, np.int64]
        assert all(c.size == 0 for c in got)


class TestSpaceSavingOffer:
    def test_batch_equals_the_per_key_policy_under_evictions(self):
        r = np.random.default_rng(5)
        batch, per_key = SpaceSaving(16), SpaceSaving(16)
        for _ in range(3):
            keys = r.integers(0, 40, 500)
            batch.offer_array(keys)
            for key, c in zip(*np.unique(keys, return_counts=True)):
                per_key.offer(int(key), int(c))
            assert list(batch.counters.items()) == list(per_key.counters.items())
            assert (batch.n, batch.max_evicted) == (per_key.n, per_key.max_evicted)
        assert per_key.max_evicted > 0  # evictions happened

    def test_exact_counts_below_capacity(self):
        keys = np.random.default_rng(6).integers(0, 12, 1_000)
        summary = SpaceSaving(16)
        summary.offer_array(keys)
        uniq, counts = np.unique(keys, return_counts=True)
        assert dict(summary.counters) == dict(zip(uniq.tolist(), counts.tolist()))
        assert (summary.n, summary.max_evicted) == (keys.size, 0)

    def test_no_offers_return_the_summary_unchanged(self):
        keys, counts = np.array([5, 2, 9]), np.array([3, 1, 4])
        none = np.empty(0, dtype=np.int64)
        out_keys, out_counts, max_evicted = spacesaving_offer(keys, counts, 3, 2, none, none)
        assert out_keys.tolist() == [5, 2, 9] and out_counts.tolist() == [3, 1, 4]
        assert out_keys.dtype == out_counts.dtype == np.int64 and max_evicted == 2


class TestHashing:
    def test_splitmix64_array_known_answers(self):
        # splitmix64's published first output for state 0, and two more
        x = np.array([0, 1, 2**64 - 1], dtype=np.uint64)
        assert splitmix64_array(x).tolist() == [
            0xE220A8397B1DCDAF, 0x910A2DEC89025CC1, 0xE4D971771B652C20,
        ]

    def test_splitmix64_array_matches_the_scalar_finalizer(self):
        x = np.random.default_rng(6).integers(0, 2**64, 2_000, dtype=np.uint64)
        got = splitmix64_array(x)
        assert got.dtype == np.uint64
        assert got.tolist() == [splitmix64(int(v)) for v in x]

    def test_fingerprint32_matches_the_scalar_oracle(self):
        keys = np.random.default_rng(7).integers(-(2**63), 2**63 - 1, 2_000)
        keys[:4] = [-1, 0, -(2**63), 2**63 - 1]
        for salt in [0, 0xDEADBEEF, 2**63, 2**63 + 11, 2**64 - 1]:
            got = fingerprint32(keys, salt)
            assert got.dtype == np.int64
            assert got.tolist() == [fingerprint(int(k), salt) for k in keys]


# ----------------------------------------------------------------------
# RNG kernels: results and stream positions
# ----------------------------------------------------------------------

class TestRngKernels:
    def test_weighted_counts_draws_one_uniform_per_value(self):
        values = np.random.default_rng(8).random(4_000) * 12.0
        rng, twin = rng_pair()
        got = weighted_counts(rng, values, 3.0)
        u = twin.random(values.size)
        scaled = values / 3.0
        assert np.array_equal(got, (np.floor(scaled) + (u < scaled - np.floor(scaled))).astype(np.int64))
        assert np.array_equal(rng.random(32), twin.random(32))

    def test_skip_sample_draws_one_uniform_per_gap_and_one_past_n(self):
        n, rho = 100_000, 0.01
        rng, twin = rng_pair(seq=11)
        got = skip_sample_indices(rng, n, rho)
        u = twin.random(got.size + 1)
        at = np.cumsum([math.floor(math.log1p(-x) / math.log1p(-rho)) + 1 for x in u]) - 1
        assert np.array_equal(got, at[:-1]) and at[-1] >= n
        assert np.array_equal(rng.random(32), twin.random(32))

    def test_weighted_counts_on_integral_ratios_ignore_the_draws(self):
        values = np.array([0.0, 3.0, 6.0, 30.0])
        rng, twin = rng_pair(seq=12)
        assert weighted_counts(rng, values, 3.0).tolist() == [0, 1, 2, 10]
        twin.random(values.size)
        assert np.array_equal(rng.random(8), twin.random(8))

    def test_skip_sample_over_an_empty_range_draws_one_uniform(self):
        rng, twin = rng_pair(seq=13)
        got = skip_sample_indices(rng, 0, 0.5)
        assert got.dtype == np.int64 and got.size == 0
        twin.random()
        assert np.array_equal(rng.random(8), twin.random(8))

    @pytest.mark.parametrize("guided", [False, True])
    @pytest.mark.parametrize("size", [0, 1, 3 * (1 << 16) + 5])
    def test_inverse_cdf_draws_leave_the_stream_where_one_block_does(self, guided, size):
        """Slabbed draws end where ``rng.random(size)`` ends, on a
        counter-addressed stream and on PCG64 alike."""
        cdf = np.cumsum(np.arange(1, 1001, dtype=np.float64) ** -1.1)
        cdf /= cdf[-1]
        guide = guide_table(cdf) if guided else None
        for rng, twin in (rng_pair(seq=14), (np.random.default_rng(14), np.random.default_rng(14))):
            got = inverse_cdf_sample(rng, cdf, size, guide)
            want = np.searchsorted(cdf, twin.random(size), side="right") + 1
            assert got.dtype == np.int64 and np.array_equal(got, want)
            assert same_state(rng.bit_generator.state, twin.bit_generator.state)


# ----------------------------------------------------------------------
# ArrayTreap vs the pointer Treap
# ----------------------------------------------------------------------

class TestArrayTreapParity:
    def build_pair(self):
        r_ptr, r_arr = rng_pair(seq=21)
        return Treap(r_ptr), ArrayTreap(r_arr), r_ptr, r_arr

    def test_same_observable_surface(self):
        ptr, arr, _, _ = self.build_pair()
        scores = np.random.default_rng(9).integers(0, 30, 200) / 4.0
        ptr.insert_batch(scores, rank=2, first_uid=100)
        arr.insert_batch(scores, rank=2, first_uid=100)
        assert len(ptr) == len(arr)
        assert ptr.min() == arr.min()
        assert ptr.max() == arr.max()
        assert ptr.to_list() == arr.to_list()
        for i in [0, 1, 99, 199]:
            assert ptr.select(i) == arr.select(i)
        for key in [(2.5, (0, 0)), (7.25, (2, 150)), (100.0, (9, 9))]:
            assert ptr.rank(key) == arr.rank(key)
            assert ptr.count_le(key) == arr.count_le(key)
        assert ptr.access_cost() == arr.access_cost()
        assert ptr.access_cost(16) == arr.access_cost(16)
        arr.check_invariants()

    def test_split_at_rank_matches(self):
        ptr, arr, _, _ = self.build_pair()
        scores = np.random.default_rng(10).random(150)
        ptr.insert_batch(scores, rank=0, first_uid=0)
        arr.insert_batch(scores, rank=0, first_uid=0)
        p_out = ptr.split_at_rank(40)
        a_out = arr.split_at_rank(40)
        assert p_out.to_list() == a_out.to_list()
        assert ptr.to_list() == arr.to_list()

    def test_split_at_key_matches(self):
        ptr, arr, _, _ = self.build_pair()
        scores = np.random.default_rng(11).integers(0, 12, 120).astype(float)
        ptr.insert_batch(scores, rank=1, first_uid=500)
        arr.insert_batch(scores, rank=1, first_uid=500)
        cut = (6.0, (10**9, 10**9))
        assert ptr.split_at_key(cut).to_list() == arr.split_at_key(cut).to_list()
        assert ptr.to_list() == arr.to_list()

    def test_array_tree_draws_nothing(self):
        # a sorted array has no shape to randomise: the generator the
        # constructor is handed (the frozen probes' call shape) is left
        # exactly where it was, whatever is inserted
        _, arr, _, r_arr = self.build_pair()
        _, untouched = rng_pair(seq=21)
        arr.insert_batch([3.0, 1.0, 2.0], rank=0, first_uid=0)
        arr.insert((0.5, (1, 7)))
        arr.insert_many([(9.0, (2, 1)), (8.0, (2, 2))])
        assert arr.to_list()[0] == (0.5, (1, 7)) and len(arr) == 6
        assert np.array_equal(untouched.random(8), r_arr.random(8))

    def test_empty_tree_raises_like_treap(self):
        _, arr, _, _ = self.build_pair()
        with pytest.raises(IndexError):
            arr.min()
        with pytest.raises(IndexError):
            arr.select(0)
        with pytest.raises(ValueError):
            arr.split_at_rank(-1)
