"""Kernel registry + twin bit-identity tests.

Every registered kernel has a python reference and a native twin; the
dispatch contract says swapping modes may change wall-clock time, never
a result, a modeled cost, or an RNG stream position.  These tests pin
that contract without numba: the native twins run interpreted through
the :func:`repro.kernels.jit` shim, which exercises the identical
arithmetic the compiled path runs.
"""

import numpy as np
import pytest

from repro.kernels import (
    MODES,
    ArrayTreap,
    Kernel,
    compact,
    effective_mode,
    fingerprint32,
    get_mode,
    kernel,
    native_uniforms,
    numba_available,
    partition3,
    partition_count,
    partition_take,
    registered,
    set_mode,
    skip_sample_indices,
    spacesaving_offer,
    splitmix64_array,
    topk_count,
    topk_cut,
    treap_merge,
    use_mode,
    weighted_counts,
)
from repro.kernels.philox import is_philox, put_state, state_words
from repro.machine.ctrrng import philox_generator
from tests.support.pointer_treap import Treap


@pytest.fixture(autouse=True)
def _reset_mode():
    """Never leak an explicit mode override across tests."""
    set_mode(None)
    yield
    set_mode(None)


def rng_pair(seq=7):
    """Two generators at the same draw address (identical streams)."""
    return (
        philox_generator(0xC0FFEE, 0, 3, seq),
        philox_generator(0xC0FFEE, 0, 3, seq),
    )


# ----------------------------------------------------------------------
# Registry and mode selection
# ----------------------------------------------------------------------

class TestRegistry:
    def test_all_hot_loops_registered(self):
        assert set(registered()) == {
            "compact", "partition_count", "partition3",
            "topk_count", "topk_cut", "treap_merge",
            "spacesaving_offer", "fingerprint32", "splitmix64_array",
            "weighted_counts", "skip_sample_indices",
        }

    def test_every_kernel_has_a_native_twin(self):
        for name, k in registered().items():
            assert k.has_native, f"kernel {name!r} lacks a native twin"

    def test_set_mode_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "native")
        assert get_mode() == "native"
        set_mode("python")
        assert get_mode() == "python"
        set_mode(None)
        assert get_mode() == "native"

    def test_env_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        assert get_mode() == "auto"
        monkeypatch.setenv("REPRO_KERNELS", "bogus")
        assert get_mode() == "auto"

    def test_auto_resolves_on_numba_availability(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        expect = "native" if numba_available() else "python"
        assert effective_mode() == expect

    def test_explicit_modes_resolve_to_themselves(self):
        for mode in ("python", "native"):
            with use_mode(mode):
                assert effective_mode() == mode

    def test_set_mode_rejects_unknown(self):
        with pytest.raises(ValueError, match="kernels mode"):
            set_mode("turbo")
        assert "turbo" not in MODES

    def test_use_mode_restores_on_exit(self):
        set_mode("python")
        with use_mode("native"):
            assert get_mode() == "native"
        assert get_mode() == "python"

    def test_use_mode_restores_on_error(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        with pytest.raises(RuntimeError):
            with use_mode("native"):
                raise RuntimeError("boom")
        assert get_mode() == "auto"

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate kernel"):
            kernel("partition3")(lambda a: a)

    def test_dispatch_picks_the_twin_for_the_mode(self):
        k = Kernel("probe", lambda: "python")
        k.native(lambda: "native")
        with use_mode("python"):
            assert k() == "python"
        with use_mode("native"):
            assert k() == "native"

    def test_dispatch_without_twin_always_runs_python(self):
        k = Kernel("plain", lambda: "python")
        assert not k.has_native
        with use_mode("native"):
            assert k() == "python"


# ----------------------------------------------------------------------
# Philox state-word cores
# ----------------------------------------------------------------------

class TestPhilox:
    def test_native_uniforms_match_numpy_bit_for_bit(self):
        ref, native = rng_pair()
        want = ref.random(1000)
        got = native_uniforms(native, 1000)
        assert np.array_equal(want, got)

    def test_state_advances_identically(self):
        ref, native = rng_pair()
        ref.random(257)
        native_uniforms(native, 257)
        assert np.array_equal(ref.random(16), native.random(16))

    def test_mid_buffer_continuation(self):
        # 3 draws leave one word in the 4-word block; the native core
        # must consume it before generating the next block
        ref, native = rng_pair()
        ref.random(3)
        native.random(3)
        assert np.array_equal(ref.random(10), native_uniforms(native, 10))
        assert np.array_equal(ref.random(5), native.random(5))

    def test_interleaved_python_and_native_draws(self):
        ref, native = rng_pair()
        chunks = [1, 4, 7, 2, 9]
        for i, n in enumerate(chunks):
            want = ref.random(n)
            got = native_uniforms(native, n) if i % 2 else native.random(n)
            assert np.array_equal(want, got)

    def test_state_words_roundtrip(self):
        ref, native = rng_pair()
        k0, k1, c0, c1, c2, c3, buf, pos = state_words(native)
        put_state(native, c0, c1, c2, c3, buf, pos)
        assert np.array_equal(ref.random(8), native.random(8))

    def test_is_philox(self):
        assert is_philox(philox_generator(1, 0, 0, 0))
        assert not is_philox(np.random.default_rng(0))


# ----------------------------------------------------------------------
# Per-kernel twin bit-identity
# ----------------------------------------------------------------------

class TestTwinParity:
    def assert_twins_agree(self, k, *args_builders, equal_nan=False):
        """Run the reference and the native twin on identically built
        argument tuples and compare every returned array/scalar."""
        want = k.py(*args_builders[0]())
        got = k.native_fn(*args_builders[0]())
        if not isinstance(want, tuple):
            want, got = (want,), (got,)
        for w, g in zip(want, got):
            assert np.array_equal(np.asarray(w), np.asarray(g), equal_nan=equal_nan)

    def test_partition3(self):
        arr = np.random.default_rng(1).integers(0, 50, 10_000)
        for lo, hi in self.PIVOTS:
            self.assert_twins_agree(partition3, lambda: (arr, lo, hi))

    #: pivot pairs: inside, spanning, equal, above and below the data
    PIVOTS = [(10, 30), (0, 49), (25, 25), (60, 70), (-5, -1)]

    def test_partition_count_sizes_and_masks(self):
        arr = np.random.default_rng(1).integers(0, 50, 10_000)
        for lo, hi in self.PIVOTS:
            counts, masks = partition_count.py(arr, lo, hi)
            twin_counts, twin_masks = partition_count.native_fn(arr, lo, hi)
            assert counts == twin_counts
            for m, t in zip(masks, twin_masks):
                assert m.dtype == t.dtype == np.bool_ and np.array_equal(m, t)

    def test_compact_whole_truncated_and_into_out(self):
        arr = np.random.default_rng(6).integers(0, 50, 10_000)
        mask = arr < 20
        hits = int(mask.sum())
        for size in (hits, hits // 3, 0):
            self.assert_twins_agree(compact, lambda: (arr, mask, size))
            assert np.array_equal(compact.py(arr, mask, size), arr[mask][:size])
        outs = [np.full(hits + 2, -1), np.full(hits + 2, -1)]
        compact.py(arr, mask, hits, out=outs[0][1:-1])
        compact.native_fn(arr, mask, hits, out=outs[1][1:-1])
        assert np.array_equal(outs[0], outs[1]) and outs[0][0] == -1 == outs[0][-1]

    def test_partition_take_every_part_in_both_modes(self):
        arr = np.random.default_rng(1).integers(0, 50, 10_000)
        for lo, hi in self.PIVOTS:
            want = partition3.py(arr, lo, hi)
            for mode in ("python", "native"):
                with use_mode(mode):
                    (n_lo, n_mid), masks = partition_count(arr, lo, hi)
                    sizes = (n_lo, n_mid, arr.size - n_lo - n_mid)
                    for part, size in enumerate(sizes):
                        got = partition_take(arr, masks, part, size)
                        assert np.array_equal(got, want[part]), (mode, part)

    def test_partition_kernels_keep_nan_in_the_upper_part(self):
        arr = np.random.default_rng(5).normal(size=2_000)
        arr[::7] = np.nan
        nan = float("nan")
        for lo, hi in [(-0.5, 0.5), (0.0, 0.0), (0.0, nan), (nan, nan), (nan, 0.0)]:
            self.assert_twins_agree(
                partition3, lambda: (arr, lo, hi), equal_nan=True
            )
            counts, (below, upper) = partition_count.py(arr, lo, hi)
            twin_counts, twin_masks = partition_count.native_fn(arr, lo, hi)
            assert counts == twin_counts
            assert np.array_equal(below, twin_masks[0])
            assert np.array_equal(upper, twin_masks[1])
            assert upper[np.isnan(arr)].all() and not (below & upper).any()

    def test_topk_count(self):
        arr = np.random.default_rng(2).integers(0, 20, 5_000)
        for t in [0, 7, 19, 25]:
            self.assert_twins_agree(topk_count, lambda: (arr, t))

    def test_topk_cut_including_tie_clipping(self):
        arr = np.random.default_rng(3).integers(0, 20, 5_000)
        n_eq = int((arr == 7).sum())
        for keep in [0, 1, n_eq // 2, n_eq, n_eq + 100]:
            self.assert_twins_agree(topk_cut, lambda: (arr, 7, keep))

    def test_treap_merge_stable_on_ties(self):
        r = np.random.default_rng(4)

        def run():
            s_a = np.sort(r.integers(0, 10, 300).astype(np.float64))
            s_b = np.sort(r.integers(0, 10, 200).astype(np.float64))
            a_a = np.arange(300, dtype=np.int64)
            a_b = np.arange(200, dtype=np.int64)
            return (s_a, a_a, a_a.copy(), s_b, a_b, a_b.copy())

        args = run()
        self.assert_twins_agree(treap_merge, lambda: args)

    def test_treap_merge_placement_path_without_shared_scores(self):
        # no score of the second run occurs in the first, so the
        # reference places by searchsorted instead of lexsorting; the
        # second run repeats scores inside itself and reaches past both
        # ends of the first
        s_a = np.arange(0.0, 400.0, 2.0)
        s_b = np.sort(np.repeat(np.arange(-3.0, 405.0, 6.0), 3))
        a_a = np.zeros(s_a.size, dtype=np.int64)
        a_b = np.ones(s_b.size, dtype=np.int64)
        b_a = np.arange(s_a.size, dtype=np.int64)
        b_b = np.arange(s_b.size, dtype=np.int64)
        assert not np.intersect1d(s_a, s_b).size
        self.assert_twins_agree(treap_merge, lambda: (s_a, a_a, b_a, s_b, a_b, b_b))
        for empty_side in [(s_a[:0], a_a[:0], b_a[:0], s_b, a_b, b_b),
                           (s_a, a_a, b_a, s_b[:0], a_b[:0], b_b[:0])]:
            self.assert_twins_agree(treap_merge, lambda: empty_side)
        s, a, b = treap_merge.py(s_a, a_a, b_a, s_b, a_b, b_b)
        keys = list(zip(s.tolist(), a.tolist(), b.tolist()))
        assert keys == sorted(keys) and len(keys) == s_a.size + s_b.size

    def test_spacesaving_offer_with_evictions(self):
        r = np.random.default_rng(5)
        new_keys = r.integers(0, 40, 500).astype(np.int64)
        new_counts = r.integers(1, 9, 500).astype(np.int64)
        empty = np.empty(0, dtype=np.int64)
        self.assert_twins_agree(
            spacesaving_offer,
            lambda: (empty, empty, 16, 0, new_keys, new_counts),
        )

    def test_splitmix64_array(self):
        x = np.random.default_rng(6).integers(
            0, 2**63, 10_000, dtype=np.int64
        ).astype(np.uint64)
        self.assert_twins_agree(splitmix64_array, lambda: (x,))

    def test_fingerprint32(self):
        keys = np.random.default_rng(7).integers(0, 2**62, 10_000)
        for salt in [0, 0xDEADBEEF, 2**63 + 11]:
            self.assert_twins_agree(fingerprint32, lambda: (keys, salt))

    def test_weighted_counts_stream_and_result(self):
        values = np.random.default_rng(8).random(4_000) * 12.0
        ref, native = rng_pair()
        want = weighted_counts.py(ref, values, 3.0)
        got = weighted_counts.native_fn(native, values, 3.0)
        assert np.array_equal(want, got)
        # the native core advanced the generator exactly one uniform
        # per value, same as the reference
        assert np.array_equal(ref.random(32), native.random(32))

    def test_skip_sample_stream_and_result(self):
        ref, native = rng_pair(seq=11)
        want = skip_sample_indices.py(ref, 100_000, 0.01)
        got = skip_sample_indices.native_fn(native, 100_000, 0.01)
        assert np.array_equal(want, got)
        assert np.array_equal(ref.random(32), native.random(32))

    def test_rng_kernels_fall_back_for_non_philox(self):
        # PCG64 has no exposed counter form; the twin must detect it
        # and run the python reference rather than corrupt the stream
        values = np.linspace(0.0, 30.0, 500)
        want = weighted_counts.py(np.random.default_rng(42), values, 4.0)
        got = weighted_counts.native_fn(np.random.default_rng(42), values, 4.0)
        assert np.array_equal(want, got)
        want = skip_sample_indices.py(np.random.default_rng(43), 5_000, 0.05)
        got = skip_sample_indices.native_fn(np.random.default_rng(43), 5_000, 0.05)
        assert np.array_equal(want, got)


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
