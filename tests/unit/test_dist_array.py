"""Unit tests: DistArray (repro.machine.dist_array)."""

import numpy as np
import pytest

from repro.machine import DistArray, Machine


class TestConstruction:
    def test_from_global_splits_evenly(self, machine8):
        d = DistArray.from_global(machine8, np.arange(80))
        assert all(s == 10 for s in d.sizes())
        assert np.array_equal(d.concat(), np.arange(80))

    def test_from_global_uneven(self, machine8):
        d = DistArray.from_global(machine8, np.arange(83))
        assert d.global_size == 83
        assert d.sizes().max() - d.sizes().min() <= 1

    def test_generate_uses_per_pe_rngs(self, machine8):
        d = DistArray.generate(machine8, lambda r, g: g.random(10))
        # different PEs draw from different streams
        assert not np.allclose(d.chunks[0], d.chunks[1])

    def test_wrong_chunk_count(self, machine8):
        with pytest.raises(ValueError, match="one chunk per PE"):
            DistArray(machine8, [np.zeros(3)] * 7)

    def test_rejects_2d_chunks(self, machine8):
        with pytest.raises(ValueError, match="one-dimensional"):
            DistArray(machine8, [np.zeros((2, 2))] * 8)

    def test_empty_like(self, machine8):
        d = DistArray.from_global(machine8, np.arange(10, dtype=np.int32))
        e = DistArray.empty_like(d)
        assert e.global_size == 0
        assert e.dtype == np.int32


class TestOps:
    def test_len_matches_global_size(self, machine8):
        d = DistArray.from_global(machine8, np.arange(40))
        assert len(d) == 40

    def test_map_chunks_charges_work(self, machine8):
        d = DistArray.from_global(machine8, np.arange(40))
        out = d.map_chunks(lambda r, c: c * 2)
        assert np.array_equal(out.concat(), np.arange(40) * 2)
        assert machine8.clock.makespan > 0

    def test_sort_local_sorts_each_chunk(self, machine8):
        d = DistArray.generate(machine8, lambda r, g: g.integers(0, 100, 20))
        s = d.sort_local()
        for c in s.chunks:
            assert np.all(np.diff(c) >= 0)


@pytest.mark.parametrize("backend", ["sim", "mp"])
def test_dtype_comes_from_the_first_non_empty_chunk(backend):
    """An empty int64 chunk in front says nothing about uint64 keys at
    or above 2**63: the constructor, the read-back, ``map_chunks`` and
    ``generate`` all take the data's dtype, and the exact top-k of both
    layouts is the same uint64 answer."""
    from repro.frequent import top_k_frequent_exact

    big = (2**63 + np.arange(4, dtype=np.uint64)).repeat([4, 3, 2, 1])
    empty = np.empty(0, dtype=np.int64)
    want = tuple((2**63 + j, float(4 - j)) for j in range(3))
    with Machine(p=2, seed=3, backend=backend) as m:
        for chunks in ([empty, big], [big, empty]):
            data = DistArray(m, chunks, resident=True)
            assert data.dtype == np.uint64
            assert top_k_frequent_exact(m, data, 3).items == want
            assert data.map_chunks(lambda r, c: c + np.uint64(1)).dtype == np.uint64
            fresh = DistArray(m, ref=data._ref, sizes=data.sizes(), dtype=np.int64)
            assert fresh.chunks[0].size + fresh.chunks[1].size == big.size
            assert fresh.dtype == np.uint64
        made = DistArray.generate(
            m, lambda r, g: big if r else np.empty(0, dtype=np.int64))
        assert made.dtype == np.uint64
        assert top_k_frequent_exact(m, made, 3).items == want
