"""Property-based tests: multi_select's end-block finish against numpy.

A segment larger than the base case whose ranks all lie within
``T = max(1, base_case // (2 ceil(log2 p)))`` of its bottom or its top
draws nothing: each PE's ``w_lo`` smallest and ``w_hi`` largest
elements ride the level's one all-reduction, merged keep-width, and the
ranks are read off the merged blocks.  These tests hold that finish to
``np.sort`` over empty PEs, PEs holding fewer elements than the width,
dtype extremes, NaN (largest, as in the recursion), +-inf, -0.0 and
ties across the cut, with ranks at ``T`` and ``T + 1`` from either end
-- and hold sim, mp and tcp to identical values, ``report()`` and
``_rng_seq`` on a sampled subset.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import DistArray, Machine
from repro.machine.backends import base
from repro.selection import multi_select

PS = (1, 2, 3, 4, 5, 8)
BASE = 64  # the default base case up to p = 256

#: values the comparisons treat specially, per dtype
SPECIALS = {
    np.int64: [-(2**63), 2**63 - 1, -1, 0, 1],
    np.uint64: [0, 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1],
    np.float64: [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1.5],
}


def _reach(p):
    return max(1, BASE // (2 * max(1, (p - 1).bit_length())))


def _chunks(p, n, cuts, spread, seed, dtype):
    """``n`` values in ``p`` chunks cut at ``cuts`` (repeats make empty
    PEs): a mix of ``dtype``'s special values and ``spread`` small
    ones, so ties straddle any cut."""
    rng = np.random.default_rng(seed)
    pool = np.array(SPECIALS[dtype] + list(range(2, 2 + spread)), dtype=dtype)
    values = pool[rng.integers(0, pool.size, n)]
    return np.split(values, sorted(cuts))


#: rank sets at, inside and just past the reach ``t`` of either end
SHAPES = {
    "rank_t": lambda n, t: [t],
    "rank_t_plus_1": lambda n, t: [t + 1],
    "top_t": lambda n, t: [n - t + 1],
    "top_t_plus_1": lambda n, t: [n - t],
    "first": lambda n, t: [1],
    "last": lambda n, t: [n],
    "bottom_block": lambda n, t: list(range(1, t + 1)),
    "top_block": lambda n, t: list(range(n - t + 1, n + 1)),
    "both_ends": lambda n, t: [1, t, n - t + 1, n],
    "both_past": lambda n, t: [t + 1, n - t],
    "ends_and_middle": lambda n, t: [1, n // 2 + 1, n],
}
#: the shapes whose every rank is within reach: one all-reduction
PURE = {"rank_t", "top_t", "first", "last", "bottom_block", "top_block",
        "both_ends"}


@st.composite
def cases(draw):
    p = draw(st.sampled_from(PS))
    n = draw(st.one_of(st.just(BASE + 1), st.integers(BASE + 1, 400)))
    if draw(st.booleans()):  # even: at p = 8 every PE holds under T
        cuts = [i * n // p for i in range(1, p)]
    else:
        cuts = draw(st.lists(st.integers(0, n), min_size=p - 1, max_size=p - 1))
    dtype = draw(st.sampled_from(sorted(SPECIALS, key=lambda t: t.__name__)))
    spread = draw(st.sampled_from([1, 4, 1000]))
    shape = draw(st.sampled_from(sorted(SHAPES)))
    seed = draw(st.integers(0, 2**16))
    return p, n, cuts, dtype, spread, shape, seed


def _kinds_of(m, data, ks):
    """multi_select's values and the kinds of collective it yielded."""
    kinds: list = []
    reference = base.spmd_collective

    def spy(kind, requests):
        kinds.append(kind)
        return reference(kind, requests)

    with mock.patch.object(base, "spmd_collective", spy):
        got = multi_select(m, data, ks)
    return got, kinds


@given(cases())
@settings(max_examples=120, deadline=None)
def test_end_ranks_match_numpy(case):
    p, n, cuts, dtype, spread, shape, seed = case
    chunks = _chunks(p, n, cuts, spread, seed, dtype)
    ks = SHAPES[shape](n, _reach(p))
    m = Machine(p=p, seed=seed)
    data = DistArray(m, chunks)
    got, kinds = _kinds_of(m, data, ks)
    want = np.sort(np.concatenate(chunks))[np.array(sorted(set(ks))) - 1]
    assert np.array_equal(np.array(got, dtype=dtype), want,
                          equal_nan=dtype is np.float64)
    if shape in PURE:  # one all-reduction, no sample allgather
        assert kinds == ["allreduce"]
    else:
        assert "allgather" in kinds
    assert m._rng_seq == 1  # the call's one draw address, drawn or not


def _model(machine):
    r = machine.report()
    return (r.makespan, r.work_time, r.comm_time, r.bottleneck_words,
            r.bottleneck_startups, r.total_traffic, r.imbalance)


def _sampled(p, count=4):
    """A fixed sample of cases at ``p``, one dtype each."""
    rng = np.random.default_rng(p)
    out = []
    for i, shape in enumerate(["top_block", "both_ends", "rank_t_plus_1",
                               "ends_and_middle"][:count]):
        n = int(rng.integers(BASE + 1, 3000))
        cuts = rng.integers(0, n, p - 1).tolist()
        dtype = sorted(SPECIALS, key=lambda t: t.__name__)[i % 3]
        out.append((n, cuts, dtype, [1, 4, 1000][i % 3], shape, int(rng.integers(1 << 16))))
    return out


@pytest.mark.parametrize("backend", ["mp", "tcp"])
@pytest.mark.parametrize("p", [3, 5])
def test_real_backends_equal_sim(backend, p):
    sim = Machine(p=p, seed=41)
    with Machine(p=p, seed=41, backend=backend) as real:
        for n, cuts, dtype, spread, shape, seed in _sampled(p):
            chunks = _chunks(p, n, cuts, spread, seed, dtype)
            ks = SHAPES[shape](n, _reach(p))
            got = []
            for m in (sim, real):
                data = DistArray(m, chunks)
                data._ensure_ref()
                m.reset()
                got.append((multi_select(m, data, ks), _model(m), m._rng_seq))
            (v_sim, model_sim, seq_sim), (v_real, model_real, seq_real) = got
            assert np.array_equal(np.array(v_real, dtype=dtype),
                                  np.array(v_sim, dtype=dtype),
                                  equal_nan=dtype is np.float64), shape
            assert model_real == model_sim, shape
            assert seq_real == seq_sim, shape
