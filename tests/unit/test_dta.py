"""Unit tests: DTA, arbitrary data distribution (repro.topk.dta)."""

import numpy as np
import pytest

from repro.machine import Machine
from repro.machine.ctrrng import DrawAddress
from repro.topk import (
    SumScore,
    WeightedSum,
    build_distributed_index,
    dta_prefixes,
    dta_topk,
    global_topk_oracle,
    ta_topk,
)
from repro.topk.dta import _estimate_hits_gen, _hits
from repro.topk.index import LocalIndex


@pytest.fixture
def rng():
    return np.random.default_rng(53)


def make_indexes(machine, rng, n, m, placement="random"):
    ids = np.arange(n)
    scores = rng.random((n, m))
    if placement == "random":
        order = rng.permutation(n)
    elif placement == "adversarial":
        order = np.argsort(-scores.sum(axis=1), kind="stable")
    else:
        order = np.arange(n)
    parts = np.array_split(order, machine.p)
    return (
        build_distributed_index(
            machine, [ids[pt] for pt in parts], [scores[pt] for pt in parts]
        ),
        ids,
        scores,
    )


class TestDtaPrefixes:
    def test_threshold_below_kth_relevance(self, machine8, rng):
        idx, ids, scores = make_indexes(machine8, rng, 1500, 3)
        scorer = SumScore(3)
        pre = dta_prefixes(machine8, idx, scorer, 20)
        oracle = global_topk_oracle(idx, scorer, 20)
        # whp the threshold admits at least the top-k
        assert pre.tmin <= oracle[0][1]

    def test_prefix_sizes_consistent(self, machine8, rng):
        idx, *_ = make_indexes(machine8, rng, 800, 2)
        pre = dta_prefixes(machine8, idx, SumScore(2), 10)
        for i, ix in enumerate(idx):
            for c in range(2):
                assert 0 <= pre.prefix_sizes[i][c] <= ix.n

    def test_hit_estimate_positive(self, machine8, rng):
        idx, *_ = make_indexes(machine8, rng, 800, 2)
        pre = dta_prefixes(machine8, idx, SumScore(2), 10)
        assert pre.hit_estimate > 0

    def test_exponential_search_grows_k(self, machine8, rng):
        idx, *_ = make_indexes(machine8, rng, 2000, 3)
        pre = dta_prefixes(machine8, idx, SumScore(3), 64)
        assert pre.scanned >= max(1, 64 // (3 * 8))
        assert pre.rounds >= 1


class TestDtaTopk:
    def test_random_placement(self, machine, rng):
        idx, *_ = make_indexes(machine, rng, 900, 3)
        scorer = SumScore(3)
        res = dta_topk(machine, idx, scorer, 15)
        assert list(res.items) == global_topk_oracle(idx, scorer, 15)

    def test_adversarial_placement(self, machine8, rng):
        idx, *_ = make_indexes(machine8, rng, 900, 3, placement="adversarial")
        scorer = SumScore(3)
        res = dta_topk(machine8, idx, scorer, 15)
        assert list(res.items) == global_topk_oracle(idx, scorer, 15)

    def test_weighted_scorer(self, machine8, rng):
        idx, *_ = make_indexes(machine8, rng, 700, 3)
        scorer = WeightedSum((0.6, 0.3, 0.1))
        res = dta_topk(machine8, idx, scorer, 12)
        assert list(res.items) == global_topk_oracle(idx, scorer, 12)

    def test_contains_sequential_ta_result(self, machine8, rng):
        """Theorem 6: DTA's output region covers what TA would scan."""
        idx, ids, scores = make_indexes(machine8, rng, 1000, 2)
        scorer = SumScore(2)
        merged = LocalIndex(ids, scores)
        seq = ta_topk(merged, scorer, 10)
        res = dta_topk(machine8, idx, scorer, 10)
        assert {o for o, _ in seq.items} == {o for o, _ in res.items}

    def test_k_equals_n(self, machine8, rng):
        idx, *_ = make_indexes(machine8, rng, 64, 2)
        res = dta_topk(machine8, idx, SumScore(2), 64)
        assert len(res.items) == 64

    def test_single_criterion(self, machine8, rng):
        idx, *_ = make_indexes(machine8, rng, 500, 1)
        scorer = SumScore(1)
        res = dta_topk(machine8, idx, scorer, 8)
        assert list(res.items) == global_topk_oracle(idx, scorer, 8)

    def test_threshold_ties_grant_exactly_k(self, machine8, rng):
        """Relevances on a coarse grid tie across the cut: exactly k
        objects win, with the oracle's relevances."""
        ids = np.arange(600)
        scores = np.round(rng.random((600, 2)), 1)
        parts = np.array_split(rng.permutation(600), machine8.p)
        idx = build_distributed_index(
            machine8, [ids[pt] for pt in parts], [scores[pt] for pt in parts])
        res = dta_topk(machine8, idx, SumScore(2), 25)
        oracle = global_topk_oracle(idx, SumScore(2), 25)
        assert len({o for o, _ in res.items}) == 25
        assert [r for _, r in res.items] == [r for _, r in oracle]

    def test_invalid_k(self, machine8, rng):
        idx, *_ = make_indexes(machine8, rng, 50, 2)
        with pytest.raises(ValueError):
            dta_topk(machine8, idx, SumScore(2), 0)

    def test_sublinear_communication(self, rng):
        """The coordination volume must be far below the input size."""
        m = Machine(p=16, seed=6)
        idx, *_ = make_indexes(m, rng, 4000, 3)
        m.reset()
        dta_topk(m, idx, SumScore(3), 16)
        assert m.metrics.bottleneck_words < 4000 / 4


def _drive(piece):
    """Run an SPMD piece as the only PE: an all-reduction returns its
    own payload."""
    try:
        request = next(piece)
        while True:
            request = piece.send(request[1])
    except StopIteration as stop:
        return stop.value


class TestVectorizedPieces:
    """The estimator and the hit scan against the per-row loops they
    replaced: the same draws, sums and relevances, bit for bit."""

    def test_estimator_equals_the_row_loop(self, rng):
        ix = LocalIndex(np.arange(300), rng.random((300, 3)))
        scorer, cuts, tmin, y = SumScore(3), (40, 0, 75), 1.6, 24
        addr = DrawAddress(11, 3)
        got = _drive(_estimate_hits_gen(0, ix, scorer, cuts, tmin, y, addr, []))
        gen = addr.local(0)
        prefix = [set(ix.prefix_rows(c, size).tolist()) for c, size in enumerate(cuts)]
        want = 0.0
        for c, size in enumerate(cuts):
            if size == 0:
                continue
            rows = ix.prefix_rows(c, size)
            rejected = hits = 0
            for t in gen.integers(0, size, size=y):
                row = int(rows[t])
                if any(row in prefix[j] for j in range(c)):
                    rejected += 1
                elif scorer(ix.scores[row]) >= tmin:
                    hits += 1
            want += size * (1.0 - rejected / y) * (hits / y)
        assert got == want > 0

    def test_hit_scan_equals_the_row_loop(self, rng):
        ix = LocalIndex(np.arange(300) * 7, rng.random((300, 3)))
        scorer, cuts, tmin = WeightedSum((0.5, 0.3, 0.2)), (60, 10, 90), 0.55
        ids, rel = _hits(ix, scorer, tmin, cuts, [])
        rows = set()
        for c, size in enumerate(cuts):
            rows.update(ix.prefix_rows(c, size).tolist())
        want = {(int(ix.ids[r]), scorer(ix.scores[r])) for r in rows
                if scorer(ix.scores[r]) >= tmin}
        assert len(ids) == len(want) > 0
        assert set(zip(ids.tolist(), rel.tolist())) == want
