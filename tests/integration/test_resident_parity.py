"""Integration: resident-SPMD execution is bit-identical across every
backend with unchanged modeled cost.

Covers the subsystems converted to resident-chunk SPMD execution after
the selection/frequent pipelines: multiselection (and quantiles), data
redistribution, both bulk priority queues, sum aggregation and heavy
hitters.  Each test builds a sim
machine and a *real* machine (``mp`` or ``tcp`` -- both run the shared
worker runtime, over pipes and sockets respectively) from the same
seed, runs the same workload, and demands identical outputs *and*
identical modeled quantities (makespan, bottleneck volume/startups) --
the acceptance bar of the conversion and of the transport split.

The parameter grid includes a non-power-of-two p so the in-worker
schedules' general-p paths are exercised end to end; the socket
transport runs at p in {1, 2, 4, 5} (same runtime, so the p=8
mesh-heavy case stays with the cheaper pipe transport).
"""

import time

import numpy as np
import pytest

from repro.aggregation import DistKeyValue, top_k_sums_ec
from repro.bench.workloads import zipf_keys_workload
from repro.frequent import heavy_hitters
from repro.machine import DistArray, Machine
from repro.pqueue import BulkParallelPQ, RandomAllocPQ
from repro.redistribution import naive_rebalance, redistribute
from repro.selection import multi_select, quantiles, select_topk_smallest
from repro.testing import make_dist, sorted_oracle

MP_PS = [1, 2, 4, 5, 8]
TCP_PS = [1, 2, 4, 5]

#: (real backend, p) pairs every parity test runs on
GRID = [pytest.param("mp", p, id=f"mp-p{p}") for p in MP_PS] + [
    pytest.param("tcp", p, id=f"tcp-p{p}") for p in TCP_PS
]


def _machines(backend, p, seed):
    return Machine(p=p, seed=seed), Machine(p=p, seed=seed, backend=backend)


def _assert_model_equal(sim, real):
    assert sim.clock.makespan == real.clock.makespan
    assert sim.metrics.bottleneck_words == real.metrics.bottleneck_words
    assert sim.metrics.bottleneck_startups == real.metrics.bottleneck_startups


@pytest.mark.parametrize("backend,p", GRID)
class TestMultiSelectParity:
    def test_multi_select_bit_identical_and_cost_equal(self, backend, p):
        sim, real = _machines(backend, p, seed=41)
        with real:
            rng = np.random.default_rng(5)
            d_sim = make_dist(sim, np.random.default_rng(5), 700)
            d_real = make_dist(real, np.random.default_rng(5), 700)
            n = d_sim.global_size
            ks = [1, 13, n // 3, n // 2, n]
            sim.reset(), real.reset()
            v_sim = multi_select(sim, d_sim, ks)
            v_real = multi_select(real, d_real, ks)
        assert v_sim == v_real
        s = sorted_oracle(d_sim)
        assert v_sim == [s[k - 1] for k in sorted(set(ks))]
        _assert_model_equal(sim, real)

    def test_quantiles(self, backend, p):
        sim, real = _machines(backend, p, seed=42)
        with real:
            d_sim = make_dist(sim, np.random.default_rng(6), 300)
            d_real = make_dist(real, np.random.default_rng(6), 300)
            qs = [0.0, 0.25, 0.5, 0.9, 1.0]
            assert quantiles(sim, d_sim, qs) == quantiles(real, d_real, qs)


@pytest.mark.parametrize("backend,p", GRID)
class TestRedistributionParity:
    def _skewed(self, machine, seed):
        rng = np.random.default_rng(seed)
        sizes = [400] + [7] * (machine.p - 1)
        return DistArray(
            machine,
            [rng.integers(0, 10**6, s).astype(np.int64) for s in sizes],
        )

    def test_redistribute_bit_identical_and_cost_equal(self, backend, p):
        sim, real = _machines(backend, p, seed=43)
        with real:
            d_sim, d_real = self._skewed(sim, 7), self._skewed(real, 7)
            sim.reset(), real.reset()
            o_sim, s_sim = redistribute(sim, d_sim)
            o_real, s_real = redistribute(real, d_real)
            assert s_sim == s_real
            for a, b in zip(o_sim.chunks, o_real.chunks):
                np.testing.assert_array_equal(a, b)
            n_bar = -(-o_sim.global_size // p)
            assert all(s <= n_bar for s in o_sim.sizes())
            _assert_model_equal(sim, real)

    def test_naive_rebalance(self, backend, p):
        sim, real = _machines(backend, p, seed=44)
        with real:
            d_sim, d_real = self._skewed(sim, 8), self._skewed(real, 8)
            o_sim, m_sim = naive_rebalance(sim, d_sim)
            o_real, m_real = naive_rebalance(real, d_real)
            assert m_sim == m_real
            for a, b in zip(o_sim.chunks, o_real.chunks):
                np.testing.assert_array_equal(a, b)
            _assert_model_equal(sim, real)

    def test_balanced_input_shares_the_resident_chunks(self, backend, p):
        """No plan -> no worker exchange; the result aliases the input's
        resident handle instead of copying it."""
        sim, real = _machines(backend, p, seed=45)
        with real:
            rng = np.random.default_rng(9)
            mk = lambda m: DistArray(
                m, [rng.integers(0, 100, 20) for _ in range(p)]
            )
            rng = np.random.default_rng(9)
            d_sim = mk(sim)
            rng = np.random.default_rng(9)
            d_real = mk(real)
            o_sim, s_sim = redistribute(sim, d_sim)
            o_real, s_real = redistribute(real, d_real)
            assert s_sim.moved == s_real.moved == 0
            assert o_real._ref is d_real._ensure_ref()


@pytest.mark.parametrize("backend,p", GRID)
class TestPriorityQueueParity:
    def test_bulk_pq_full_cycle(self, backend, p):
        sim, real = _machines(backend, p, seed=46)
        with real:
            q_sim, q_real = BulkParallelPQ(sim), BulkParallelPQ(real)
            r1, r2 = np.random.default_rng(11), np.random.default_rng(11)
            sim.reset(), real.reset()
            for _ in range(3):
                q_sim.insert([list(r1.random(40)) for _ in range(p)])
                q_real.insert([list(r2.random(40)) for _ in range(p)])
                assert q_sim.peek_min() == q_real.peek_min()
                assert q_sim.total_size() == q_real.total_size()
                res_sim = q_sim.delete_min(15 * p)
                res_real = q_real.delete_min(15 * p)
                assert res_sim == res_real
            f_sim = q_sim.delete_min_flexible(3, 10 * p)
            f_real = q_real.delete_min_flexible(3, 10 * p)
            assert f_sim == f_real
            _assert_model_equal(sim, real)

    def test_bulk_pq_matches_oracle(self, backend, p):
        sim, real = _machines(backend, p, seed=47)
        with real:
            q = BulkParallelPQ(real)
            rng = np.random.default_rng(13)
            batches = [list(rng.random(30)) for _ in range(p)]
            q.insert(batches)
            res = q.delete_min(10 * p)
            got = sorted(s for b in res.batches for s, _ in b)
            allv = sorted(v for b in batches for v in b)
            assert got == pytest.approx(allv[: 10 * p])

    def test_random_alloc_pq(self, backend, p):
        sim, real = _machines(backend, p, seed=48)
        with real:
            q_sim, q_real = RandomAllocPQ(sim), RandomAllocPQ(real)
            r1, r2 = np.random.default_rng(17), np.random.default_rng(17)
            sim.reset(), real.reset()
            q_sim.insert([list(r1.random(30)) for _ in range(p)])
            q_real.insert([list(r2.random(30)) for _ in range(p)])
            assert q_sim.total_size() == q_real.total_size()
            assert q_sim.delete_min(9 * p) == q_real.delete_min(9 * p)
            _assert_model_equal(sim, real)

    def test_insert_stays_communication_free(self, backend, p):
        """Section 5's defining property survives the resident port."""
        with Machine(p=p, seed=49, backend=backend) as real:
            q = BulkParallelPQ(real)
            real.reset()
            q.insert([[0.5, 0.25] for _ in range(p)])
            assert real.metrics.total_traffic == 0


@pytest.mark.parametrize("backend,p", GRID)
class TestTopkCutParity:
    def test_one_step_cut_modeled_cost(self, backend, p):
        """The collapsed count+tie-grant+cut step stays bit-identical
        and model-identical (heavy ties force the tie-grant path)."""
        sim, real = _machines(backend, p, seed=50)
        with real:
            d_sim = make_dist(sim, np.random.default_rng(19), 200, lo=0, hi=5)
            d_real = make_dist(real, np.random.default_rng(19), 200, lo=0, hi=5)
            sim.reset(), real.reset()
            s_sel, s_thr = select_topk_smallest(sim, d_sim, 77)
            r_sel, r_thr = select_topk_smallest(real, d_real, 77)
            assert s_thr == r_thr
            assert s_sel.global_size == r_sel.global_size == 77
            for a, b in zip(s_sel.chunks, r_sel.chunks):
                np.testing.assert_array_equal(a, b)
            _assert_model_equal(sim, real)


# ----------------------------------------------------------------------
# Queue + selection mix, rank-skewed completion, and lockstep
# verification
# ----------------------------------------------------------------------

def _make_stress_vals(rank: int, base):
    """Worker-born resident array (so get_chunks reads worker state)."""
    return (np.arange(8, dtype=np.float64) + base * (rank + 1), None)


def _delayed_bump(rank: int, vals, delay, inc):
    """In-place mutation behind a rank-skewed delay: results reach the
    driver in a rank order that differs from command to command."""
    time.sleep(delay)
    vals += inc
    return float(vals.sum())


def _pq_mixed_workload(machine, seed):
    """Every query that carries a flush (peek_min, delete_min) and a
    multi_select."""
    rng = np.random.default_rng(seed)
    p = machine.p
    q = BulkParallelPQ(machine)
    outs = []
    for _ in range(3):
        q.insert([list(rng.random(25)) for _ in range(p)])
        outs.append(q.peek_min())
        outs.append(q.delete_min(6 * p))
    d = make_dist(machine, np.random.default_rng(seed + 1), 400)
    n = d.global_size
    outs.append(multi_select(machine, d, [1, n // 4, n // 2, n]))
    return outs


@pytest.mark.parametrize("backend,p", GRID)
class TestQueueMixParity:
    def test_mixed_workload_matches_sim(self, backend, p):
        sim, real = _machines(backend, p, seed=53)
        with real:
            sim.reset(), real.reset()
            assert _pq_mixed_workload(sim, 29) == _pq_mixed_workload(real, 29)
            _assert_model_equal(sim, real)

    def test_rank_skewed_completion(self, backend, p):
        """Rank-skewed delays make results arrive in a different rank
        order per command; each command must still see the state every
        earlier one left."""
        with Machine(p=p, seed=54, backend=backend) as m:
            backend_ = m.backend
            refs, _ = backend_.run_spmd(
                _make_stress_vals, [], n_out=1, args=[(10,)] * p
            )
            base = [
                float(np.sum(np.arange(8) + 10 * (r + 1))) for r in range(p)
            ]
            for i in range(6):
                inc = i + 1
                delays = [0.002 * ((r + i) % max(p, 2)) for r in range(p)]
                args = [(delays[r], inc) for r in range(p)]
                _, values = backend_.run_spmd(
                    _delayed_bump, [refs[0]], n_out=0, args=args
                )
                base = [b + 8 * inc for b in base]
                assert values == base
            final = backend_.get_chunks(refs[0])
            for r in range(p):
                np.testing.assert_array_equal(
                    final[r], np.arange(8, dtype=np.float64) + 10 * (r + 1) + 21
                )

    def test_flush_from_some_pes_rides_the_query(self, backend, p):
        """Batches buffered on some PEs only: the others' flush args are
        empty, and every query still equals sim in values, sizes, model
        and draw addresses."""
        def run(machine):
            q = BulkParallelPQ(machine)
            rng = np.random.default_rng(57)
            q.insert([list(rng.random(30)) for _ in range(machine.p)])
            outs = [q.peek_min()]
            for rank in range(0, machine.p, 2):
                q.insert_local(rank, rng.random(7) - 0.5)
            outs.append(q.delete_min_flexible(2, 3 * machine.p))
            q.insert_local(machine.p - 1, [-1.0, 2.0])
            outs.append(q.peek_min())
            outs.append(q.delete_min(machine.p))
            return outs, q.local_sizes(), machine._rng_seq

        sim, real = _machines(backend, p, seed=56)
        with real:
            assert run(sim) == run(real)
            _assert_model_equal(sim, real)

    def test_verify_lockstep(self, backend, p):
        """verify=True collects per-rank collective traces of every
        command; checking them changes no result and no cost."""
        plain = Machine(p=p, seed=55, backend=backend)
        checked = Machine(p=p, seed=55, backend=backend, verify=True)
        with plain, checked:
            plain.reset(), checked.reset()
            assert _pq_mixed_workload(plain, 31) == _pq_mixed_workload(checked, 31)
            _assert_model_equal(plain, checked)


@pytest.mark.parametrize(
    "backend,p",
    [pytest.param("mp", p, id=f"mp-p{p}") for p in [1, 2, 5, 8]]
    + [pytest.param("tcp", p, id=f"tcp-p{p}") for p in [1, 2, 5]],
)
class TestSumAggregationParity:
    def test_ec_resident_tables(self, backend, p):
        sim, real = _machines(backend, p, seed=51)
        with real:
            mk = lambda m: DistKeyValue.generate(
                m, lambda r, g: (g.integers(0, 48, 500), g.random(500) * 3)
            )
            d_sim, d_real = mk(sim), mk(real)
            sim.reset(), real.reset()
            r_sim = top_k_sums_ec(sim, d_sim, 5, eps=5e-2, delta=1e-3)
            r_real = top_k_sums_ec(real, d_real, 5, eps=5e-2, delta=1e-3)
            assert r_sim.items == r_real.items
            assert r_sim.sample_size == r_real.sample_size
            _assert_model_equal(sim, real)


@pytest.mark.parametrize("backend", ["mp", "tcp"])
@pytest.mark.parametrize("verify", [False, True], ids=["plain", "verify"])
def test_heavy_hitters_matches_sim(backend, verify):
    """Space-Saving summaries (the batch offer kernel) and their tree
    reduction: results and modeled cost equal sim, lockstep-checked or
    not."""
    def run(machine):
        keys = zipf_keys_workload(machine, 4_000, universe=1 << 10, s=1.2)
        machine.reset()
        return heavy_hitters(machine, keys, 0.05)

    sim = Machine(p=4, seed=77)
    with Machine(p=4, seed=77, backend=backend, verify=verify) as real:
        assert run(sim) == run(real)
        _assert_model_equal(sim, real)
