"""Integration: multicriteria top-k pipelines (Section 6).

``dta_prefixes``, ``dta_topk`` and ``rdta_topk`` are one worker command
each, the per-PE indexes riding it: these tests pin exact answers, the
scan depth, one driver send per call with results, model and draw
addresses equal to sim on mp and tcp, refusals that leave no trace, and
a worker death in the DTA command followed by a retry that answers as
an undisturbed machine does.
"""

import numpy as np
import pytest

from repro.bench.workloads import multicriteria_workload
from repro.machine import FaultPlan, Machine, WorkerFailure
from repro.topk import (
    MinScore,
    SumScore,
    WeightedSum,
    build_distributed_index,
    dta_prefixes,
    dta_topk,
    global_topk_oracle,
    rdta_topk,
    ta_topk,
)
from repro.topk.index import LocalIndex

BACKENDS = ["mp", "tcp"]


def _model(machine):
    r = machine.report()
    return (r.makespan, r.work_time, r.comm_time, r.bottleneck_words,
            r.bottleneck_startups, r.total_traffic, r.imbalance)


def _sends(machine):
    return getattr(machine.backend, "driver_sends", 0)


class TestEndToEnd:
    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_dta_exact_across_machine_sizes(self, p):
        m = Machine(p=p, seed=200 + p)
        idx = multicriteria_workload(m, 600, 3)
        scorer = SumScore(3)
        res = dta_topk(m, idx, scorer, 20)
        assert list(res.items) == global_topk_oracle(idx, scorer, 20)

    @pytest.mark.parametrize("m_crit", [1, 2, 5])
    def test_dta_across_criteria_counts(self, m_crit):
        m = Machine(p=4, seed=210 + m_crit)
        idx = multicriteria_workload(m, 500, m_crit)
        scorer = SumScore(m_crit)
        res = dta_topk(m, idx, scorer, 10)
        assert list(res.items) == global_topk_oracle(idx, scorer, 10)

    def test_rdta_and_dta_agree_on_random_placement(self):
        m = Machine(p=8, seed=220)
        idx = multicriteria_workload(m, 400, 3)
        scorer = WeightedSum((0.5, 0.3, 0.2))
        r1 = rdta_topk(m, idx, scorer, 15)
        r2 = dta_topk(m, idx, scorer, 15)
        assert list(r1.items) == list(r2.items)

    def test_dta_on_adversarial_placement(self):
        m = Machine(p=8, seed=230)
        idx = multicriteria_workload(m, 400, 3, adversarial=True)
        scorer = SumScore(3)
        res = dta_topk(m, idx, scorer, 25)
        assert list(res.items) == global_topk_oracle(idx, scorer, 25)

    def test_min_scorer_end_to_end(self):
        m = Machine(p=4, seed=240)
        idx = multicriteria_workload(m, 500, 3)
        scorer = MinScore(3)
        res = dta_topk(m, idx, scorer, 10)
        assert list(res.items) == global_topk_oracle(idx, scorer, 10)


class TestScanEfficiency:
    def test_dta_prefixes_near_sequential_scan_depth(self):
        """Theorem 6: DTA identifies O(K) objects where K is TA's scan
        depth -- the exponential search cannot overshoot by much more
        than a doubling."""
        m = Machine(p=8, seed=250)
        idx = multicriteria_workload(m, 1000, 2, skew=3.0)
        scorer = SumScore(2)
        merged = LocalIndex(
            np.concatenate([ix.ids for ix in idx]),
            np.vstack([ix.scores for ix in idx]),
        )
        seq = ta_topk(merged, scorer, 16)
        res = dta_topk(m, idx, scorer, 16)
        # DTA's guessed K should not exceed a generous multiple of TA's
        assert res.prefixes.scanned <= 64 * max(seq.scan_depth, 1)

    def test_work_sublinear_in_input(self):
        """DTA coordination volume must not scale with n/p."""
        vols = []
        for n_per_pe in (400, 3200):
            m = Machine(p=8, seed=260)
            idx = multicriteria_workload(m, n_per_pe, 3)
            m.reset()
            dta_topk(m, idx, SumScore(3), 16)
            vols.append(m.metrics.bottleneck_words)
        assert vols[1] < 4 * vols[0]


#: one call of each family; ``dta_topk_grown`` stops the search early,
#: so the command grows the scan depth before it selects
CALLS = {
    "dta_prefixes": lambda m, idx: dta_prefixes(m, idx, SumScore(3), 24),
    "dta_topk": lambda m, idx: dta_topk(m, idx, SumScore(3), 24),
    "dta_topk_grown": lambda m, idx: dta_topk(
        m, idx, SumScore(3), 24, hit_target_factor=0.02),
    "dta_topk_adversarial": lambda m, idx: dta_topk(
        m, multicriteria_workload(m, 300, 3, adversarial=True), SumScore(3), 24),
    "rdta_topk": lambda m, idx: rdta_topk(m, idx, SumScore(3), 24),
}


class TestOneCommand:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_each_call_is_one_driver_send_equal_to_sim(self, backend):
        for name, call in CALLS.items():
            sim = Machine(p=3, seed=270)
            with Machine(p=3, seed=270, backend=backend) as real:
                want = call(sim, multicriteria_workload(sim, 300, 3))
                idx = multicriteria_workload(real, 300, 3)
                sends = _sends(real)
                got = call(real, idx)
                assert _sends(real) - sends == 1, name
                assert got == want, name
                assert _model(real) == _model(sim), name
                assert real._rng_seq == sim._rng_seq, name

    @pytest.mark.parametrize("backend", ["sim"] + BACKENDS)
    def test_refused_calls_leave_no_trace(self, backend):
        with Machine(p=3, seed=271, backend=backend) as m:
            idx = multicriteria_workload(m, 50, 3)
            other = build_distributed_index(
                m, [ix.ids for ix in idx], [ix.scores[:, :2] for ix in idx])
            refusals = {
                "dta k > n": lambda: dta_topk(m, idx, SumScore(3), 151),
                "dta k = 0": lambda: dta_topk(m, idx, SumScore(3), 0),
                "prefixes k > n": lambda: dta_prefixes(m, idx, SumScore(3), 151),
                "rdta k > n": lambda: rdta_topk(m, idx, SumScore(3), 151),
                "index count": lambda: rdta_topk(m, idx[:2], SumScore(3), 4),
                "mismatched m": lambda: dta_topk(
                    m, idx[:2] + other[2:], SumScore(3), 4),
            }
            before = (_model(m), m._rng_seq, _sends(m))
            for name, call in refusals.items():
                with pytest.raises(ValueError):
                    call()
                assert (_model(m), m._rng_seq, _sends(m)) == before, name

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_death_in_the_dta_command_then_retry(self, backend):
        """A worker dying in the DTA command is a structured
        WorkerFailure that keeps no draw address (how many the search
        takes depends on the data), and the retry answers exactly as an
        undisturbed machine does."""
        with Machine(p=2, seed=272, backend=backend) as scratch:
            dta_topk(scratch, multicriteria_workload(scratch, 300, 3), SumScore(3), 16)
            kill_seq = scratch.backend._seq  # the call's one command

        oracle = Machine(p=2, seed=272)
        faulty = Machine(
            p=2, seed=272, backend=backend,
            faults=FaultPlan().kill(1, seq=kill_seq, phase="before"),
            command_timeout=10,
        )
        try:
            i_o = multicriteria_workload(oracle, 300, 3)
            i_f = multicriteria_workload(faulty, 300, 3)
            with pytest.raises(WorkerFailure) as ei:
                dta_topk(faulty, i_f, SumScore(3), 16)
            assert ei.value.phase == "dead" and ei.value.seq == kill_seq
            assert faulty._rng_seq == 0
            oracle.reset(), faulty.reset()
            assert dta_topk(faulty, i_f, SumScore(3), 16) == dta_topk(
                oracle, i_o, SumScore(3), 16)
            assert faulty.backend.recoveries == 1
            assert faulty._rng_seq == oracle._rng_seq
            assert _model(faulty) == _model(oracle)
        finally:
            faulty.close()
            oracle.close()
