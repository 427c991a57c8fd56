"""Integration: a selection call is ONE worker command.

``multi_select`` and ``select_kth`` run their whole recursion -- level
loop, early exits, base case -- inside a single ``spmd`` command,
and the driver replays the cost model from the per-level records the
command returns.  These tests pin the shape (driver sends per call) and
re-assert everything the per-level-command form guaranteed: results and
modeled cost equal to sim, lockstep verification
over the long collective trace, structured failure when a worker dies
inside the command, and bit-identical journal replay.
"""

import numpy as np
import pytest

from repro.machine import FaultPlan, Machine, WorkerFailure
from repro.selection import multi_select, select_kth, select_topk_smallest
from repro.testing import make_dist, sorted_oracle

BACKENDS = ["mp", "tcp"]
P = 4
N_PER_PE = 3000


def _data(machine, seed=17):
    data = make_dist(machine, np.random.default_rng(seed), N_PER_PE)
    data._ensure_ref()  # upload now, so send counts see only the call
    return data


def _ranks(n):
    return [1, 13, n // 5, n // 3, n // 2, n - 7, n]


def _model(machine):
    r = machine.report()
    return (r.makespan, r.work_time, r.comm_time, r.bottleneck_words,
            r.bottleneck_startups, r.total_traffic, r.imbalance)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("verify", [False, True], ids=["plain", "verify"])
class TestOneCommand:
    """``verify=True`` ships each rank's trace with its result: still
    one command, the same values and the same model."""

    def test_multi_select_is_one_command(self, backend, verify):
        sim = Machine(p=P, seed=71)
        real = Machine(p=P, seed=71, backend=backend, verify=verify)
        with real:
            d_sim, d_real = _data(sim), _data(real)
            ks = _ranks(d_sim.global_size)
            sim.reset(), real.reset()
            sends = real.backend.driver_sends
            got = multi_select(real, d_real, ks)
            assert real.backend.driver_sends - sends == 1
            assert got == multi_select(sim, d_sim, ks)
            oracle = sorted_oracle(d_sim)
            assert got == [oracle[k - 1] for k in sorted(set(ks))]
            assert _model(real) == _model(sim)
            assert real._rng_seq == sim._rng_seq == 1

    def test_select_kth_is_one_command_and_topk_two(self, backend, verify):
        sim = Machine(p=P, seed=72)
        real = Machine(p=P, seed=72, backend=backend, verify=verify)
        with real:
            d_sim, d_real = _data(sim), _data(real)
            k = d_sim.global_size // 3
            sim.reset(), real.reset()
            sends = real.backend.driver_sends
            stats = select_kth(real, d_real, k, return_stats=True)
            assert real.backend.driver_sends - sends == 1
            assert stats == select_kth(sim, d_sim, k, return_stats=True)
            assert stats.rounds > 0 and stats.base_case_size > 0
            sends = real.backend.driver_sends
            sel_real, thr_real = select_topk_smallest(real, d_real, k)
            assert real.backend.driver_sends - sends == 2
            sel_sim, thr_sim = select_topk_smallest(sim, d_sim, k)
            assert thr_real == thr_sim == stats.value
            assert _model(real) == _model(sim)
            for a, b in zip(sel_real.chunks, sel_sim.chunks):
                np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("backend", BACKENDS)
class TestOneCommandRobustness:
    def test_lockstep_verification_covers_the_whole_recursion(self, backend):
        """verify=True compares every rank's collective trace of the
        command -- two collectives per level, all levels in one trace."""
        plain = Machine(p=P, seed=73, backend=backend)
        checked = Machine(p=P, seed=73, backend=backend, verify=True)
        with plain, checked:
            d_plain, d_checked = _data(plain), _data(checked)
            ks = _ranks(d_plain.global_size)
            plain.reset(), checked.reset()
            before = checked.backend.worker_message_counts()[0]
            got = multi_select(checked, d_checked, ks)
            sent = checked.backend.worker_message_counts()[0] - before
            assert got == multi_select(plain, d_plain, ks)
            assert _model(checked) == _model(plain)
            # rank 0 sends log2(P) = 2 messages per collective
            assert sent // 2 >= 10

    @pytest.mark.parametrize("phase", ["before", "after"])
    def test_death_inside_the_command_then_journal_replay(self, backend, phase):
        """A worker dying inside the one command -- before it enters the
        recursion (its peers block in the first collective) or after it
        ran all of it (its peers finished, its result never comes) -- is
        a structured WorkerFailure, and the journal rebuilds the
        worker-computed chunks of an earlier one-command selection
        bit-identically."""
        def phase_a(machine):
            data = _data(machine, seed=19)
            sel, thr = select_topk_smallest(machine, data, 2500)
            return data, sel, thr

        with Machine(p=2, seed=74, backend=backend) as scratch:
            phase_a(scratch)
            kill_seq = scratch.backend._seq + 1  # the multi_select command

        oracle = Machine(p=2, seed=74)
        d_o, sel_o, thr_o = phase_a(oracle)
        ks = _ranks(d_o.global_size)
        oracle.draw_addr()  # the failed call below allocates one address

        faulty = Machine(
            p=2, seed=74, backend=backend, journal=True,
            faults=FaultPlan().kill(1, seq=kill_seq, phase=phase),
            command_timeout=10,
        )
        try:
            d_f, sel_f, thr_f = phase_a(faulty)
            assert thr_f == thr_o
            with pytest.raises(WorkerFailure) as ei:
                multi_select(faulty, d_f, ks)
            assert ei.value.phase == "dead" and ei.value.rank == 1
            assert ei.value.seq == kill_seq
            # journal on: the retry auto-recovers the pool first
            oracle.reset(), faulty.reset()
            assert multi_select(faulty, d_f, ks) == multi_select(oracle, d_o, ks)
            assert faulty.backend.recoveries == 1
            assert _model(faulty) == _model(oracle)
            for a, b in zip(sel_f.chunks, sel_o.chunks):
                np.testing.assert_array_equal(a, b)
        finally:
            faulty.close()
            oracle.close()
