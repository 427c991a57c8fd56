"""Integration: a selection call is ONE worker command.

``multi_select`` and ``select_kth`` run their whole recursion -- level
loop, early exits, base case -- inside a single ``spmd`` command, and so
do the sorted-input selectors ``ms_select``, ``ms_select_with_cuts`` and
``ams_select_batched`` (their generator forms); the driver replays the
cost model from the records the command returns.  These tests pin the shape (driver sends per call) and
re-assert everything the per-level-command form guaranteed: results and
modeled cost equal to sim, lockstep verification
over the long collective trace, structured failure when a worker dies
inside the command, and bit-identical lineage replay.
"""

import numpy as np
import pytest

from repro.machine import DistArray, FaultPlan, Machine, WorkerFailure
from repro.selection import (
    ams_select_batched,
    ms_select,
    ms_select_with_cuts,
    multi_select,
    select_kth,
    select_topk_smallest,
)
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


def _sorted(p, seed=23):
    rng = np.random.default_rng(seed)
    return [np.sort(rng.random(N_PER_PE)) for _ in range(p)]


#: the sorted-input selectors, each at ranks a few estimator rounds need
SORTED_SELECTORS = {
    "ms_select": lambda m, s, n: ms_select(m, s, n // 3),
    "ms_select_with_cuts": lambda m, s, n: ms_select_with_cuts(m, s, n // 5),
    "ams_select_batched": lambda m, s, n: ams_select_batched(
        m, s, n // 4, n // 4 + n // 200, d=8),
}


@pytest.mark.parametrize("backend", BACKENDS)
class TestOneCommand:
    """Each rank's collective trace rides its result frame: still one
    command, the same values and the same model."""

    def test_multi_select_is_one_command(self, backend):
        sim = Machine(p=P, seed=71)
        real = Machine(p=P, seed=71, backend=backend)
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

    def test_an_end_block_call_is_one_all_reduction(self, backend, monkeypatch):
        """Ranks all within reach of the ends (a top-k block and both
        ends at once) take one driver send and, inside it, one
        all-reduction and no allgather: on sim the in-process table sees
        exactly that, and the real backend's model equals sim's."""
        from repro.machine.backends import base
        from repro.machine.cost import log2_ceil

        kinds: list = []
        reference = base.spmd_collective

        def spy(kind, requests):
            kinds.append(kind)
            return reference(kind, requests)

        sim = Machine(p=P, seed=73)
        real = Machine(p=P, seed=73, backend=backend)
        with real:
            d_sim, d_real = _data(sim), _data(real)
            n = d_sim.global_size
            oracle = sorted_oracle(d_sim)
            for ks in (list(range(n - 9, n + 1)), [1, 2, n - 1, n]):
                sim.reset(), real.reset()
                sends = real.backend.driver_sends
                got = multi_select(real, d_real, ks)
                assert real.backend.driver_sends - sends == 1
                kinds.clear()
                monkeypatch.setattr(base, "spmd_collective", spy)
                assert multi_select(sim, d_sim, ks) == got
                monkeypatch.undo()
                assert kinds == ["allreduce"]
                assert got == [oracle[k - 1] for k in ks]
                assert _model(real) == _model(sim)
                # the root size and the level's one all-reduction
                assert sim.report().bottleneck_startups == 2 * log2_ceil(P)
            assert real._rng_seq == sim._rng_seq == 2

    def test_select_kth_is_one_command_and_topk_two(self, backend):
        sim = Machine(p=P, seed=72)
        real = Machine(p=P, seed=72, backend=backend)
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

    @pytest.mark.parametrize("name", sorted(SORTED_SELECTORS))
    def test_sorted_selector_is_one_command(self, backend, name):
        call = SORTED_SELECTORS[name]
        sim = Machine(p=P, seed=75)
        real = Machine(p=P, seed=75, backend=backend)
        with real:
            seqs = _sorted(P)
            n = P * N_PER_PE
            sends = real.backend.driver_sends
            got = call(real, seqs, n)
            assert real.backend.driver_sends - sends == 1
            assert got == call(sim, seqs, n)
            assert _model(real) == _model(sim)
            assert real._rng_seq == sim._rng_seq == 1


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(SORTED_SELECTORS))
def test_sorted_selector_over_resident_chunks(backend, name):
    """A DistArray of sorted chunks stays where it is: one send, no
    fetch, and the answer, model and draws of the list form."""
    call = SORTED_SELECTORS[name]
    seqs = _sorted(P, seed=29)
    n = P * N_PER_PE
    listed = Machine(p=P, seed=76)
    want = call(listed, seqs, n)
    with Machine(p=P, seed=76, backend=backend) as real:
        data = DistArray(real, seqs, resident=True)
        real.reset()
        sends = real.backend.driver_sends
        assert call(real, data, n) == want
        assert real.backend.driver_sends - sends == 1
        assert _model(real) == _model(listed)
        assert real._rng_seq == listed._rng_seq


#: calls every sorted-input selector must refuse with its own
#: ValueError before anything is charged, sent or drawn
REFUSALS = {
    "ms_select k=0": lambda m, s, n: ms_select(m, s, 0),
    "ms_select k=n+1": lambda m, s, n: ms_select(m, s, n + 1),
    "ms_select k=2.5": lambda m, s, n: ms_select(m, s, 2.5),
    "cuts k=0": lambda m, s, n: ms_select_with_cuts(m, s, 0),
    "cuts k=n+1": lambda m, s, n: ms_select_with_cuts(m, s, n + 1),
    "batched k_lo>k_hi": lambda m, s, n: ams_select_batched(m, s, 9, 5),
    "batched k_hi>n": lambda m, s, n: ams_select_batched(m, s, 1, n + 1),
    "batched d=0": lambda m, s, n: ams_select_batched(m, s, 1, 5, d=0),
    "batched d=True": lambda m, s, n: ams_select_batched(m, s, 1, 5, d=True),
    "batched d=2.5": lambda m, s, n: ams_select_batched(m, s, 1, 5, d=2.5),
}


@pytest.mark.parametrize("backend", ["sim"] + BACKENDS)
@pytest.mark.parametrize("resident", [False, True], ids=["list", "resident"])
def test_refused_calls_leave_no_trace(backend, resident):
    with Machine(p=P, seed=77, backend=backend) as m:
        seqs = _sorted(P)
        n = P * N_PER_PE
        data = DistArray(m, seqs, resident=True) if resident else seqs
        before = (_model(m), m._rng_seq, getattr(m.backend, "driver_sends", 0))
        for name, call in REFUSALS.items():
            with pytest.raises(ValueError):
                call(m, data, n)
            after = (_model(m), m._rng_seq, getattr(m.backend, "driver_sends", 0))
            assert after == before, name


@pytest.mark.parametrize("backend", ["sim", "mp"])
def test_batched_threshold_is_an_input_element(backend):
    """int64 keys above 2**53 are not floats: the threshold is the
    element itself, in the input's dtype."""
    seqs = [2**60 + np.array([1, 300, 600], dtype=np.int64),
            2**60 + np.array([900, 1200], dtype=np.int64)]
    with Machine(p=2, seed=78, backend=backend) as m:
        res = ams_select_batched(m, seqs, 2, 3)
        assert type(res.value) is np.int64
        assert res.value in np.concatenate(seqs)
        kth = np.sort(np.concatenate(seqs))[res.k - 1]
        assert res.value == kth and sum(res.cuts) == res.k


@pytest.mark.parametrize("backend", BACKENDS)
class TestOneCommandRobustness:
    def test_lockstep_verification_covers_the_whole_recursion(self, backend):
        """The driver compares every rank's collective trace of the
        command -- two collectives per level, all levels in one trace --
        and the check changes no result and no model."""
        sim = Machine(p=P, seed=73)
        real = Machine(p=P, seed=73, backend=backend)
        with real:
            d_sim, d_real = _data(sim), _data(real)
            ks = _ranks(d_sim.global_size)
            sim.reset(), real.reset()
            before = real.backend.worker_message_counts()[0]
            got = multi_select(real, d_real, ks)
            sent = real.backend.worker_message_counts()[0] - before
            assert got == multi_select(sim, d_sim, ks)
            assert _model(real) == _model(sim)
            # rank 0 sends log2(P) = 2 messages per collective
            assert sent // 2 >= 10

    @pytest.mark.parametrize("phase", ["before", "after"])
    def test_death_inside_the_command_then_journal_replay(self, backend, phase):
        """A worker dying inside the one command -- before it enters the
        recursion (its peers block in the first collective) or after it
        ran all of it (its peers finished, its result never comes) -- is
        a structured WorkerFailure, and the lineage rebuilds the
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
            p=2, seed=74, backend=backend,
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
            # the retry auto-recovers the pool first
            oracle.reset(), faulty.reset()
            assert multi_select(faulty, d_f, ks) == multi_select(oracle, d_o, ks)
            assert faulty.backend.recoveries == 1
            assert _model(faulty) == _model(oracle)
            for a, b in zip(sel_f.chunks, sel_o.chunks):
                np.testing.assert_array_equal(a, b)
        finally:
            faulty.close()
            oracle.close()
