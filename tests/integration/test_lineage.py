"""Integration: one recovery model -- lineage always on, bounded by
checkpoints.

A real backend records every ``put``, every command that makes a ref
and every command that takes a mutable ref as an input.  A live ref
whose lineage would pass ``_LINEAGE_ENTRIES`` entries, or whose
commands carried more than ``_LINEAGE_BYTES`` bytes of args, is cut by
a snapshot: one ``get`` and a ``put`` entry.  These tests hold the
bound, the replay from a snapshot, the read-only case that records
nothing, ``recover()`` on a healthy pool, and state that kernels change
in place (a driver-born ref, the sum pipelines' aggregation memo) --
each against the sim backend.
"""

import numpy as np
import pytest

from repro.aggregation import DistKeyValue, top_k_sums_ec
from repro.machine import DistArray, FaultPlan, Machine, WorkerFailure
from repro.machine.backends.runtime import _LINEAGE_BYTES, _LINEAGE_ENTRIES
from repro.pqueue import BulkParallelPQ
from repro.selection import multi_select

REAL = ["mp", "tcp"]


def _model(machine):
    r = machine.report()
    return (r.makespan, r.work_time, r.comm_time, r.bottleneck_words,
            r.bottleneck_startups, r.total_traffic, r.imbalance)


def _recorded_bytes(backend) -> int:
    """Bytes of args the retained command entries carried."""
    return sum(e[-1] for e in backend._lineage if e[0] == "spmd")


def _cycle(q, rng, i):
    """One insert/deleteMin cycle: one command, the flush riding it."""
    q.insert([rng.random(16) for _ in range(q.machine.p)])
    if i % 4 == 3:
        return q.delete_min_flexible(6, 10)
    return q.delete_min(8)


def _trees(q):
    return [t.to_list() for t in q.trees]


# ----------------------------------------------------------------------
# The bound
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", REAL)
def test_a_chain_of_kept_tables_is_cut_like_a_mutable_ref(backend):
    """Each monitor refresh outputs a new resident table made from the
    last: the chain's lineage inherits the bound, so it is snapshotted
    instead of growing with the number of refreshes."""
    from repro.frequent import StreamingTopKMonitor

    sim = Machine(p=2, seed=64)
    real = Machine(p=2, seed=64, backend=backend)
    try:
        mons = [StreamingTopKMonitor(m, k=4) for m in (sim, real)]
        for i in range(_LINEAGE_ENTRIES + 6):
            for m, mon in zip((sim, real), mons):
                mon.ingest([np.random.default_rng([i, r]).integers(0, 50, 40)
                            for r in range(2)])
            assert mons[1].top_k(force=True) == mons[0].top_k(force=True)
            kept = real.backend._lineage_of(real.backend._live_ids)
            assert len(kept) <= _LINEAGE_ENTRIES
        assert kept[0][0] == "put" and len(kept) < 10  # cut once, near the end
        assert _model(real) == _model(sim)
        real.backend.recover()
        for (k_s, c_s), (k_r, c_r) in zip(mons[0].tables, mons[1].tables):
            assert k_s.tolist() == k_r.tolist() and c_s.tolist() == c_r.tolist()
    finally:
        real.close()
        sim.close()


@pytest.mark.parametrize("backend", REAL)
def test_a_cut_chain_leaves_the_table_once_its_last_link_is_freed(backend):
    """The refresh that cuts the chain still holds the previous table,
    so the cut entries are dropped when the monitor lets go of it, not
    hundreds of entries later: after every refresh the table keeps
    little beyond what the live refs need."""
    from repro.frequent import StreamingTopKMonitor

    with Machine(p=2, seed=65, backend=backend) as real:
        mon = StreamingTopKMonitor(real, k=4)
        cuts = 0
        for i in range(_LINEAGE_ENTRIES + 6):
            mon.ingest([np.random.default_rng([i, r]).integers(0, 50, 40)
                        for r in range(2)])
            mon.top_k(force=True)
            backend_ = real.backend
            kept = backend_._lineage_of(backend_._live_ids)
            assert len(backend_._lineage) <= len(kept) + 2, i
            cuts += kept[0][:2] == ("put", mon._held.id)
        assert cuts  # the bound was reached and the chain cut


@pytest.mark.parametrize("backend", REAL)
def test_queue_lineage_stays_bounded_and_equal_to_sim(backend):
    sim = Machine(p=2, seed=61)
    real = Machine(p=2, seed=61, backend=backend)
    try:
        q_s, q_r = BulkParallelPQ(sim), BulkParallelPQ(real)
        rng_s, rng_r = np.random.default_rng(5), np.random.default_rng(5)
        cuts, prev = 0, 0
        for i in range(3 * _LINEAGE_ENTRIES + 5):
            assert _cycle(q_r, rng_r, i) == _cycle(q_s, rng_s, i)
            lineage = real.backend._lineage
            assert len(lineage) <= _LINEAGE_ENTRIES
            assert _recorded_bytes(real.backend) <= _LINEAGE_BYTES
            cuts += len(lineage) < prev
            prev = len(lineage)
        assert cuts == 3
        assert lineage[0][:2] == ("put", q_r._ref.id)
        assert _model(real) == _model(sim)
        assert real._rng_seq == sim._rng_seq
        assert q_r.local_sizes() == q_s.local_sizes()
        assert _trees(q_r) == _trees(q_s)
    finally:
        real.close()
        sim.close()


@pytest.mark.parametrize("backend", REAL)
def test_a_heavy_insert_is_cut_by_the_byte_bound(backend):
    n = _LINEAGE_BYTES // 8 // 2 + 1024  # per PE: the pair passes M
    sim = Machine(p=2, seed=66)
    real = Machine(p=2, seed=66, backend=backend)
    try:
        q_s, q_r = BulkParallelPQ(sim), BulkParallelPQ(real)
        keys = np.random.default_rng(8).random((2, n))
        for q in (q_s, q_r):
            q.insert(list(keys))
        assert q_r.delete_min(5) == q_s.delete_min(5)
        # well under the entry bound, yet already cut
        assert [e[:2] for e in real.backend._lineage] == [("put", q_r._ref.id)]
        assert q_r.delete_min(5) == q_s.delete_min(5)
        assert _model(real) == _model(sim)
    finally:
        real.close()
        sim.close()


@pytest.mark.parametrize("backend", REAL)
def test_replay_after_a_checkpoint_starts_from_the_snapshot(backend):
    n_ops = _LINEAGE_ENTRIES + 3

    def cycles(machine):
        q, rng = BulkParallelPQ(machine), np.random.default_rng(7)
        return q, rng, [_cycle(q, rng, i) for i in range(n_ops)]

    with Machine(p=2, seed=62, backend=backend) as scratch:
        cycles(scratch)
        kill_seq = scratch.backend._seq + 1  # the allreduce below
    sim = Machine(p=2, seed=62)
    real = Machine(p=2, seed=62, backend=backend,
                   faults=FaultPlan().kill(1, seq=kill_seq), command_timeout=10)
    try:
        q_s, rng_s, want = cycles(sim)
        q_r, rng_r, got = cycles(real)
        assert got == want
        lineage = list(real.backend._lineage)
        assert lineage[0][:2] == ("put", q_r._ref.id)
        assert len(lineage) == 1 + n_ops - _LINEAGE_ENTRIES
        with pytest.raises(WorkerFailure):
            real.allreduce([1.0, 1.0])
        replayed = []
        run = real.backend._run

        def spy(spec, locals_per_pe):
            replayed.append(spec[:2] if spec[0] == "put" else spec[0])
            return run(spec, locals_per_pe)

        real.backend._run = spy
        try:
            real.recover()
        finally:
            del real.backend._run
        assert replayed == [("put", q_r._ref.id)] + ["spmd"] * (len(lineage) - 1)
        sim.reset(), real.reset()
        for i in range(n_ops, n_ops + 8):
            assert _cycle(q_r, rng_r, i) == _cycle(q_s, rng_s, i)
        assert _model(real) == _model(sim)
        assert real._rng_seq == sim._rng_seq
        assert _trees(q_r) == _trees(q_s)
    finally:
        real.close()
        sim.close()


# ----------------------------------------------------------------------
# What records nothing
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", REAL)
def test_read_only_selection_over_generated_data_records_nothing(backend):
    ks = [1, 2000, 5000, 8000]
    with Machine(p=2, seed=63) as sim:
        want = multi_select(
            sim, DistArray.generate(sim, lambda r, g: g.random(4000)), ks)
    with Machine(p=2, seed=63, backend=backend) as m:
        data = DistArray.generate(m, lambda r, g: g.random(4000))
        (birth,) = m.backend._lineage
        sends = m.backend.driver_sends
        assert multi_select(m, data, ks) == want
        assert m.backend.driver_sends == sends + 1
        assert len(m.backend._lineage) == 1 and m.backend._lineage[0] is birth
        assert not m.backend._since


# ----------------------------------------------------------------------
# recover() on a healthy pool
# ----------------------------------------------------------------------

def _resident_script(machine):
    a = DistArray.generate(machine, lambda r, g: g.random(50))
    b = a.map_chunks(lambda r, c: c * 3 + r)
    q = BulkParallelPQ(machine)
    q.insert([[3.0, 1.0, 4.0], [1.5, 9.0, 2.5]])
    first = q.delete_min(2)
    return a, b, q, first


@pytest.mark.parametrize("backend", REAL)
def test_recover_on_a_healthy_pool_keeps_every_ref(backend):
    with Machine(p=2, seed=64) as sim, \
            Machine(p=2, seed=64, backend=backend) as m:
        a_s, b_s, q_s, first_s = _resident_script(sim)
        a, b, q, first = _resident_script(m)
        assert first == first_s
        m.recover()
        assert m.backend.recoveries == 1 and not m.backend.broken
        np.testing.assert_array_equal(a.concat(), a_s.concat())
        np.testing.assert_array_equal(b.concat(), b_s.concat())
        assert _trees(q) == _trees(q_s)
        assert q.delete_min(3) == q_s.delete_min(3)


# ----------------------------------------------------------------------
# Driver-born refs mutated in place
# ----------------------------------------------------------------------

def _bump_in_place(rank, chunk):
    chunk += 1.0
    return None


@pytest.mark.parametrize("backend", ["sim"] + REAL)
@pytest.mark.parametrize("kill", [False, True])
def test_a_kernel_that_mutates_a_driver_born_ref_reads_back_mutated(backend, kill):
    # a kill (real backends) lands between the kernel (seq 2) and the read
    faults = FaultPlan().kill(1, seq=3) if kill else None
    with Machine(p=2, seed=65, backend=backend, faults=faults,
                 command_timeout=10) as m:
        ref = m.backend.put_chunks([np.zeros(4), np.zeros(4)])   # seq 1
        m.backend.run_spmd(_bump_in_place, [ref])                 # seq 2
        if kill and m.backend.is_real:
            with pytest.raises(WorkerFailure):
                m.allreduce([1.0, 1.0])                           # seq 3
            m.recover()
        for chunk in m.backend.get_chunks(ref):
            np.testing.assert_array_equal(chunk, np.ones(4))


@pytest.mark.parametrize("backend", REAL)
@pytest.mark.parametrize("born", ["driver", "generated"])
def test_pairs_keep_their_aggregation_across_recovery(backend, born):
    """The sum pipelines cache each PE's aggregation table in its
    resident state (charged once, when built).  A recovery must bring
    the state back as the pipelines left it, not as it was uploaded or
    generated, or the next call charges the build again."""
    keys = [np.array([1, 2, 2, 3, 5, 5, 5]), np.array([2, 3, 3, 7, 5])]
    values = [np.arange(7, dtype=np.float64) + 1, np.arange(5, dtype=np.float64)]

    def first_call(machine):
        if born == "driver":
            kv = DistKeyValue(machine, keys, values)
        else:
            kv = DistKeyValue.generate(
                machine, lambda r, g: (g.integers(0, 9, size=40), g.random(40)))
        return kv, top_k_sums_ec(machine, kv, 2, eps=0.1, delta=1e-2)

    with Machine(p=2, seed=67, backend=backend) as scratch:
        first_call(scratch)
        kill_seq = scratch.backend._seq + 1
    sim = Machine(p=2, seed=67)
    real = Machine(p=2, seed=67, backend=backend,
                   faults=FaultPlan().kill(0, seq=kill_seq), command_timeout=10)
    try:
        kv_s, first_s = first_call(sim)
        kv_r, first_r = first_call(real)
        assert first_r == first_s
        with pytest.raises(WorkerFailure):
            real.allreduce([1.0, 1.0])
        real.recover()
        sim.reset(), real.reset()
        assert (top_k_sums_ec(real, kv_r, 2, eps=0.1, delta=1e-2)
                == top_k_sums_ec(sim, kv_s, 2, eps=0.1, delta=1e-2))
        assert _model(real) == _model(sim)
    finally:
        real.close()
        sim.close()
