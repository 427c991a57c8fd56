"""Integration: fault injection -> detection -> recovery on live pools.

The acceptance matrix of the fault-tolerance layer: every injected
worker death surfaces as a structured
:class:`~repro.machine.WorkerFailure` (never a hang -- detection is
bounded by ``command_timeout``), the next command restores a broken
pool bit-identically from ``_store`` and lineage, and the serve engine
keeps answering through one injected death.
"""

import time

import numpy as np
import pytest

from repro.machine import FaultPlan, Machine, WorkerFailure
from repro.machine.backends.shm import segment_names
from repro.machine.faults import FAULT_EXIT

BACKENDS = ["mp", "tcp"]


def _drive(machine, rounds=6):
    """``rounds`` serial allreduce commands (seq 1..rounds)."""
    out = None
    for i in range(rounds):
        out = machine.allreduce([float(i + 1)] * machine.p, op="sum")
    return out


def _bump(rank, chunk, inc):
    """Module-level resident kernel (pickles across the pool fork)."""
    return chunk + inc, None


# ----------------------------------------------------------------------
# Kill matrix: every rank, several pool widths, both real transports
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("p", [2, 4, 5])
class TestKillMatrix:
    def test_every_rank_death_is_detected(self, backend, p):
        for rank in range(p):
            machine = Machine(
                p=p, seed=11, backend=backend,
                faults=FaultPlan().kill(rank, seq=3),
                command_timeout=10,
            )
            fam = getattr(machine.backend, "_shm_family", None)
            try:
                t0 = time.monotonic()
                with pytest.raises(WorkerFailure) as ei:
                    _drive(machine, rounds=6)
                took = time.monotonic() - t0
                exc = ei.value
                assert exc.phase == "dead"
                assert exc.rank == rank
                assert exc.seq == 3
                # detection is the fast liveness probe, not the deadline
                assert took < 10, f"rank {rank} death took {took:.1f}s"
                assert machine.backend.broken
                if backend == "mp":
                    proc = machine.backend._workers[rank]
                    assert not proc.is_alive()
                    assert proc.exitcode == FAULT_EXIT
            finally:
                machine.close()
            assert not any(
                w.is_alive() for w in machine.backend._workers
            ), "workers survived close()"
            if backend == "mp" and fam is not None:
                assert segment_names(fam) == [], "leaked shm segments"


# ----------------------------------------------------------------------
# Detection modes beyond a plain kill
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
class TestDetectionModes:
    def test_hung_pool_surfaces_within_command_timeout(self, backend):
        machine = Machine(
            p=2, seed=3, backend=backend,
            faults=FaultPlan().delay(0, seq=2, seconds=30.0),
            command_timeout=3,
        )
        try:
            _drive(machine, rounds=1)  # seq 1 is clean
            t0 = time.monotonic()
            with pytest.raises(WorkerFailure) as ei:
                _drive(machine, rounds=1)
            took = time.monotonic() - t0
            assert ei.value.phase == "hung"
            assert 2.5 <= took < 10, f"hang detection took {took:.1f}s"
            assert 0 in ei.value.ranks
        finally:
            machine.close()

    def test_truncated_result_frame_is_a_death_not_a_hang(self, backend):
        machine = Machine(
            p=3, seed=5, backend=backend,
            faults=FaultPlan().truncate(1, seq=2),
            command_timeout=15,
        )
        try:
            _drive(machine, rounds=1)
            t0 = time.monotonic()
            with pytest.raises(WorkerFailure) as ei:
                _drive(machine, rounds=1)
            assert time.monotonic() - t0 < 15
            assert ei.value.phase == "dead"
            assert 1 in ei.value.ranks
        finally:
            machine.close()

    def test_severed_peer_link_hangs_the_exchange_not_the_driver(self, backend):
        if backend == "mp":
            pytest.skip("mp severs the peer's inbox writer; covered on tcp "
                        "where a cut socket is detectable")
        machine = Machine(
            p=3, seed=7, backend=backend,
            faults=FaultPlan().sever(1, seq=2, peer=0),
            command_timeout=5,
        )
        try:
            _drive(machine, rounds=1)
            t0 = time.monotonic()
            with pytest.raises(WorkerFailure) as ei:
                _drive(machine, rounds=1)
            took = time.monotonic() - t0
            assert took < 12
            assert ei.value.phase in ("hung", "dead")
        finally:
            machine.close()


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------

class TestRecovery:
    def test_next_command_after_a_failure_auto_recovers(self):
        chunks = [np.arange(16, dtype=np.float64) * (r + 1) for r in range(2)]
        with Machine(p=2, seed=13, backend="sim") as sim:
            (out_s,), _, _ = sim.backend.map_resident(
                _bump, [sim.backend.put_chunks(chunks)], n_out=1,
                args=[(0.5,)] * 2,
            )
            want = [c.copy() for c in sim.backend.get_chunks(out_s)]
        machine = Machine(
            p=2, seed=13, backend="mp",
            faults=FaultPlan().kill(1, seq=3),
            command_timeout=10,
        )
        try:
            ref = machine.backend.put_chunks(chunks)              # seq 1
            (out,), _, _ = machine.backend.map_resident(          # seq 2
                _bump, [ref], n_out=1, args=[(0.5,)] * 2,
            )
            with pytest.raises(WorkerFailure):
                _drive(machine, rounds=3)                         # seq 3
            assert machine.backend.broken
            # no option, no explicit call: the next command restarts the
            # pool and replays the worker-computed chunks' lineage
            assert machine.allreduce([1.0, 1.0], op="sum") == [2.0, 2.0]
            assert not machine.backend.broken
            assert machine.backend.recoveries == 1
            for got, exp in zip(machine.backend.get_chunks(out), want):
                np.testing.assert_array_equal(got, exp)
            # the recovered pool is fault-free: the same seqs run clean
            assert _drive(machine, rounds=3) == [3.0 * 2] * 2
        finally:
            machine.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_journal_replays_worker_computed_chunks_bit_identical(
        self, backend
    ):
        chunks = [np.arange(64, dtype=np.float64) + 100.0 * r
                  for r in range(2)]
        # the oracle: the same resident pipeline on the sim backend
        sim = Machine(p=2, seed=21, backend="sim")
        ref_s = sim.backend.put_chunks([c.copy() for c in chunks])
        (out_s,), _, _ = sim.backend.map_resident(
            _bump, [ref_s], n_out=1, args=[(r + 1,) for r in range(2)]
        )
        want = sim.backend.get_chunks(out_s)

        machine = Machine(
            p=2, seed=21, backend=backend,
            faults=FaultPlan().kill(0, seq=4),
            command_timeout=10,
        )
        try:
            backend_ = machine.backend
            ref = backend_.put_chunks([c.copy() for c in chunks])   # seq 1
            (out,), _, _ = backend_.map_resident(                   # seq 2
                _bump, [ref], n_out=1, args=[(r + 1,) for r in range(2)]
            )
            before = [np.array(c) for c in backend_.get_chunks(out)]  # seq 3
            for got, exp in zip(before, want):
                np.testing.assert_array_equal(got, exp)
            with pytest.raises(WorkerFailure):
                _drive(machine, rounds=1)                           # seq 4
            # the next command auto-recovers the pool and replays the
            # lineage of every live ref
            assert machine.allreduce([1.0, 1.0], op="sum") == [2.0, 2.0]
            assert backend_.recoveries == 1
            after = backend_.get_chunks(out)
            for got, exp in zip(after, want):
                np.testing.assert_array_equal(got, exp)
        finally:
            machine.close()
            sim.close()

    def test_driver_born_chunks_survive_broken_close_without_journal(self):
        chunks = [np.full(32, float(r)) for r in range(2)]
        machine = Machine(
            p=2, seed=31, backend="mp",
            faults=FaultPlan().kill(1, seq=3),
            command_timeout=10,
        )
        try:
            ref = machine.backend.put_chunks(chunks)  # seq 1
            with pytest.raises(WorkerFailure):
                _drive(machine, rounds=2)  # dies at seq 3
        finally:
            machine.close()
        # put-born refs alias the driver store: readable after the wreck
        salvaged = machine.backend.get_chunks(ref)
        for got, exp in zip(salvaged, chunks):
            np.testing.assert_array_equal(got, exp)


# ----------------------------------------------------------------------
# Serve-engine failure isolation
# ----------------------------------------------------------------------

class TestServeIsolation:
    def test_engine_survives_one_injected_death(self):
        from repro.serve import default_datasets, QueryEngine

        with Machine(p=2, seed=99, backend="sim") as oracle_m:
            values = np.sort(
                default_datasets(oracle_m, 2000)["default"].concat()
            )
        n = values.size
        machine = Machine(
            p=2, seed=99, backend="mp",
            faults=FaultPlan().kill(1, seq=4),
            command_timeout=15,
        )
        engine = QueryEngine(
            machine, default_datasets(machine, 2000), batch_window=0.0
        )
        try:
            failed = 0
            answered = []
            for i in range(10):
                k = (i * 397) % n + 1
                try:
                    got = engine.query(op="select", k=k)
                except RuntimeError:
                    failed += 1
                    continue
                answered.append((k, got))
            assert failed >= 1, "the injected death never hit a query"
            assert len(answered) >= 5
            for k, got in answered:
                assert got == values[k - 1]
            assert engine.stats["worker_failures"] >= 1
            assert engine.stats["rebuilds"] >= 1
        finally:
            engine.close()
