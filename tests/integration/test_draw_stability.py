"""Integration: counter-addressed draws are stable under every issue
schedule (the acceptance bar of the stateless-RNG conversion).

With draws addressed by ``(seed, stream, rank, seq, draw)`` instead of
shipped generator state (:mod:`repro.machine.ctrrng`), nothing about
*when* or *where* a command executes may change what it draws.  Three
perturbations are locked in here:

* **where** -- every rng-consuming algorithm returns on mp and tcp the
  exact bits the in-process sim backend draws;
* **serve fusion** -- a fused query batch (one ``multi_select`` for
  many rank queries) must answer exactly what the same queries answer
  one at a time;
* **kill/recover** -- a journal replay re-runs kernels from recorded
  draw *addresses* (no generator state is journaled); the restored
  resident state and everything computed after recovery must match a
  machine that never failed.
"""

import numpy as np
import pytest

from repro.frequent import top_k_frequent_pac
from repro.machine import DistArray, FaultPlan, Machine, WorkerFailure
from repro.pqueue import BulkParallelPQ, RandomAllocPQ
from repro.selection import multi_select, select_kth
from repro.serve import QueryEngine, default_datasets
from repro.testing import make_dist


def _rng_workload(machine, seed):
    """Every counter-addressed draw site: in-kernel Bernoulli sampling
    (unsorted selection), per-level multiselection samples, PAC
    frequent sampling with a forced rho < 1, and both priority queues
    (shared pivot and estimator streams, random allocation)."""
    p = machine.p
    out = []
    d = make_dist(machine, np.random.default_rng(seed), 500)
    n = d.global_size
    out.append(select_kth(machine, d, n // 3))
    out.append(multi_select(machine, d, [1, n // 4, n // 2, n]))
    rng = np.random.default_rng(seed + 1)
    keys = DistArray(
        machine, [rng.integers(0, 40, 300).astype(np.int64) for _ in range(p)]
    )
    out.append(top_k_frequent_pac(machine, keys, 5, rho=0.5).items)
    q = BulkParallelPQ(machine)
    r = np.random.default_rng(seed + 2)
    for _ in range(2):
        q.insert([list(r.random(25)) for _ in range(p)])
        out.append(q.delete_min(5 * p))
    out.append(q.delete_min_flexible(2, 4 * p))
    kz = RandomAllocPQ(machine)
    kz.insert([list(r.random(20)) for _ in range(p)])
    out.append(kz.delete_min(6 * p))
    return out


class TestBackendStability:
    @pytest.mark.parametrize("backend", ["mp", "tcp"])
    @pytest.mark.parametrize("p", [2, 4])
    def test_real_backend_matches_sim(self, backend, p):
        """The address stream is issue-ordered, so the in-process sim
        is the oracle of every backend."""
        sim = Machine(p=p, seed=62)
        real = Machine(p=p, seed=62, backend=backend)
        with real:
            assert _rng_workload(sim, seed=41) == _rng_workload(real, seed=41)
        sim.close()


class TestServeFusionStability:
    QUERIES = [
        {"op": "select", "k": 7},
        {"op": "quantile", "q": 0.25},
        {"op": "topk", "k": 5},
        {"op": "frequent", "k": 4, "dataset": "keys"},
        {"op": "select", "k": 900},
    ]

    def _engine(self, window):
        machine = Machine(p=4, seed=63, backend="mp")
        datasets = default_datasets(machine, 1200)
        return QueryEngine(machine, datasets, batch_window=window)

    def test_fused_batch_answers_match_one_at_a_time(self):
        engine = self._engine(window=0.01)
        try:
            # sequential blocking queries: every one is its own batch
            unfused = [engine.query(**q) for q in self.QUERIES]
            assert engine.stats["batches"] == len(self.QUERIES)
        finally:
            engine.close()
        engine = self._engine(window=0.3)
        try:
            futures = [engine.submit(dict(q)) for q in self.QUERIES]
            fused = [f.result(timeout=60) for f in futures]
            assert engine.stats["batches"] == 1
        finally:
            engine.close()
        assert fused == unfused


class TestRecoveryStability:
    def _phase_a(self, machine, seed):
        """Resident rng-consuming state: the queue's pivot streams derive
        from journaled draw addresses (the flushes take theirs too)."""
        q = BulkParallelPQ(machine)
        rng = np.random.default_rng(seed)
        for _ in range(2):
            q.insert([list(rng.random(20)) for _ in range(machine.p)])
        first = q.delete_min(4 * machine.p)
        return q, first

    def _phase_b(self, machine, q, seed):
        rng = np.random.default_rng(seed)
        q.insert([list(rng.random(15)) for _ in range(machine.p)])
        return [q.peek_min(), q.delete_min(3 * machine.p),
                q.delete_min_flexible(2, 2 * machine.p)]

    def test_journal_recovery_replays_identical_draws(self):
        """Kill a worker between algorithm calls; the journal replay
        reconstructs the trees from the journaled flushes alone, and
        post-recovery draws continue the exact fault-free stream."""
        # calibrate where the kill lands: the drive phase right after
        # phase A (allreduces allocate no draw seqs, so a retry there
        # cannot skew the address stream)
        with Machine(p=2, seed=88, backend="mp") as scratch:
            self._phase_a(scratch, seed=5)
            kill_seq = scratch.backend._seq + 2

        oracle = Machine(p=2, seed=88, backend="sim")
        q_o, first_o = self._phase_a(oracle, seed=5)

        faulty = Machine(
            p=2, seed=88, backend="mp", journal=True,
            faults=FaultPlan().kill(1, seq=kill_seq),
            command_timeout=10,
        )
        try:
            q_f, first_f = self._phase_a(faulty, seed=5)
            assert first_f == first_o
            with pytest.raises(WorkerFailure):
                for _ in range(3):
                    faulty.allreduce([1.0, 1.0], op="sum")
            # journal on: the next command auto-recovers and replays
            # every live ref's provenance (addresses, not rng states)
            assert faulty.allreduce([1.0, 1.0], op="sum") == [2.0, 2.0]
            assert faulty.backend.recoveries == 1
            assert self._phase_b(faulty, q_f, seed=9) == \
                self._phase_b(oracle, q_o, seed=9)
        finally:
            faulty.close()
            oracle.close()
