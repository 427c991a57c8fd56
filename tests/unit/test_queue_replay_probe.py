"""Unit: what the queues hand to ``Machine.replay_charges``.

The ledger benchmark's ``comm`` probe (``benchmarks/ledger/layers.py``)
swaps ``Machine.replay_charges`` for a recorder, builds a
``BulkParallelPQ``, inserts a batch, deletes 1024 elements and takes
the FIRST recorded call as "a real charge log", dividing by its length.
So building a queue must replay nothing (an empty log there would end
the probe with a division by zero), ``insert`` charges its local work
without a replay, and the first replay is ``delete_min``'s own log,
headed by the size all-reduction the driver tracks.
"""

import numpy as np
import pytest

from repro.machine import Machine
from repro.pqueue import BulkParallelPQ, RandomAllocPQ

P = 2


@pytest.fixture
def recorded(monkeypatch):
    calls = []
    original = Machine.replay_charges

    def record(self, logs):
        calls.append([list(entries) for entries in logs])
        return original(self, logs)

    monkeypatch.setattr(Machine, "replay_charges", record)
    return calls


@pytest.mark.parametrize("backend", ["sim", "mp"])
def test_building_a_queue_replays_nothing(recorded, backend):
    with Machine(P, seed=1, backend=backend) as m:
        BulkParallelPQ(m)
        RandomAllocPQ(m)
        assert recorded == []


@pytest.mark.parametrize("backend", ["sim", "mp"])
def test_the_first_replay_is_delete_mins_own_log(recorded, backend):
    with Machine(P, seed=1, backend=backend) as m:
        pq = BulkParallelPQ(m)
        pq.insert([np.random.default_rng(r).random(2048) for r in range(P)])
        assert recorded == []
        pq.delete_min(1024)
        assert len(recorded) == 1
        (logs,) = recorded
        assert len(logs) == P
        for log in logs:
            assert log[0] == ("allreduce", 1)
            assert len(log) > 1  # the selection's own charges follow the head
