"""Integration: the bulk priority queue on its one array tree is
bit-identical on sim, mp and tcp, and ``total_size`` (which
``delete_min`` calls) charges its all-reduction without a driver round
trip.

Scores are drawn from a few quarter steps, so every flush repeats scores
inside its batch and shares them with the resident tree (the merge's tie
path), and selection thresholds cut through runs of equal scores.
"""

from unittest import mock

import numpy as np
import pytest

from repro.machine import Machine
from repro.pqueue import BulkParallelPQ, RandomAllocPQ

P = 3


def model_cost(machine):
    """Everything ``report()`` says about modeled time and traffic."""
    rep = machine.report()
    return (
        rep.makespan, rep.work_time, rep.comm_time,
        rep.bottleneck_words, rep.bottleneck_startups, rep.total_traffic,
    )


def filled(machine, seed=5, per_pe=400):
    pq = BulkParallelPQ(machine)
    r = np.random.default_rng(seed)
    pq.insert([r.integers(0, 40, per_pe) / 4.0 for _ in range(machine.p)])
    pq.insert_local(1, [float("inf"), float("-inf"), 2.5])
    return pq, r


def cycle(machine):
    """insert / delete_min / delete_min_flexible, twice over; returns
    every result and the modeled cost and draw-address count after each
    step."""
    pq, r = filled(machine)
    machine.reset()
    trail = []
    for _ in range(2):
        trail.append(pq.peek_min())
        trail.append(pq.delete_min(150))
        pq.insert([r.integers(0, 40, 60) / 4.0 for _ in range(machine.p)])
        trail.append(pq.delete_min_flexible(100, 220))
        trail.append((model_cost(machine), machine._rng_seq, pq.local_sizes()))
    trail.append([t.to_list() for t in pq.trees])
    return trail


def test_cycle_sim_vs_mp():
    want = cycle(Machine(p=P, seed=41))
    with Machine(p=P, seed=41, backend="mp") as m:
        assert cycle(m) == want


def test_cycle_sim_vs_tcp():
    want = cycle(Machine(p=P, seed=41))
    with Machine(p=P, seed=41, backend="tcp") as m:
        assert cycle(m) == want


def delete_min_through_total_size(pq, k):
    """``delete_min`` with its total taken -- and charged -- by a
    ``total_size()`` call before it: the size all-reduction that heads
    the call's one charge log is dropped in exchange."""
    machine = pq.machine
    pq.total_size()
    real, heads = machine.replay_charges, []

    def without_head(logs):
        heads.append(logs[0][0])
        real([log[1:] for log in logs])

    with mock.patch.object(machine, "replay_charges", without_head):
        res = pq.delete_min(k)
    assert heads == [("allreduce", 1)]
    return res


QUERIES = {
    "peek_min": lambda pq: pq.peek_min(),
    "delete_min": lambda pq: pq.delete_min(150),
    "delete_min_flexible": lambda pq: pq.delete_min_flexible(100, 220),
}


@pytest.mark.parametrize("backend", ["mp", "tcp"])
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_query_carries_the_buffered_flush_in_one_command(backend, query):
    """A query over buffered insertions is ONE driver send: the kernel
    inserts the batch into its tree before it selects.  Results, the
    modeled cost and the draw addresses equal sim's."""
    def run(machine):
        pq, r = filled(machine)
        pq.peek_min()  # the fill is resident; buffer a fresh batch
        pq.insert([r.integers(0, 40, 60) / 4.0 for _ in range(machine.p)])
        machine.reset()
        sends = getattr(machine.backend, "driver_sends", 0)
        out = QUERIES[query](pq)
        sent = getattr(machine.backend, "driver_sends", 0) - sends
        return sent, (out, model_cost(machine), machine._rng_seq,
                      pq.local_sizes(), [t.to_list() for t in pq.trees])

    _, want = run(Machine(p=P, seed=42))
    with Machine(p=P, seed=42, backend=backend) as m:
        sent, got = run(m)
    assert sent == 1
    assert got == want


@pytest.mark.parametrize("backend", ["mp", "tcp"])
def test_reading_the_trees_flushes_on_its_own(backend):
    """``trees`` with insertions buffered: one flush command (taking
    one draw address) and one fetch, and the trees equal sim's."""
    def run(machine):
        pq, _ = filled(machine)
        seq = machine._rng_seq
        sends = getattr(machine.backend, "driver_sends", 0)
        trees = [t.to_list() for t in pq.trees]
        sent = getattr(machine.backend, "driver_sends", 0) - sends
        return sent, (trees, machine._rng_seq - seq, pq.local_sizes())

    _, want = run(Machine(p=P, seed=48))
    with Machine(p=P, seed=48, backend=backend) as m:
        sent, got = run(m)
    assert sent == 2
    assert got == want and want[1] == 1


class TestDeleteMinSizeReduction:
    def test_charges_what_the_total_size_path_charged(self):
        runs = []
        for delete in (BulkParallelPQ.delete_min, delete_min_through_total_size):
            m = Machine(p=P, seed=43)
            pq, _ = filled(m)
            pq.peek_min()
            m.reset()
            res = delete(pq, 200)
            runs.append((res, model_cost(m), m._rng_seq))
        assert runs[0] == runs[1]

    def test_total_size_is_one_allreduce_of_the_local_sizes(self):
        m, ref = Machine(p=P, seed=44), Machine(p=P, seed=44)
        pq, _ = filled(m)
        m.reset()
        sizes = pq.local_sizes()
        assert pq.total_size() == sum(sizes) == 3 * 400 + 3
        assert ref.allreduce(sizes, op="sum")[0] == sum(sizes)
        assert model_cost(m) == model_cost(ref)

    def test_invalid_k_still_pays_for_learning_the_total(self):
        m = Machine(p=P, seed=45)
        pq, _ = filled(m, per_pe=10)
        m.reset()
        with pytest.raises(ValueError, match="1 <= k <= 33"):
            pq.delete_min(34)
        after_error = model_cost(m)
        m.reset()
        pq.total_size()
        assert after_error == model_cost(m)

    def test_mp_sends_one_command_through_total_size_or_not(self):
        sends = []
        for delete in (BulkParallelPQ.delete_min, delete_min_through_total_size):
            with Machine(p=P, seed=46, backend="mp") as m:
                pq, _ = filled(m)
                pq.peek_min()
                before = m.backend.driver_sends
                delete(pq, 200)
                sends.append(m.backend.driver_sends - before)
        assert sends == [1, 1]


@pytest.mark.parametrize("queue", [BulkParallelPQ, RandomAllocPQ])
def test_total_size_sends_nothing_and_charges_as_sim(queue):
    """The sizes are driver-tracked: the all-reduction is charged, and
    nothing travels to learn its value."""
    def run(machine):
        pq = queue(machine)
        r = np.random.default_rng(49)
        pq.insert([r.random(50 + i) for i in range(machine.p)])
        machine.reset()
        before = getattr(machine.backend, "driver_sends", 0)
        total = pq.total_size()
        sent = getattr(machine.backend, "driver_sends", 0) - before
        return sent, total, model_cost(machine)

    _, total, cost = run(Machine(p=P, seed=49))
    with Machine(p=P, seed=49, backend="mp") as m:
        assert run(m) == (0, total, cost) and total == 3 * 50 + 3


class TestInsertValidation:
    def test_nan_rejected_before_anything_is_buffered_or_charged(self):
        m = Machine(p=P, seed=47)
        pq, _ = filled(m, per_pe=20)
        m.reset()
        sizes, seq, untouched = pq.local_sizes(), m._rng_seq, model_cost(m)
        for bad in ([1.0, float("nan")], np.array([np.nan]), iter([0.5, np.nan])):
            with pytest.raises(ValueError, match="NaN"):
                pq.insert_local(0, bad)
        with pytest.raises(ValueError, match="NaN"):
            pq.insert([[1.0], [np.nan], [2.0]])  # PE 0's good batch goes nowhere either
        assert pq.local_sizes() == sizes
        assert model_cost(m) == untouched and m._rng_seq == seq
        assert pq.insert_local(2, [0.25]) == [(2, 20)]  # no uid was burnt
        assert pq.total_size() == sum(sizes) + 1

    def test_infinities_and_any_iterable_are_legal(self):
        m = Machine(p=P, seed=49)
        pq = BulkParallelPQ(m)
        assert pq.insert_local(0, (s for s in [float("inf"), 1.0])) == [(0, 0), (0, 1)]
        assert pq.insert_local(0, [float("-inf")]) == [(0, 2)]
        assert pq.insert_local(0, np.array([2.0, 1.0])) == [(0, 3), (0, 4)]
        assert pq.insert_local(0, []) == []
        assert pq.peek_min() == float("-inf")
        res = pq.delete_min(5)
        assert res.batches[0] == (
            (float("-inf"), (0, 2)), (1.0, (0, 1)), (1.0, (0, 4)),
            (2.0, (0, 3)), (float("inf"), (0, 0)),
        )

    def test_buffered_scores_are_copied(self):
        m = Machine(p=P, seed=50)
        pq = BulkParallelPQ(m)
        mine = np.array([3.0, 1.0])
        pq.insert_local(2, mine)
        mine[:] = -1.0
        assert pq.peek_min() == 1.0

    def test_op_charge_is_sum_of_log2_sizes(self):
        m = Machine(p=P, seed=51)
        pq = BulkParallelPQ(m)
        m.reset()
        pq.insert_local(0, [0.5] * 5)
        pq.insert_local(0, [0.5] * 3)
        ref = Machine(p=P, seed=51)
        ref.charge_ops([sum(np.log2(max(n, 2)) for n in range(1, 6))] + [0.0] * (P - 1))
        ref.charge_ops([sum(np.log2(n) for n in range(6, 9))] + [0.0] * (P - 1))
        assert m.report().work_time == pytest.approx(ref.report().work_time, rel=1e-12)
