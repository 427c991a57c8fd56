"""Unit tests: the in-worker tree/dissemination exchange schedules.

The mp backend's workers route rooted collectives over binomial trees
and every replicated-result collective (allgather, the reduction-type
ops, the collectives SPMD kernels yield) plus alltoall over the
dissemination/hypercube hop sequence instead of direct O(p^2)
exchanges.  These tests pin down

* the schedule helpers themselves (any ``p``, power of two or not),
* bit-identical results against the simulated backend at non-power-of-
  two ``p`` (the schedules must degrade gracefully), and
* the message counts: O(p log p) in total, and exactly ``ceil(log2 p)``
  sends per rank -- the depth the alpha-beta model charges -- for every
  replicated-result collective.
"""

import numpy as np
import pytest

from repro.machine import Machine
from repro.machine.collectives import (
    binomial_edges,
    binomial_subtrees,
    bruck_hops,
    bruck_send_blocks,
)
from repro.machine.backends.runtime import _bruck_plan
from repro.machine.cost import log2_ceil

from tests.support import listp

NON_POW2 = [3, 5, 6]


def _three_collectives(rank, chunk):
    """SPMD kernel yielding each replicated-result kind once (module
    level so it pickles across the pool fork)."""
    gathered = yield ("allgather", chunk)
    total = yield ("allreduce", float(chunk[0]), "sum")
    total2, prefix = yield ("allreduce_exscan", float(chunk[0]), "sum", 0.0)
    return [float(g[0]) for g in gathered], total, total2, prefix


class TestScheduleHelpers:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 8, 13])
    def test_bruck_hops_cover_all_offsets(self, p):
        hops = bruck_hops(p)
        assert len(hops) == log2_ceil(p)
        # every offset 1..p-1 is a subset-sum of the hop distances
        reachable = {0}
        for h in hops:
            reachable |= {(r + h) for r in reachable}
        assert set(range(p)) <= reachable

    @pytest.mark.parametrize("p", [2, 3, 5, 8])
    def test_bruck_send_blocks_excludes_receiver_holdings(self, p):
        # after r rounds each PE holds the `hop` ranks ending at itself;
        # what it is sent must be exactly what it lacks
        for rank in range(p):
            held = [(rank - i) % p for i in range(1)]  # round 0: own block
            sends = bruck_send_blocks(p, rank, 1, held)
            dst = (rank + 1) % p
            assert dst not in sends
            assert all(b in held for b in sends)

    @pytest.mark.parametrize("root, p", [
        (root, p) for root in (0, 1) for p in (1, 2, 3, 5, 8) if root < p
    ])
    def test_binomial_subtrees_partition_the_machine(self, p, root):
        subtrees = binomial_subtrees(p, root)
        assert sorted(subtrees[root]) == list(range(p))
        children: dict[int, list[int]] = {i: [] for i in range(p)}
        for _, s, d in binomial_edges(p, root):
            children[s].append(d)
        for node, members in subtrees.items():
            # a node's subtree is itself plus the union of its children's
            expected = {node}
            stack = list(children[node])
            while stack:
                c = stack.pop()
                expected.add(c)
                stack.extend(children[c])
            assert set(members) == expected


    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 8, 13, 16, 33])
    def test_bruck_plan_is_the_round_by_round_walk(self, p):
        """The per-(p, rank) plans equal the walk they replace: every
        rank's held-block dict grown round by round, each round's sends
        from ``bruck_send_blocks`` over it, in its order."""
        held = {r: {r: None} for r in range(p)}
        for rnd, hop in enumerate(bruck_hops(p)):
            sends = {r: bruck_send_blocks(p, r, hop, list(held[r]))
                     for r in range(p)}
            for r in range(p):
                assert _bruck_plan(p, r)[rnd] == (
                    (r + hop) % p, (r - hop) % p, tuple(sends[r]))
            for r in range(p):
                held[r].update(dict.fromkeys(sends[(r - hop) % p]))
        assert all(sorted(h) == list(range(p)) for h in held.values())
        assert all(len(_bruck_plan(p, r)) == log2_ceil(p) for r in range(p))


@pytest.mark.parametrize("p", NON_POW2)
class TestNonPowerOfTwoParity:
    """The worker schedules must stay bit-identical to sim off the
    power-of-two fast path."""

    def test_value_collectives(self, p):
        sim = Machine(p=p, seed=3)
        with Machine(p=p, seed=3, backend="mp") as real:
            vals = [0.1 * (i + 1) for i in range(p)]
            vecs = [np.array([i + 1, 2 * i]) for i in range(p)]
            assert sim.allreduce(vals, op="sum") == real.allreduce(vals, op="sum")
            assert listp.scan(sim, vals) == listp.scan(real, vals)
            st, sp = listp.allreduce_exscan(sim, vals)
            rt, rp = listp.allreduce_exscan(real, vals)
            assert st == rt and sp == rp
            for a, b in zip(sim.allgather(vecs)[0], real.allgather(vecs)[0]):
                np.testing.assert_array_equal(a, b)
            for root in range(p):
                assert listp.reduce(sim, vals, root=root) == listp.reduce(real, vals, root=root)
                assert listp.broadcast(sim, vals[root], root=root) == listp.broadcast(real, 
                    vals[root], root=root
                )
                assert listp.gather(sim, vals, root=root) == listp.gather(real, vals, root=root)

    def test_alltoall_store_and_forward(self, p):
        sim = Machine(p=p, seed=4)
        with Machine(p=p, seed=4, backend="mp") as real:
            matrix = [[(i, j) if i != j else None for j in range(p)] for i in range(p)]
            assert listp.alltoall(sim, matrix) == listp.alltoall(real, matrix)

    def test_fused_reduce_allgather(self, p):
        sim = Machine(p=p, seed=5)
        with Machine(p=p, seed=5, backend="mp") as real:
            values = [0.25 * (i + 1) for i in range(p)]
            payloads = [[i, i + 1] for i in range(p)]
            st, sg = listp.reduce_allgather(sim, values, payloads)
            rt, rg = listp.reduce_allgather(real, values, payloads)
            assert st == rt and sg == rg


class TestMessageCounts:
    """The acceptance bound: worker exchanges are O(p log p), not O(p^2)."""

    def _delta(self, machine, fn):
        before = sum(machine.backend.worker_message_counts())
        fn()
        return sum(machine.backend.worker_message_counts()) - before

    @pytest.mark.parametrize("p", [4, 5, 8])
    def test_allgather_is_dissemination(self, p):
        with Machine(p=p, seed=6, backend="mp") as m:
            vals = list(range(p))
            m.allgather(vals)  # warm up (starts the pool)
            delta = self._delta(m, lambda: m.allgather(vals))
        assert delta == p * log2_ceil(p)      # Bruck schedule, exactly
        assert delta < p * (p - 1)            # strictly beats direct

    @pytest.mark.parametrize("p", [4, 5, 8])
    def test_rooted_is_tree_replicated_is_dissemination(self, p):
        with Machine(p=p, seed=6, backend="mp") as m:
            vals = list(range(p))
            m.allreduce(vals)
            for fn, count in [
                (lambda: m.allreduce(vals), p * log2_ceil(p)),
                (lambda: listp.scan(m, vals), p * log2_ceil(p)),
                (lambda: listp.allreduce_exscan(m, vals), p * log2_ceil(p)),
                (lambda: listp.broadcast(m, 1, root=0), p - 1),
                (lambda: listp.reduce(m, vals, root=0), p - 1),
                (lambda: listp.gather(m, vals, root=0), p - 1),
                (lambda: listp.scatter(m, vals, root=0), p - 1),
            ]:
                assert self._delta(m, fn) == count

    @pytest.mark.parametrize("p", [2, 3, 5, 8])
    def test_replicated_collective_is_log_p_sends_per_rank(self, p):
        """Every replicated-result collective -- yielded by an SPMD
        kernel or issued list-of-p -- costs each rank exactly ``ceil(log2 p)`` sends (one
        dissemination, not gather-to-root + broadcast), and float sums
        keep the binomial-tree combination order of sim."""
        vals = [0.1 * (i + 1) for i in range(p)]
        pairs = [[i, i + 1] for i in range(p)]
        cases = [  # (collectives inside, call)
            (3, lambda m, ref: m.backend.run_spmd(_three_collectives, [ref])[1]),
            (1, lambda m, ref: m.allgather(vals)),
            (1, lambda m, ref: m.allreduce(vals, op="sum")),
            (1, lambda m, ref: listp.scan(m, vals, op="sum")),
            (1, lambda m, ref: listp.allreduce_exscan(m, vals, op="sum")),
            (1, lambda m, ref: listp.reduce_allgather(m, vals, pairs, op="sum")),
        ]
        sim = Machine(p=p, seed=6)
        with Machine(p=p, seed=6, backend="mp") as real:
            refs = [
                m.backend.put_chunks([np.array([v]) for v in vals])
                for m in (sim, real)
            ]
            for n_collectives, call in cases:
                before = real.backend.worker_message_counts()
                got = call(real, refs[1])
                after = real.backend.worker_message_counts()
                assert got == call(sim, refs[0])
                assert [a - b for a, b in zip(after, before)] == (
                    [n_collectives * log2_ceil(p)] * p
                )

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 8])
    def test_hash_table_exchange_is_log_p_sends_per_rank(self, p):
        """Counting into the distributed hash table costs each rank
        ``ceil(log2 p)`` messages: one ``sendrecv`` hop per hypercube
        round (entries merge on arrival), or the store-and-forward
        alltoall when ``p`` is not a power of two -- and nothing else,
        the (already aggregated) buckets make no second trip."""
        from tests.support.dht_runner import count

        rng = np.random.default_rng(p)
        samples = [rng.integers(0, 200, size=300) for _ in range(p)]
        sim = Machine(p=p, seed=6)
        with Machine(p=p, seed=6, backend="mp") as real:
            real.allreduce(list(range(p)))  # start the pool
            before = real.backend.worker_message_counts()
            sends = real.backend.driver_sends
            got = count(real, samples, salt=3)
            assert real.backend.driver_sends - sends == 1
            after = real.backend.worker_message_counts()
        assert got == count(sim, samples, salt=3)
        assert [a - b for a, b in zip(after, before)] == [log2_ceil(p)] * p

    @pytest.mark.parametrize("p", [4, 5, 8])
    def test_alltoall_is_hypercube_routed(self, p):
        with Machine(p=p, seed=6, backend="mp") as m:
            m.allreduce(list(range(p)))
            matrix = [[(i, j) if i != j else None for j in range(p)] for i in range(p)]
            delta = self._delta(m, lambda: listp.alltoall(m, matrix))
        assert delta == p * log2_ceil(p)
        assert delta < p * (p - 1) or p <= 3

    def test_selection_is_dissemination_bounded(self):
        """The whole recursion is one command whose every collective is
        one dissemination: a level costs at most two of them (sample
        union + count reduction), the base case one."""
        from repro.machine import DistArray
        from repro.selection import select_kth

        p = 8
        with Machine(p=p, seed=7, backend="mp") as m:
            data = DistArray.generate(m, lambda r, g: g.integers(0, 10_000, 500))
            before = sum(m.backend.worker_message_counts())
            stats = select_kth(m, data, 1000, return_stats=True)
            delta = sum(m.backend.worker_message_counts()) - before
        assert stats.rounds > 0
        assert delta <= (2 * stats.rounds + 1) * p * log2_ceil(p)
        assert delta < stats.rounds * p * (p - 1)  # direct exchange would

    @pytest.mark.parametrize("p", [2, 3, 5, 8])
    def test_an_end_block_call_is_one_dissemination(self, p):
        """A multiselection whose ranks all sit near the ends (a top-k
        block plus rank 1) finishes in its first level's all-reduction:
        one driver send and ``ceil(log2 p)`` sends per rank, no sample
        allgather."""
        from repro.machine import DistArray
        from repro.selection import multi_select

        with Machine(p=p, seed=7, backend="mp") as m:
            data = DistArray.generate(m, lambda r, g: g.integers(0, 10_000, 500))
            oracle = np.sort(data.concat())
            n = oracle.size
            ks = [1, *range(n - 7, n + 1)]
            before = m.backend.worker_message_counts()
            sends = m.backend.driver_sends
            got = multi_select(m, data, ks)
            assert m.backend.driver_sends - sends == 1
            after = m.backend.worker_message_counts()
        assert got == [oracle[k - 1] for k in ks]
        assert [a - b for a, b in zip(after, before)] == [log2_ceil(p)] * p


class TestBroadcastCommandChannel:
    """Full-pool commands cost O(1) driver sends: one frame to rank 0,
    tree-forwarded by the workers (p - 1 forwards per command)."""

    @pytest.mark.parametrize("p", [2, 4, 5, 8])
    def test_driver_sends_one_frame_per_collective(self, p):
        with Machine(p=p, seed=9, backend="mp") as m:
            vals = list(range(p))
            m.allreduce(vals)  # start the pool
            matrix = [[(i, j) if i != j else None for j in range(p)] for i in range(p)]
            before = m.backend.driver_sends
            m.allreduce(vals)
            m.allgather(vals)
            listp.scan(m, vals)
            listp.alltoall(m, matrix)
            assert m.backend.driver_sends - before == 4

    @pytest.mark.parametrize("p", [4, 5, 8])
    def test_workers_forward_along_the_tree(self, p):
        with Machine(p=p, seed=9, backend="mp") as m:
            vals = list(range(p))
            m.allreduce(vals)
            base = sum(m.backend.command_fanout_counts())
            m.allreduce(vals)
            after = sum(m.backend.command_fanout_counts())
            # the allreduce plus the stats read itself: two commands,
            # p - 1 tree forwards each
            assert after - base == 2 * (p - 1)

    def test_p2p_rides_the_channel_and_costs_one_message(self):
        with Machine(p=4, seed=9, backend="mp") as m:
            m.allreduce([1, 2, 3, 4])
            before = m.backend.driver_sends
            msgs = m.backend.worker_message_counts()
            assert listp.send(m, 0, 2, 17) == 17
            assert m.backend.worker_message_counts() == [
                a + b for a, b in zip(msgs, [1, 0, 0, 0])]
            # the send and the two counter reads: one frame each
            assert m.backend.driver_sends - before == 3


class TestLargePayloads:
    """Payloads far beyond the pipe buffer must flow (the cooperative-
    drain path of the channel transport; a regression here deadlocks,
    which the suite-level timeout surfaces)."""

    @pytest.mark.parametrize("p", [3, 4])
    def test_big_allgather_and_alltoall(self, p):
        sim = Machine(p=p, seed=8)
        with Machine(p=p, seed=8, backend="mp") as real:
            big = [np.arange(60_000, dtype=np.int64) + i for i in range(p)]
            for a, b in zip(sim.allgather(big)[0], real.allgather(big)[0]):
                np.testing.assert_array_equal(a, b)
            matrix = [
                [np.full(30_000, i * p + j, dtype=np.int64) for j in range(p)]
                for i in range(p)
            ]
            out_s, out_r = listp.alltoall(sim, matrix), listp.alltoall(real, matrix)
            for row_s, row_r in zip(out_s, out_r):
                for a, b in zip(row_s, row_r):
                    np.testing.assert_array_equal(a, b)
