"""Random-allocation bulk priority queue (Karp-Zhang [20] / Sanders [31]).

The baseline the paper improves on: every inserted element is *sent to a
random PE*, which keeps each local queue a representative sample of the
global content (so bulk deletions are easy and provably balanced) but
costs ``Theta(beta * k / p + alpha)`` communication per inserted batch --
the communication the Section 5 queue eliminates entirely.

Like :class:`~repro.pqueue.bulk_pq.BulkParallelPQ`, the local heaps are
worker-resident: an ``insert`` routes the batch worker-to-worker in one
sparse direct exchange (the random destinations come from the
counter-addressed per-PE streams, identical on every backend), and
``deleteMin*`` -- exact multisequence selection over sorted snapshots,
as in [31] -- runs as one generator SPMD step next to the heaps.
Comparing :class:`RandomAllocPQ` against the Section 5 queue in
``benchmarks/bench_priority_queue.py`` reproduces the Table 1 contrast
(old: ``log(n/k) + alpha*(k/p + log p)`` insert+delete vs. new:
``alpha log kp``).
"""

from __future__ import annotations

import numpy as np

from ..machine import Machine, charged
from ..selection.sorted_select import ms_select_with_cuts_gen
from .heap import BinaryHeap

__all__ = ["RandomAllocPQ"]


class _HeapSeq:
    """Sorted-sequence view of a heap via a lazily sorted snapshot."""

    __slots__ = ("snapshot",)

    def __init__(self, heap: BinaryHeap):
        self.snapshot = sorted(heap.items())

    def __len__(self) -> int:
        return len(self.snapshot)

    def item(self, i: int):
        return self.snapshot[i]

    def count_le(self, v) -> int:
        import bisect

        return bisect.bisect_right(self.snapshot, v)


# ----------------------------------------------------------------------
# Resident worker callbacks (module-level so real backends can ship them)
# ----------------------------------------------------------------------

def _make_heap(rank: int, p: int, source, take, log: list):
    return None, None, BinaryHeap()


def _kz_insert_kernel(rank: int, p: int, source, take, log: list):
    """Route this PE's randomly-addressed items worker-to-worker and
    deliver arrivals into the local heap (the communication this design
    pays and Section 5's avoids).  ``source`` is the heap and this PE's
    ``(buckets, srcs, words)``: its ``(dst, items)`` buckets, the PEs
    it receives from and its row of the exchange's word matrix, charged
    as the driver-planned alltoall it models."""
    heap, (buckets, srcs, words) = source
    row: list = [None] * p
    for dst, items in buckets:
        row[dst] = items
    received = yield charged(("sendrecv", row, srcs), ("alltoall", words))
    ops = 0.0
    for src in range(p):
        items = received[src]
        if not items:
            continue
        for item in items:
            heap.push(tuple(item))
        ops += len(items) * np.log2(max(len(heap), 2))
    log.append(("ops", ops))
    return None, None


def _kz_delete_kernel(rank: int, p: int, heap: BinaryHeap, take, log: list, k: int,
                      n: int):
    """Exact ``deleteMin`` of [31] as one SPMD step: snapshot-sort the
    local heap, multisequence-select over the snapshots of the ``n``
    driver-tracked elements (their all-reduction heads the log), pop
    the cut.  The replicated pivot stream is derived in place from the
    command's draw address.  Returns this PE's batch."""
    log.append(("allreduce", 1))
    seq = _HeapSeq(heap)
    # snapshot sort models the heap-ordered scan of [31]
    log.append(("ops", max(1.0, min(len(seq), k) * np.log2(max(len(seq), 2)))))
    _, cut, _ = yield from ms_select_with_cuts_gen(rank, p, seq, k, n, take(), log)
    batch = tuple((b[0], b[1]) for b in heap.pop_k(int(cut)))
    log.append(("ops", max(1.0, cut * np.log2(max(len(heap) + cut, 2)))))
    return None, batch


class RandomAllocPQ:
    """Bulk PQ with randomized element placement (the [20]/[31] design)."""

    def __init__(self, machine: Machine):
        self.machine = machine
        _, _, self._ref = machine.run_command(_make_heap, n_addrs=0, keep=True)
        self._uid = [0] * machine.p
        self._sizes = [0] * machine.p  # driver-tracked heap sizes

    # ------------------------------------------------------------------
    def insert(self, per_pe_scores) -> None:
        """``insert*`` with random allocation: elements are routed to
        uniformly random PEs worker-to-worker (the communication cost
        this design pays and ours avoids)."""
        machine = self.machine
        p = machine.p
        if len(per_pe_scores) != p:
            raise ValueError(f"need one insertion batch per PE (p={p})")
        words = np.zeros((p, p), dtype=np.float64)
        routed: list[dict[int, list]] = []
        # routing draws are counter-addressed: destinations are needed
        # driver-side (size tracking + the sparse exchange's src lists)
        addr = machine.draw_addr()
        for i, scores in enumerate(per_pe_scores):
            scores = list(scores)
            buckets: dict[int, list] = {}
            if scores:
                dests = addr.local(i).integers(0, p, size=len(scores))
                for s, d in zip(scores, dests):
                    buckets.setdefault(int(d), []).append((s, (i, self._uid[i])))
                    self._uid[i] += 1
                for d, items in sorted(buckets.items()):
                    # wire format: one word per score + two per uid
                    words[i][d] = 3 * len(items)
                    self._sizes[d] += len(items)
            routed.append(buckets)
        srcs = [
            [i for i in range(p) if i != d and d in routed[i]] for d in range(p)
        ]
        rows = words.tolist()
        riders = [(sorted(routed[i].items()), srcs[i], rows[i]) for i in range(p)]
        machine.run_command(_kz_insert_kernel, (self._ref, riders), n_addrs=0)

    # ------------------------------------------------------------------
    @property
    def heaps(self) -> list[BinaryHeap]:
        """Driver-side view of the resident heaps (live objects on the
        in-process backend, fetched copies on real ones; tests only)."""
        return list(self.machine.backend.get_chunks(self._ref))

    def total_size(self) -> int:
        """Global element count: one all-reduction of the driver-tracked sizes."""
        self.machine.replay_charges([[("allreduce", 1)]] * self.machine.p)
        return int(sum(self._sizes))

    def delete_min(self, k: int) -> tuple[tuple, ...]:
        """Remove the ``k`` globally smallest elements (exact, as in [31])."""
        total = int(sum(self._sizes))  # the size all-reduction heads the log
        if not 1 <= k <= total:
            self.total_size()  # a refusal still paid for learning the total
            raise ValueError(f"k must satisfy 1 <= k <= {total}, got {k}")
        _, batches = self.machine.run_command(_kz_delete_kernel, self._ref, (k, total))
        batches = tuple(batches)
        for i, batch in enumerate(batches):
            self._sizes[i] -= len(batch)
        return batches

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomAllocPQ(p={self.machine.p})"
