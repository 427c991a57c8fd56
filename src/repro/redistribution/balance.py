"""Adaptive data redistribution (Section 9).

After a top-k selection the output may sit unevenly on the PEs.  The
paper's redistribution scheme moves the *minimum* amount of data so that
every PE ends with at most ``n_bar = ceil(n/p)`` elements, and PEs with
more than ``n_bar`` only *send* while PEs with less only *receive*:

1. compute per-PE surplus ``s_i = max(0, n_i - n_bar)`` and deficit
   ``d_i = max(0, n_bar - n_i)``;
2. prefix-sum both sequences -- ``s`` enumerates the elements to move,
   ``d`` enumerates the empty slots;
3. *merge* the two sequences (Batcher's parallel merge,
   ``O(alpha log p)``): a sender's surplus interval overlaps exactly the
   receivers whose deficit intervals it spans, turning the matching into
   segmented gather/scatter transfers.

Total time ``O(beta max_i n_i + alpha log p)``; crucially the moved
volume is ``sum_i s_i`` -- adaptive in the actual imbalance, unlike a
blind repartition (the :func:`naive_rebalance` comparator, which moves
data even when the layout is already acceptable).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine import DistArray, Machine, charged
from .batcher import merge_round_count

__all__ = ["balance_plan", "redistribute", "naive_rebalance", "Transfer", "RedistributionStats"]


@dataclass(frozen=True)
class Transfer:
    """One planned message: ``count`` elements from ``src`` to ``dst``."""

    src: int
    dst: int
    count: int


@dataclass(frozen=True)
class RedistributionStats:
    """Diagnostics of one redistribution run."""

    moved: int
    transfers: int
    max_sent: int
    max_received: int
    merge_rounds: int


def balance_plan(sizes: np.ndarray, n_bar: int | None = None) -> list[Transfer]:
    """Match surpluses to deficits via the two prefix sums.

    Pure planning (no machine): returns the transfer list in
    (sender, receiver) order.  ``n_bar`` defaults to ``ceil(n/p)``.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    p = sizes.size
    n = int(sizes.sum())
    if n_bar is None:
        n_bar = -(-n // p)  # ceil
    surplus = np.maximum(sizes - n_bar, 0)
    deficit = np.maximum(n_bar - sizes, 0)
    s_pref = np.concatenate([[0], np.cumsum(surplus)])
    d_pref = np.concatenate([[0], np.cumsum(deficit)])
    total_move = int(s_pref[-1])
    transfers: list[Transfer] = []
    if total_move == 0:
        return transfers
    # walk senders; for each, cover its surplus interval with receiver slots
    for j in range(p):
        lo, hi = int(s_pref[j]), int(s_pref[j + 1])
        if lo == hi:
            continue
        # receivers whose deficit interval intersects (lo, hi]
        first = int(np.searchsorted(d_pref, lo, side="right")) - 1
        i = max(first, 0)
        while lo < hi and i < p:
            r_lo, r_hi = int(d_pref[i]), int(d_pref[i + 1])
            take = min(hi, r_hi) - max(lo, r_lo)
            if take > 0:
                transfers.append(Transfer(j, i, take))
                lo += take
            i += 1
    return transfers


# ----------------------------------------------------------------------
# Resident worker kernels (module-level so real backends can ship them)
# ----------------------------------------------------------------------

def _redistribute_kernel(rank: int, p: int, source, take, log: list, charges: list):
    """Execute this PE's side of the balance plan where the chunk lives.

    ``source`` is the chunk and this PE's ``(sends, srcs)``: ``sends``
    lists ``(dst, count)`` transfers in plan order (tail slices walk
    downward so kept elements keep their local order), ``srcs`` the
    senders this PE receives from.  The transfers ride one in-worker
    sparse direct exchange -- exactly the plan's p2p messages, each
    payload travelling a single hop, receivers appending in sender-rank
    order.  The chunk never visits the driver.  ``charges``, the plan's
    log derived from the sizes the driver tracks, is the exchange's.
    """
    chunk, (sends, srcs) = source
    hi = chunk.size
    row: list = [None] * p
    for dst, count in sends:
        lo = hi - int(count)
        row[dst] = chunk[lo:hi]
        hi = lo
    received = yield charged(("sendrecv", row, srcs), *charges)
    base = chunk[:hi]
    pieces = [r for r in received if r is not None and r.size]
    return None, None, np.concatenate([base] + pieces) if pieces else base


def _naive_rebalance_kernel(rank: int, p: int, source, take, log: list, bounds):
    """Blind repartition, resident: slice by global target bounds and
    exchange worker-to-worker (direct delivery, charged as the alltoall
    of ``words``, this PE's row of the driver-tracked word matrix).
    ``source`` is the chunk and this PE's ``(offset, srcs, words)``."""
    chunk, (offset, srcs, words) = source
    row: list = [None] * p
    hi_off = offset + chunk.size
    for j, (t_lo, t_hi) in enumerate(bounds):
        a, b = max(offset, t_lo), min(hi_off, t_hi)
        if a < b:
            row[j] = chunk[a - offset : b - offset]
    received = yield charged(("sendrecv", row, srcs), ("alltoall", words))
    pieces = [x for x in received if x is not None and len(x)]
    return None, None, np.concatenate(pieces) if pieces else chunk[:0]


def redistribute(
    machine: Machine, data: DistArray, *, n_bar: int | None = None
) -> tuple[DistArray, RedistributionStats]:
    """Balance ``data`` so every PE holds at most ``ceil(n/p)`` elements.

    Senders part with their *tail* elements (the chunk order of kept
    elements is preserved); receivers append.  Returns the balanced
    array and movement statistics.

    The plan is computed from the driver-tracked resident sizes (a
    local quantity on every PE); the prefix sums and the Batcher merge
    are charged per the paper's schedule; the transfers themselves are
    charged as the plan's p2p messages and *execute worker-to-worker*
    as one resident SPMD exchange -- the moved elements never visit the
    driver, and the result is a new resident :class:`DistArray`.
    """
    p = machine.p
    sizes = data.sizes()
    n = int(sizes.sum())
    if n_bar is None:
        n_bar = -(-n // p)
    rounds = merge_round_count(2 * p)
    plan = balance_plan(sizes, n_bar)
    # the sizes, the prefix sums and the plan fall out of the
    # driver-tracked per-PE sizes; the schedule the algorithm needs is
    # still charged so the model matches the paper's: the one-word size
    # all-reduction, one scan of a 2-vector (surpluses and deficits),
    # the Batcher merge of the two enumerations (log p rounds of
    # constant-size compare-exchanges), then each planned message
    log = [("allreduce", 1), ("scan", 2), ("rounds", rounds, 2.0, "batcher_merge")]
    log += [("p2p", t.count, t.src, t.dst, "redistribute") for t in plan]
    sent_per_pe = np.zeros(p, dtype=np.int64)
    recv_per_pe = np.zeros(p, dtype=np.int64)
    for t in plan:
        sent_per_pe[t.src] += t.count
        recv_per_pe[t.dst] += t.count

    stats = RedistributionStats(
        moved=int(sent_per_pe.sum()),
        transfers=len(plan),
        max_sent=int(sent_per_pe.max(initial=0)),
        max_received=int(recv_per_pe.max(initial=0)),
        merge_rounds=rounds,
    )
    if not plan:  # already acceptable: nothing moves, nothing executes
        machine.replay_charges([log] * p)
        return (
            DistArray(machine, ref=data._ensure_ref(), sizes=sizes, dtype=data.dtype),
            stats,
        )

    sends: list[list] = [[] for _ in range(p)]
    srcs: list[list] = [[] for _ in range(p)]
    for t in plan:
        sends[t.src].append((t.dst, t.count))
        srcs[t.dst].append(t.src)
    _, _, ref = machine.run_command(
        _redistribute_kernel, (data._ensure_ref(), list(zip(sends, srcs))), (log,),
        n_addrs=0, keep=True)
    new_sizes = sizes - sent_per_pe + recv_per_pe
    return DistArray(machine, ref=ref, sizes=new_sizes, dtype=data.dtype), stats


def naive_rebalance(machine: Machine, data: DistArray) -> tuple[DistArray, int]:
    """Blind repartition comparator: re-split the global order evenly.

    Every element whose contiguous-layout position falls on another PE
    moves; volume can approach ``n`` even for mild imbalance.  Used by
    ``benchmarks/bench_redistribution.py`` as the contrast to the
    adaptive scheme.  Like :func:`redistribute`, the exchange executes
    worker-to-worker over resident chunks; the driver only derives the
    slice bounds from the tracked sizes and charges the alltoall model.
    """
    p = machine.p
    sizes = data.sizes()
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n = int(offsets[-1])
    target = np.array_split(np.arange(n), p)
    bounds = [(int(t[0]), int(t[-1]) + 1) if len(t) else (0, 0) for t in target]
    words = np.zeros((p, p), dtype=np.float64)
    moved = 0
    for i in range(p):
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        for j in range(p):
            t_lo, t_hi = bounds[j]
            a, b = max(lo, t_lo), min(hi, t_hi)
            if a < b:
                words[i][j] = b - a
                if i != j:
                    moved += b - a
    srcs = [
        [i for i in range(p) if i != j and words[i][j] > 0] for j in range(p)
    ]
    rows = words.tolist()
    riders = [(int(offsets[i]), srcs[i], rows[i]) for i in range(p)]
    _, _, ref = machine.run_command(_naive_rebalance_kernel, (data._ensure_ref(), riders),
                                    (bounds,), n_addrs=0, keep=True)
    new_sizes = [hi - lo for lo, hi in bounds]
    return DistArray(machine, ref=ref, sizes=new_sizes, dtype=data.dtype), moved
