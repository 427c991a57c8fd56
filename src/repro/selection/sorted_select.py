"""Multisequence selection from locally sorted input (Appendix A, Alg. 9).

Each PE holds a locally *sorted* sequence; we must find the globally
k-th smallest element.  The algorithm is distributed quickselect over
per-PE windows, which start as each PE's first ``min(len, k)``
elements (the search never looks further).  The caller supplies the
global size ``n`` -- the driver knows it, and the one-word
all-reduction that would learn it heads the charge log -- so a call
runs:

1. one ``allreduce_exscan`` of the window sizes: the total sizes the
   search, the exclusive prefix is this PE's offset in it;
2. per round, two dependent collectives: a min-reduction sharing the
   pivot ``v`` -- the g-th remaining element, ``g`` drawn from the
   synchronized stream, read by the PE whose offset range holds it --
   and one ``allreduce_exscan`` of this PE's ``[#< v, #== v]`` in its
   window (found by *binary search*: sortedness replaces the linear
   partition of unsorted quickselect).  Its totals decide the side,
   and its prefixes give the next window's offset (``p_lt`` on the low
   side, ``offset - p_lt - p_eq`` on the high side), so no round pays
   for its window sizes again;
3. once the remaining windows hold at most ``base_case`` elements, one
   allgather of them, after which every PE finishes sequentially.

Each PE's *cut* -- its share of the k smallest, threshold ties granted
in PE order -- costs no further collective: a pivot that hits rank k
grants ``clip(k - n_lt - p_eq, 0, eq)`` from that round's counts, and
at the base case every PE counts ``<`` and ``==`` in the replicated
windows itself.

Expected ``O((alpha log p + log min(n/p, k)) * log min(kp, n))``, i.e.
``O(alpha log^2 kp)`` (Theorem 16).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from ..common.ordering import TOP
from ..common.validation import check_rank
from ..machine import DistArray, Machine
from .accessors import SortedSequence, as_sorted_seq

__all__ = ["ms_select", "ms_select_with_cuts", "MsSelectStats"]


@dataclass(frozen=True)
class MsSelectStats:
    """Diagnostics of one msSelect run (latency is rounds-dominated).

    ``rounds`` counts pivot rounds; ``comm_rounds`` every collective
    the call is charged: the size all-reduction, the opening
    ``allreduce_exscan``, two per pivot round and the base case's
    allgather, if it ran."""

    value: object
    rounds: int
    comm_rounds: int


def run_sorted(machine: Machine, seqs, gen, check) -> tuple[int, list]:
    """Run the sorted-input selection generator ``gen`` as ONE worker
    command.

    ``seqs`` is one sorted sequence per PE: arrays or
    :class:`SortedSequence` adapters, which ride along with the command
    (adapters must pickle on real backends), or a
    :class:`~repro.machine.DistArray` of sorted chunks, which stays
    where it is.  ``check(n)`` validates the caller's ranks against the
    global size ``n`` and returns ``(ranks, options)``; a refused call
    is neither charged, sent nor drawn for.  Every PE runs
    ``gen(rank, p, seq, *ranks, n, addr, log, **options)`` under one
    fresh draw address, the one-word all-reduction of the size heading
    its log.  Returns ``(collectives, results)``: the number of
    collectives the call is charged and every PE's result.
    """
    p = machine.p
    if isinstance(seqs, DistArray):
        n, source = seqs.global_size, seqs._ensure_ref()
    else:
        source = [as_sorted_seq(s) for s in seqs]
        if len(source) != p:
            raise ValueError(f"need one sequence per PE (p={p}, got {len(source)})")
        n = sum(len(s) for s in source)
    ranks, options = check(n)
    return machine.run_command(_sorted_cmd, source, (gen, ranks, n, options))


def _sorted_cmd(rank: int, p: int, seq, take, log: list, gen, ranks: tuple,
                n: int, options: dict):
    """:func:`run_sorted`'s command on one PE: the size the driver
    tracks heads the log, then ``gen`` draws from the command's one
    address.  Returns the collectives charged and this PE's result."""
    log.append(("allreduce", 1))
    result = yield from gen(rank, p, as_sorted_seq(seq), *ranks, n, take(), log, **options)
    return sum(entry[0] != "ops" for entry in log), result


def ms_select(
    machine: Machine,
    seqs,
    k: int,
    *,
    base_case: int = 64,
    max_rounds: int = 200,
    return_stats: bool = False,
):
    """Globally k-th smallest element of ``p`` locally sorted sequences.

    The whole of :func:`ms_select_gen` runs as one worker command.

    Parameters
    ----------
    seqs:
        One :class:`SortedSequence` (or ascending ``np.ndarray``) per
        PE, which rides along with the command (adapters must pickle on
        real backends), or a :class:`~repro.machine.DistArray` of sorted
        chunks, which stays where it is.
    k:
        Target rank, 1-based.
    base_case:
        Remaining window size below which the PEs finish sequentially
        on the gathered windows.
    """
    comm_rounds, results = run_sorted(
        machine, seqs, ms_select_gen,
        lambda n: ((check_rank(k, n),), {"base_case": base_case, "max_rounds": max_rounds}),
    )
    value, rounds = results[0]
    return MsSelectStats(value, rounds, comm_rounds) if return_stats else value


def ms_select_with_cuts(
    machine: Machine, seqs, k: int, *, base_case: int = 64,
    max_rounds: int = 200,
) -> tuple[object, list[int]]:
    """k-th smallest plus exact per-PE selection counts.

    Returns ``(value, cuts)`` where ``cuts[i]`` is the number of elements
    PE ``i`` contributes to the global k smallest; ``sum(cuts) == k``
    exactly (duplicate threshold elements are granted in PE order, as in
    Section 4's output convention, from the last round's prefix sums or
    the base case's replicated windows -- no collective of their own).
    ``seqs`` is as for :func:`ms_select`; :func:`ms_select_with_cuts_gen`
    runs as one worker command.
    """
    _, results = run_sorted(
        machine, seqs, ms_select_with_cuts_gen,
        lambda n: ((check_rank(k, n),), {"base_case": base_case, "max_rounds": max_rounds}),
    )
    return results[0][0], [r[1] for r in results]


def _count_lt(seq: SortedSequence, v, lo: int, hi: int) -> int:
    """Elements strictly below ``v`` inside window ``[lo, hi)``."""
    arr = getattr(seq, "arr", None)
    if arr is not None:
        return int(np.clip(np.searchsorted(arr, v, side="left"), lo, hi)) - lo
    # generic adapter: binary search on item() for the left boundary
    a, b = lo, hi
    while a < b:
        m = (a + b) // 2
        if seq.item(m) < v:
            a = m + 1
        else:
            b = m
    return a - lo


# ----------------------------------------------------------------------
# SPMD generator form: the one implementation
# ----------------------------------------------------------------------
#
# Each rank sees only its own sequence.  Embedded collectives are
# ``yield``ed, randomness comes from the streams of the draw address
# ``addr`` the calling kernel hands in, derived in place
# (:mod:`repro.machine.ctrrng` -- no state crosses the wire), and local
# work is appended to ``log`` (each collective charges itself).
# The public selectors above run them as one worker command each
# (:func:`run_sorted`); the bulk priority queues and DTA run them by
# ``yield from`` inside their own commands, where their data lives.

def ms_select_gen(rank, p, seq, k, n, addr, log, *, base_case=64,
                  max_rounds=200):
    """SPMD generator: globally k-th smallest over per-rank sorted views.

    ``seq`` is this rank's :class:`SortedSequence`-style view and ``n``
    the global size, which the caller knows (no collective learns it);
    the pivots are drawn from the replicated stream of the counter draw
    address ``addr`` (``addr.shared()`` -- every rank constructs the
    identical stream).  Yields one ``allreduce_exscan``, then two
    collectives per round and the base case's allgather; returns
    ``(value, rounds)``.
    """
    value, rounds, _ = yield from _search_gen(
        rank, p, seq, k, n, addr.shared(), log, base_case, max_rounds)
    return value, rounds


def ms_select_with_cuts_gen(rank, p, seq, k, n, addr, log, *,
                            base_case=64, max_rounds=200):
    """SPMD generator: k-th smallest plus this rank's exact cut.

    Arguments and collectives are :func:`ms_select_gen`'s: the cut
    needs none of its own (the tie quota is granted in PE order from
    the last round's prefix sums, or from the replicated base-case
    windows).  Returns ``(value, cut, rounds)`` with ``sum(cut) == k``
    across ranks.
    """
    value, rounds, cut = yield from _search_gen(
        rank, p, seq, k, n, addr.shared(), log, base_case, max_rounds)
    return value, cut(), rounds


def _search_gen(rank, p, seq, k, n, shared_rng, log, base_case, max_rounds):
    """The rounds of :func:`ms_select_gen`.  Returns ``(value, rounds,
    cut)``; calling ``cut()`` gives this rank's share of the k smallest
    (charging the base case's local counting)."""
    k = check_rank(k, n)
    lo, hi = 0, min(len(seq), k)
    total, offset = yield ("allreduce_exscan", hi - lo, "sum", 0)
    rounds = 0
    while True:
        size = hi - lo
        if total <= max(base_case, 1) or rounds >= max_rounds:
            window = [seq.item(x) for x in range(lo, hi)]
            log.append(("ops", max(1, size)))
            gathered = yield ("allgather", window)
            rest = sorted(x for w in gathered for x in w)
            log.append(("ops", len(rest) * np.log2(max(len(rest), 2))))
            value = rest[min(k, len(rest)) - 1]
            value = value.item() if hasattr(value, "item") else value
            return value, rounds, lambda: lo + _base_cut(
                rank, gathered, value, k, log)

        # pivot: the g-th element of the remaining windows, g replicated
        g = int(shared_rng.integers(total))
        if offset <= g < offset + size:
            candidate = seq.item(lo + (g - offset))
            log.append(("ops", np.log2(max(size, 2))))
        else:
            candidate = TOP
            log.append(("ops", 0.0))
        v = yield ("allreduce", candidate, "min")

        le = int(np.clip(seq.count_le(v), lo, hi)) - lo
        lt = _count_lt(seq, v, lo, hi)
        eq = le - lt
        log.append(("ops", np.log2(max(size, 2))))
        counts, before = yield (
            "allreduce_exscan", np.array([lt, eq], dtype=np.int64), "sum",
            np.zeros(2, dtype=np.int64),
        )
        n_lt, n_eq = int(counts[0]), int(counts[1])
        p_lt, p_eq = int(before[0]), int(before[1])
        rounds += 1

        if n_lt >= k:
            hi = lo + lt
            total = n_lt
            offset = p_lt
        elif n_lt + n_eq >= k:
            cut = lo + lt + int(np.clip(k - n_lt - p_eq, 0, eq))
            return v, rounds, lambda: cut
        else:
            lo += lt + eq
            k -= n_lt + n_eq
            total -= n_lt + n_eq
            offset -= p_lt + p_eq


def _base_cut(rank: int, gathered: list, value, k: int, log: list) -> int:
    """This rank's cut into its base-case window: the windows are
    replicated, so every rank counts each one's ``< value`` and
    ``== value`` itself and grants the ``k - #<`` ties in PE order."""
    lt = np.array([bisect_left(w, value) for w in gathered], dtype=np.int64)
    eq = np.array([bisect_right(w, value) for w in gathered],
                  dtype=np.int64) - lt
    log.append(("ops", sum(np.log2(max(len(w), 2)) for w in gathered)))
    quota = k - int(lt.sum()) - int(eq[:rank].sum())
    return int(lt[rank]) + int(np.clip(quota, 0, eq[rank]))
