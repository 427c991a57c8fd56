"""Distributed multiselection: many ranks in one pass.

A natural library extension of Section 4.1 (the sequential analogue is
classic multiselection, cf. the multisequence selection literature the
paper cites [35, 38]): given ranks ``k_1 < ... < k_m``, find all m order
statistics.  Running Algorithm 1 independently m times costs
``O(m n/p)`` local work; sharing the partitioning between ranks brings
it down to ``O(n/p log m)`` -- each recursion level splits both the data
*and* the rank set, so every element takes part in at most
``O(log m + log_p n)`` partitioning rounds.

Execution is resident-chunk SPMD, the paper's own shape (every PE runs
the same program; Section 2 has no driver): the WHOLE shared recursion
is ONE worker command.  Each PE keeps its list of segment records next
to its slice and loops over levels in place; one level is two
``yield from`` halves:

* the **sample-extract half** draws each split segment's Bernoulli
  sample where the data lives (counter-addressed randomness,
  :mod:`repro.machine.ctrrng` -- the driver ships a tiny draw address,
  never index arrays or generator state) and fuses every segment's
  sample (plus finishing segments' residual content) into one
  in-worker allgather of ONE packed message per rank -- an array plus a
  list of segment sizes, however many segments are active;
* the **partition-count half** fuses all split segments' two-word part
  counts into one in-worker all-reduction and -- because the reduced
  counts are replicated -- derives the next level's segment records
  identically on every rank.

A level counts first and copies last: the sample half only *counts* a
segment's three parts around the pivot pair
(:func:`~repro.kernels.partition_count`); the count half, once the
totals say which parts hold a rank, copies those and no other
(:func:`~repro.kernels.partition_take`; a ``lo == hi`` hit and a
rank-free part copy nothing).  Theorem 1 charges ``O(n/p)`` per level;
the wall cost is now one mask pass plus one copy of what survives.

So a call costs one driver send and one result per PE, whatever the
recursion depth, and each level costs the two ``O(beta m + alpha log
p)`` collectives Theorem 1 charges.  Only the results and each PE's
charge log return (its sample words, local work and count words, in
the order a step-by-step driver would have charged them); the driver
replays the log in one :meth:`~repro.machine.Machine.replay_charges`
call, so the modeled cost is bit-identical on every backend.

:func:`quantiles` exposes the everyday use case (percentiles /
histogram boundaries of a distributed vector).
"""

from __future__ import annotations

import itertools

import numpy as np

from ..common.sampling import bernoulli_sample_indices
from ..common.validation import as_rank, is_fraction
from ..kernels import partition_count, partition_take
from ..machine import DistArray, Machine
from ..machine.ctrrng import STREAM_LOCAL, readdress
from .sequential import fr_pivots

__all__ = ["multi_select", "quantiles"]


# ----------------------------------------------------------------------
# Resident worker kernels (module-level so real backends can ship them)
# ----------------------------------------------------------------------
#
# Resident segment record, one list entry per active segment:
#     (arr, ranks, offset, n)
# where ``arr`` is this PE's slice, ``ranks`` the target ranks relative
# to the segment, ``offset`` the segment's global rank offset and ``n``
# its global size (replicated -- every PE derives the identical record
# list from the all-reduced part counts, which keeps the level loop in
# lockstep without a driver round trip).


def _ms_sample_kernel(rank: int, segs: list, p: int, gen, base_case: int,
                      force: bool, log: list):
    """Sample-extract half of one recursion level.

    Draws each split segment's Bernoulli sample indices in place from
    ``gen``, the command's handle at the level's address
    ``addr.local(rank, draw=level)`` (the whole multiselection owns one
    draw sequence; the level index subdivides it, so the data-dependent
    depth never perturbs a later caller's draws).  All samples -- and
    finishing segments' full residual content -- ride ONE in-worker
    allgather as one packed message per rank: their concatenation in
    segment order plus the list of their sizes, which the receivers cut
    back into views.  Pivots are computed replicated and each split
    segment's local part counts and marks (not the parts) handed to the
    count half.

    Appends the level's sample-half charges to ``log`` in the order a
    step-by-step driver charged them: the allgather, then per segment
    its finishing sort, or its sample draw (plus, for a split, the
    union sort and the partition pass) -- as Python floats, which
    pickle as 9 bytes where a NumPy scalar takes a reduce call.  Returns ``(inter, finishes)``
    where ``finishes`` is the replicated list of resolved
    ``(global_rank, value)`` pairs.
    """
    plans: list = []
    samples: list[np.ndarray] = []
    for arr, ranks, offset, n in segs:
        if n <= base_case or force:
            plans.append(None)
            samples.append(arr)  # residual content is small by now
        else:
            rho = min(1.0, np.sqrt(p) / n)
            idx = bernoulli_sample_indices(gen, int(arr.size), rho)
            plans.append(rho)
            samples.append(arr if idx is None else arr[idx])
    sizes = [int(s.size) for s in samples]
    packed = np.concatenate(samples)
    gathered = yield ("allgather", (packed, sizes))
    log.append(("allgather", int(packed.size)))
    # each rank's packed message, cut back into per-segment views
    bounds = [(g, [0, *itertools.accumulate(gs)]) for g, gs in gathered]

    inter: list = []
    finishes: list[tuple] = []
    for s, (arr, ranks, offset, n) in enumerate(segs):
        contrib = [g[b[s]:b[s + 1]] for g, b in bounds if b[s + 1] > b[s]]
        rho = plans[s]
        if rho is None:
            rest = np.sort(np.concatenate(contrib)) if contrib else arr[:0]
            for k in ranks:
                finishes.append(
                    (offset + k, rest[min(k, rest.size) - 1].item())
                )
            inter.append(None)
            rest_size = int(rest.size)
            log.append(("ops", float(max(1, rest_size) * np.log2(max(rest_size, 2)))))
            continue
        log.append(("ops", float(max(1.0, rho * arr.size))))  # the draw
        if not contrib:  # empty sample union: retry the segment
            inter.append(("retry", arr, ranks, offset, n))
            continue
        mid_rank = ranks[len(ranks) // 2]
        union = np.sort(np.concatenate(contrib))
        usize = int(union.size)
        log.append(("ops", float(usize * np.log2(max(usize, 2)))))  # union sort
        log.append(("ops", float(arr.size)))  # the partition pass
        lo_p, hi_p = fr_pivots(union, mid_rank, n)
        counts, masks = partition_count(arr, lo_p, hi_p)
        inter.append(
            ("split", arr, counts, masks, lo_p, hi_p, ranks, offset, n)
        )
    return inter, finishes


def _ms_count_kernel(rank: int, inter: list, log: list):
    """Partition-count half of one recursion level.

    All split segments' two-word part counts share one in-worker
    all-reduction (appended to ``log``); the replicated totals let
    every rank derive the next level's segment records identically, and
    only the parts that hold a rank are copied out of their segment.
    Returns ``(new_segs, found)``: the surviving segments and the
    replicated ``(global_rank, value)`` pairs resolved by an exact pivot
    hit.
    """
    counts_vec: list[int] = []
    for entry in inter:
        if entry is not None and entry[0] == "split":
            counts_vec.extend(entry[2])
    totals = None
    if counts_vec:  # replicated decision: all ranks agree
        totals = yield (
            "allreduce", np.asarray(counts_vec, dtype=np.int64), "sum"
        )
        log.append(("allreduce", len(counts_vec)))

    new_segs: list = []
    found: list[tuple] = []
    ci = 0
    for entry in inter:
        if entry is None:  # finished at the sample half
            continue
        if entry[0] == "retry":
            _, arr, ranks, offset, n = entry
            new_segs.append((arr, ranks, offset, n))
            continue
        _, arr, (la, lb), masks, lo_p, hi_p, ranks, offset, n = entry
        na, nb = int(totals[2 * ci]), int(totals[2 * ci + 1])
        ci += 1
        lo_ranks = tuple(k for k in ranks if k <= na)
        mid_ranks = tuple(k - na for k in ranks if na < k <= na + nb)
        hi_ranks = tuple(k - na - nb for k in ranks if k > na + nb)
        if lo_ranks:
            new_segs.append(
                (partition_take(arr, masks, 0, la), lo_ranks, offset, na)
            )
        if mid_ranks:
            if lo_p == hi_p:
                v = lo_p.item() if hasattr(lo_p, "item") else lo_p
                for k in mid_ranks:
                    found.append((offset + na + k, v))
            else:
                new_segs.append(
                    (partition_take(arr, masks, 1, lb), mid_ranks,
                     offset + na, nb)
                )
        if hi_ranks:
            new_segs.append(
                (partition_take(arr, masks, 2, arr.size - la - lb),
                 hi_ranks, offset + na + nb, n - na - nb)
            )
    return new_segs, found


def _ms_kernel(rank: int, chunk: np.ndarray, p: int, addr, ks: tuple,
               n_total: int, base_case: int, max_depth: int):
    """The whole shared recursion, where the data lives.

    Loops the two level halves until no segment survives (``segs`` has
    the same shape on every rank, so the loop is lockstep); level
    ``max_depth`` forces every remaining segment to finish.  One draw
    handle serves the command, moved to each level's address.  Returns
    the ``{global_rank: value}`` results (replicated, so only rank 0
    sends them back) and this PE's charge log for
    :meth:`Machine.replay_charges`.
    """
    segs = [(np.asarray(chunk), ks, 0, n_total)]
    out: dict = {}
    log: list = []
    gen = addr.local(rank)
    level = 0
    while segs:
        level += 1
        readdress(gen, addr.seed, STREAM_LOCAL, rank, addr.seq, level)
        inter, finishes = yield from _ms_sample_kernel(
            rank, segs, p, gen, base_case, level >= max_depth, log
        )
        segs, found = yield from _ms_count_kernel(rank, inter, log)
        out.update(finishes)
        out.update(found)
    return (out if rank == 0 else None), log


def multi_select(
    machine: Machine,
    data: DistArray,
    ks,
    *,
    base_case: int | None = None,
    max_depth: int = 80,
) -> list:
    """Values of all requested order statistics (1-based ranks).

    Returns results in the order of the *sorted, deduplicated* ranks --
    use :func:`quantiles` for a friendlier interface.  Cost: shared
    recursion over disjoint segments; each *level* pays one fused
    Bernoulli-sample allgather and one fused part-count all-reduction
    covering every active segment; all levels execute inside one
    resident SPMD command (the slices never leave the backend).
    """
    n = data.global_size
    ks_sorted = sorted({as_rank(k, "rank") for k in ks})
    if not ks_sorted:
        return []
    if ks_sorted[0] < 1 or ks_sorted[-1] > n:
        raise ValueError(f"ranks must lie in 1..{n}, got {ks_sorted[0]}..{ks_sorted[-1]}")
    p = machine.p
    if base_case is None:
        base_case = int(max(64, 4 * np.sqrt(p)))

    # The root size falls out of the driver-tracked sizes (the one-word
    # all-reduction the algorithm needs is charged through the meter).
    machine._meter_allreduce(words=1)
    # One draw sequence for the whole multiselection; levels subdivide
    # it by draw index, so the data-dependent recursion depth never
    # perturbs any later caller's draws.
    addr = machine.draw_addr()
    _, vals = machine.backend.run_spmd(
        _ms_kernel,
        [data._ensure_ref()],
        args=[(p, addr, tuple(ks_sorted), n, base_case, max_depth)] * p,
    )
    # re-play the model from the PEs' charge logs, in the order a
    # step-by-step driver would have charged it
    machine.replay_charges([log for _, log in vals])
    out = vals[0][0]
    return [out[k] for k in ks_sorted]


def quantiles(machine: Machine, data: DistArray, qs) -> list:
    """Distributed quantiles (e.g. ``qs=[0.25, 0.5, 0.75]``).

    Uses the nearest-rank definition: quantile q is the element of rank
    ``ceil(q * n)`` (rank 1 for q = 0).  Returns values in the order of
    the given ``qs``.
    """
    n = data.global_size
    if n == 0:
        raise ValueError("quantiles of an empty array")
    qs = list(qs)
    for q in qs:
        if not is_fraction(q):
            raise ValueError(f"quantiles must be numbers in [0, 1], got {q!r}")
    ranks = [max(1, int(np.ceil(q * n))) for q in qs]
    ordered = multi_select(machine, data, ranks)
    by_rank = dict(zip(sorted(set(ranks)), ordered))
    return [by_rank[r] for r in ranks]
