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
  sample at rate ``SAMPLE_FACTOR sqrt(p) / n`` (``7/4``: at p = 2 a
  union of expected size ``sqrt(2)`` is empty a quarter of the time,
  and each empty union is an allgather that makes no progress) where
  the data lives (counter-addressed randomness,
  :mod:`repro.machine.ctrrng` -- the driver ships a tiny draw address,
  never index arrays or generator state) and fuses every segment's
  sample (plus finishing segments' residual content) into one
  in-worker allgather of ONE packed message per rank -- an array plus a
  list of segment sizes, however many segments are active;
* the **partition-count half** fuses all split segments' two-word part
  counts into one in-worker all-reduction and -- because the reduced
  counts are replicated -- derives the next level's segment records
  identically on every rank.

**Generalized base case.**  A segment of global size ``n > base_case``
whose ranks all lie within ``T = max(1, base_case // (2 ceil(log2
p)))`` of its bottom or its top (rank ``k <= T`` or ``n - k < T``;
``T`` = 32 at p <= 2) does not halve its way down to the base case.
It draws nothing and adds nothing to the sample allgather; each PE's
``w_lo`` smallest and ``w_hi`` largest elements (``w_lo`` the deepest
bottom rank, ``w_hi`` the deepest top rank counted from the top) ride
the level's part-count all-reduction, whose one callable op adds the
counts and keep-width merges each end block, and the ranks are read
off the merged blocks -- the textbook keep-k merge reduction, at most
``2 T ceil(log2 p)`` words, which is a base case's worth.  So a top-k
block, rank 1 or a quantile near 0 or 1 costs one all-reduction, and a
deep segment whose ranks land near its edge finishes a level early.
A segment of at most ``base_case`` elements finishes the same way
instead of allgathering its residual: each rank goes to the block of
its nearer end (reach ``max(T, n // 2 + 1)``) whenever all ``p`` PEs'
blocks together hold no more than the residual, ``(w_lo + w_hi) p <=
n``, so a level whose every segment is small and has its ranks near
its ends pays the all-reduction alone.
The one-rank :func:`~repro.selection.unsorted.select_kth_gen` keeps
Algorithm 1 throughout (the frequent pipelines select their threshold
through it, where a duplicate pivot ends a count multiset's recursion
for fewer words).

A level counts first and copies last: the sample half only *counts* a
segment's three parts around the pivot pair
(:func:`~repro.kernels.partition_count`); the count half, once the
totals say which parts hold a rank, copies those and no other
(:func:`~repro.kernels.partition_take`; a ``lo == hi`` hit and a
rank-free part copy nothing).  Theorem 1 charges ``O(n/p)`` per level;
the wall cost is now one mask pass plus one copy of what survives.

So a call costs one driver send and one result per PE, whatever the
recursion depth, and each level costs at most the two ``O(beta m +
alpha log p)`` collectives Theorem 1 charges: the allgather (skipped
when every segment of the level finishes at its ends) and the
all-reduction, charged ``len(counts) + sum(w_lo + w_hi)`` words.  The
end pass is charged ``("ops", local size)`` at its segment's place in
the sample half.  Only the results and each PE's
charge log return; the driver replays it in one
:meth:`~repro.machine.Machine.replay_charges` call, so the modeled
cost is bit-identical on every backend.

**Windows and counts.**  :func:`multi_select_windows` takes its root
segments from the caller as value windows ``(lo, hi)`` whose offsets
and sizes the caller already knows (the serve engine's index of earlier
answers); each PE filters its chunk into the windows, charged as one
local pass, and the level loop runs unchanged inside them.
:func:`multi_select` is the one window open at both ends, with no
filter pass.  Every resolved rank also
returns the global counts of elements ``<`` and ``<=`` its value, at no
communication: segments are value-closed, so a base-case answer's
counts are searched in the sorted residual, a pivot hit's are the part
sizes, and an end block's are exact except across the block's edge
value.  The pivots themselves are answers too: once a level's
all-reduction has summed a split's part counts, every PE knows the
global rank of its lower pivot (with the count below it) and of its
upper one (with the count through it), so :func:`multi_select_windows`
returns those ranks beside the asked ones -- a caller that keeps them
(the serve engine) starts its next windows at the cut points of every
level this call ran.  :func:`multi_select` has no use for them, so its
command sends back the asked ranks alone.

:func:`quantiles` exposes the everyday use case (percentiles /
histogram boundaries of a distributed vector).
"""

from __future__ import annotations

import itertools

import numpy as np

from ..common.sampling import bernoulli_sample_indices
from ..common.validation import as_rank, is_fraction
from ..kernels import compact, partition_count, partition_take
from ..machine import DistArray, Machine, charged
from ..machine.ctrrng import STREAM_LOCAL, readdress
from .sequential import fr_pivots

__all__ = ["multi_select", "multi_select_windows", "quantiles"]

#: a split segment's Bernoulli rate is ``SAMPLE_FACTOR sqrt(p) / n``
SAMPLE_FACTOR = 7 / 4


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


def _end_reach(p: int, base_case: int) -> int:
    """``T``: how near an end of its segment every rank must sit for the
    segment to finish by keep-width merging.  A PE's end blocks hold at
    most ``2 T`` words and ride ``ceil(log2 p)`` rounds, so the merge
    adds at most a base case's worth of words to the all-reduction."""
    return max(1, base_case // (2 * max(1, (p - 1).bit_length())))


def _end_widths(ranks: tuple, n: int, reach: int):
    """``(w_lo, w_hi)`` when every one of the ascending ``ranks`` lies
    within ``reach`` of the bottom or the top of a segment of global
    size ``n``: the number of smallest / largest elements that hold
    them.  ``None`` when a rank lies deeper."""
    low = [k for k in ranks if k <= reach]
    high = ranks[len(low):]
    if high and n - high[0] >= reach:
        return None
    return (low[-1] if low else 0), (n - high[0] + 1 if high else 0)


def _finish_widths(ranks: tuple, n: int, p: int, base_case: int, reach: int):
    """``(w_lo, w_hi)`` when a segment finishes by its end blocks in the
    level's all-reduction, ``None`` when it splits or allgathers its
    residual.  A segment above the base case needs every rank within
    ``reach`` of an end.  A base-case segment puts each rank in the
    block of its nearer end, and takes the blocks when all ``p`` PEs'
    blocks together hold no more than the residual would have sent."""
    if n > base_case:
        return _end_widths(ranks, n, reach)
    ends = _end_widths(ranks, n, max(reach, n // 2 + 1))
    return ends if ends is not None and (ends[0] + ends[1]) * p <= n else None


def _local_ends(arr: np.ndarray, w_lo: int, w_hi: int):
    """This PE's ``w_lo`` smallest and ``w_hi`` largest elements, each
    sorted (all of them where the slice holds fewer)."""
    size = int(arr.size)
    lo = arr[:0] if w_lo == 0 else np.sort(
        arr if size <= w_lo else np.partition(arr, w_lo - 1)[:w_lo])
    hi = arr[:0] if w_hi == 0 else np.sort(
        arr if size <= w_hi else np.partition(arr, size - w_hi)[size - w_hi:])
    return lo, hi


def _keep(a: np.ndarray, b: np.ndarray, width: int, top: bool) -> np.ndarray:
    """The ``width`` smallest (or largest) of two sorted end blocks."""
    if not a.size:
        return b
    if not b.size:
        return a
    both = np.sort(np.concatenate((a, b)))
    return both[max(0, both.size - width):] if top else both[:width]


def _counts_and_ends(a: tuple, b: tuple) -> tuple:
    """The level's all-reduction op: the split segments' part counts
    add, and each finishing segment's end blocks keep their width of
    the merged smallest / largest elements."""
    (counts_a, ends_a), (counts_b, ends_b) = a, b
    return counts_a + counts_b, [
        (w_lo, _keep(lo_a, lo_b, w_lo, False), w_hi, _keep(hi_a, hi_b, w_hi, True))
        for (w_lo, lo_a, w_hi, hi_a), (_, lo_b, _, hi_b) in zip(ends_a, ends_b)
    ]


def _resolved(v, n_less, n_leq) -> tuple:
    """A resolved rank's ``(value, n_less, n_leq)``: the value as a
    Python scalar and the global counts of elements ``< value`` and
    ``<= value`` (``None`` where unknown).  Segments are value-closed --
    a level splits into ``< lo``, ``[lo, hi]`` and the rest, so a value's
    every copy shares its segment -- which makes counts taken inside a
    segment global once its offset is added.  A NaN answer keeps no
    counts: it never brackets a later query."""
    v = v.item() if hasattr(v, "item") else v
    return (v, None, None) if v != v else (v, n_less, n_leq)


def _end_resolved(k, lo, hi, w_lo, w_hi, offset, n) -> tuple:
    """:func:`_resolved` for rank ``k`` of a segment finished by its
    merged end blocks.  A block holds the segment's ``w`` smallest (or
    largest) elements, so counts on the near side of a value are exact;
    the count across the block's edge value is unknown, since more
    copies of it may lie beyond the block."""
    if k <= w_lo:
        v = lo[k - 1]
        upto = int(np.searchsorted(lo, v, "right"))
        return _resolved(v, offset + int(np.searchsorted(lo, v, "left")),
                         offset + upto if upto < w_lo else None)
    v = hi[k - (n - w_hi) - 1]
    below = int(np.searchsorted(hi, v, "left"))
    base = offset + n - w_hi
    return _resolved(v, base + below if below else None,
                     base + int(np.searchsorted(hi, v, "right")))


def _pivot_facts(lo_p, hi_p, offset: int, na: int, nb: int) -> list[tuple]:
    """The ranks a split segment's pivot pair pins, once the level's
    all-reduction has summed its part counts: ``na`` elements lie below
    ``lo_p`` and ``nb`` in ``[lo_p, hi_p]``.  Both pivots are elements
    of the value-closed segment, so ``lo_p`` is the global rank
    ``offset + na + 1`` with ``offset + na`` elements below it, and
    ``hi_p`` the rank ``offset + na + nb`` with that many at or below it;
    equal pivots know both counts.  A NaN pivot pins nothing: nothing
    compares below it, so ``na`` does not place it (and it leaves ``nb =
    0``)."""
    if lo_p != lo_p:
        return []
    less, leq = offset + na, offset + na + nb
    tie = lo_p == hi_p
    facts = [(less + 1, _resolved(lo_p, less, leq if tie else None))]
    if nb > 0:
        facts.append((leq, _resolved(hi_p, less if tie else None, leq)))
    return facts


def _merged(a: tuple, b: tuple) -> tuple:
    """Two pins of one rank: ``a``'s value, and every count either
    learned."""
    return (a[0], b[1] if a[1] is None else a[1], b[2] if a[2] is None else a[2])


def _in_window(chunk: np.ndarray, lo, hi) -> np.ndarray:
    """This PE's elements of the open value window ``(lo, hi)``
    (``None``: that end is open), in chunk order: ``x`` is in when ``not
    x <= lo`` and ``x < hi``, :func:`~repro.kernels.partition_count`'s
    comparisons.  NaN fails both tests, so it lands only in a window
    open above, where the recursion puts it (above every value)."""
    if lo is None and hi is None:
        return chunk
    mask = None
    if lo is not None:
        mask = chunk <= lo
        np.logical_not(mask, out=mask)
    if hi is not None:
        below = chunk < hi
        mask = below if mask is None else np.logical_and(mask, below, out=mask)
    return compact(chunk, mask, int(np.count_nonzero(mask)))


def _ms_sample_kernel(rank: int, segs: list, p: int, gen, base_case: int,
                      force: bool, log: list):
    """Sample-extract half of one recursion level.

    A segment that :func:`_finish_widths` finishes at its ends (one
    larger than the base case whose ranks all lie within
    :func:`_end_reach` of its ends, or a base-case segment whose end
    blocks are no larger than its residual) draws nothing and sends
    nothing here: its local end blocks are cut out for the count half's
    all-reduction.  Every other base-case segment sends its residual;
    every other segment draws its Bernoulli sample
    indices in place from ``gen``, the command's handle at the level's
    address ``addr.local(rank, draw=level)`` (the whole multiselection
    owns one draw sequence; the level index subdivides it, so the
    data-dependent depth never perturbs a later caller's draws).  All
    samples -- and finishing segments' full residual content -- ride ONE
    in-worker allgather as one packed message per rank: their
    concatenation in segment order plus the list of their sizes, which
    the receivers cut back into views.  A level whose every segment
    finishes at its ends skips the allgather.  Pivots are computed
    replicated and each split segment's local part counts and marks
    (not the parts) handed to the count half.

    Logs the level's sample-half work per segment: its end pass, its
    finishing sort, or its sample draw (plus, for a split, the union
    sort and the partition pass) -- as Python floats, which pickle as 9
    bytes where a NumPy scalar takes a reduce call.
    Returns ``(inter, finishes)`` where ``finishes`` is the replicated
    list of resolved ``(global_rank, (value, n_less, n_leq))`` pairs
    (:func:`_resolved`; a base-case answer's counts are searched in the
    sorted residual).
    """
    reach = _end_reach(p, base_case)
    plans: list = []
    samples: list[np.ndarray] = []
    for arr, ranks, offset, n in segs:
        ends = _finish_widths(ranks, n, p, base_case, reach)
        if ends is not None:
            plans.append(ends)
        elif n <= base_case or force:
            plans.append(None)
            samples.append(arr)  # residual content is small by now
        else:
            rho = min(1.0, SAMPLE_FACTOR * np.sqrt(p) / n)
            idx = bernoulli_sample_indices(gen, int(arr.size), rho)
            plans.append(rho)
            samples.append(arr if idx is None else arr[idx])
    bounds: list = []
    if samples:  # replicated: one per segment that does not finish at its ends
        sizes = [int(s.size) for s in samples]
        packed = np.concatenate(samples)
        gathered = yield charged(("allgather", (packed, sizes)),
                                 ("allgather", int(packed.size)))
        # each rank's packed message, cut back into per-segment views
        bounds = [(g, [0, *itertools.accumulate(gs)]) for g, gs in gathered]

    inter: list = []
    finishes: list[tuple] = []
    s = 0  # this segment's place in the packed message
    for (arr, ranks, offset, n), plan in zip(segs, plans):
        if isinstance(plan, tuple):
            w_lo, w_hi = plan
            lo, hi = _local_ends(arr, w_lo, w_hi)
            log.append(("ops", float(arr.size)))  # the end pass
            inter.append(("ends", w_lo, lo, w_hi, hi, ranks, offset, n))
            continue
        contrib = [g[b[s]:b[s + 1]] for g, b in bounds if b[s + 1] > b[s]]
        s += 1
        rho = plan
        if rho is None:
            rest = np.sort(np.concatenate(contrib)) if contrib else arr[:0]
            for k in ranks:
                v = rest[min(k, rest.size) - 1]
                finishes.append((offset + k, _resolved(
                    v, offset + int(np.searchsorted(rest, v, "left")),
                    offset + int(np.searchsorted(rest, v, "right")))))
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

    All split segments' two-word part counts and all finishing
    segments' end blocks share ONE in-worker all-reduction
    (:func:`_counts_and_ends`, charged ``len(counts) + sum(w_lo + w_hi)``
    words in ``log``).  The merged end blocks hold the finishing
    segments' ranks; the replicated totals let every rank derive the
    next level's segment records identically, and only the parts that
    hold a rank are copied out of their segment.  Returns ``(new_segs,
    found, pinned)``: the surviving segments, the replicated
    ``(global_rank, (value, n_less, n_leq))`` pairs resolved by an end
    block (:func:`_end_resolved`) or an exact pivot hit, whose counts are
    the part sizes below and through the pivot, and the same pairs for
    every split segment's pivots (:func:`_pivot_facts`), asked or not.
    ``inter`` is emptied as it is read, so that a split segment's slice
    and masks are freed once its parts are copied out instead of living
    beside the whole next level.
    """
    counts_vec: list[int] = []
    ends: list[tuple] = []
    for entry in inter:
        if entry is None:
            continue
        if entry[0] == "split":
            counts_vec.extend(entry[2])
        elif entry[0] == "ends":
            ends.append(entry[1:5])
    totals = merged = None
    if counts_vec or ends:  # replicated decision: all ranks agree
        totals, merged = yield charged(
            ("allreduce", (np.asarray(counts_vec, dtype=np.int64), ends), _counts_and_ends),
            ("allreduce", len(counts_vec) + sum(e[0] + e[2] for e in ends)),
        )

    new_segs: list = []
    found: list[tuple] = []
    pinned: list[tuple] = []
    ci = ei = 0
    for i, entry in enumerate(inter):
        inter[i] = None
        if entry is None:  # finished at the sample half
            continue
        if entry[0] == "retry":
            _, arr, ranks, offset, n = entry
            new_segs.append((arr, ranks, offset, n))
            continue
        if entry[0] == "ends":
            _, w_lo, _, w_hi, _, ranks, offset, n = entry
            _, lo, _, hi = merged[ei]
            ei += 1
            for k in ranks:
                found.append((offset + k, _end_resolved(
                    k, lo, hi, w_lo, w_hi, offset, n)))
            continue
        _, arr, (la, lb), masks, lo_p, hi_p, ranks, offset, n = entry
        na, nb = int(totals[2 * ci]), int(totals[2 * ci + 1])
        ci += 1
        pinned.extend(_pivot_facts(lo_p, hi_p, offset, na, nb))
        lo_ranks = tuple(k for k in ranks if k <= na)
        mid_ranks = tuple(k - na for k in ranks if na < k <= na + nb)
        hi_ranks = tuple(k - na - nb for k in ranks if k > na + nb)
        if lo_ranks:
            new_segs.append(
                (partition_take(arr, masks, 0, la), lo_ranks, offset, na)
            )
        if mid_ranks:
            if lo_p == hi_p:
                hit = _resolved(lo_p, offset + na, offset + na + nb)
                for k in mid_ranks:
                    found.append((offset + na + k, hit))
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
    return new_segs, found, pinned


def _ms_kernel(rank: int, p: int, chunk: np.ndarray, take, log: list, windows: list,
               base_case: int, max_depth: int, pins: bool):
    """The whole shared recursion, where the data lives.

    ``windows`` holds the root segments as ``(lo, hi, offset, n,
    ranks)`` records (ranks relative to the window).  A window's size
    comes from its caller; the root's falls out of the driver-tracked
    sizes, so the one-word all-reduction the algorithm needs heads the
    log when a window is open at both ends.  A window bounded
    at either end is filtered out of the chunk first (a comparison mask
    per window; the windows are disjoint, so the model charges one pass,
    ``("ops", chunk size)``); the one window open at both ends is the
    chunk itself and costs no pass.  Then the level halves loop until
    no segment survives (``segs`` has the same shape on every rank, so
    the loop is lockstep); level ``max_depth`` forces every remaining
    segment to finish.  One draw handle serves the command, moved to
    each level's address: the command's one, so the data-dependent
    recursion depth never perturbs any later caller's draws.  Returns
    the ``{global_rank: (value, n_less, n_leq)}`` results -- the asked
    ranks and, with ``pins``, every rank a pivot pinned, each pin
    merged by :func:`_merged` -- (replicated, so only rank 0's return
    to the driver).
    """
    addr = take()
    if any(lo is None and hi is None for lo, hi, *_ in windows):
        log.append(("allreduce", 1))
    chunk = np.asarray(chunk)
    segs = [(_in_window(chunk, lo, hi), ranks, offset, n)
            for lo, hi, offset, n, ranks in windows]
    if any(lo is not None or hi is not None for lo, hi, *_ in windows):
        log.append(("ops", float(chunk.size)))  # the window filter pass
    out: dict = {}
    gen = addr.local(rank)
    level = 0
    while segs:
        level += 1
        readdress(gen, addr.seed, STREAM_LOCAL, rank, addr.seq, level)
        inter, finishes = yield from _ms_sample_kernel(
            rank, segs, p, gen, base_case, level >= max_depth, log
        )
        segs = None  # ``inter`` holds the slices now
        segs, found, pinned = yield from _ms_count_kernel(rank, inter, log)
        for k, fact in finishes + found:  # an asked rank keeps its own value
            out[k] = _merged(fact, out[k]) if k in out else fact
        for k, fact in pinned if pins else ():
            out[k] = _merged(out[k], fact) if k in out else fact
    return out, None


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
    covering every active segment, and a segment whose ranks all sit
    near its ends finishes in that all-reduction (a call whose ranks
    all do pays the all-reduction alone); all levels execute inside one
    resident SPMD command (the slices never leave the backend), which
    sends back the asked ranks alone.
    """
    n = data.global_size
    ks_sorted = sorted({as_rank(k, "rank") for k in ks})
    if not ks_sorted:
        return []
    if ks_sorted[0] < 1 or ks_sorted[-1] > n:
        raise ValueError(f"ranks must lie in 1..{n}, got {ks_sorted[0]}..{ks_sorted[-1]}")
    out = _select(machine, data, [(None, None, 0, n, tuple(ks_sorted))],
                  base_case, max_depth, pins=False)
    return [out[k][0] for k in ks_sorted]


def multi_select_windows(
    machine: Machine,
    data: DistArray,
    windows,
    *,
    base_case: int | None = None,
    max_depth: int = 80,
) -> dict:
    """Order statistics of ``data`` found inside value windows, with
    their exact counts.

    ``windows`` lists disjoint ``(lo, hi, offset, size, ranks)``: the
    elements strictly between the values ``lo`` and ``hi`` (``None``
    leaves that end open) are those of global ranks ``offset + 1 ..
    offset + size``, and ``ranks`` (ascending) are the global ranks
    wanted from the window.  A caller that knows, for values it has
    seen, how many elements lie below and through them (what this
    function returns) sizes a window with no collective: the recursion
    then runs inside the window only.  The one window ``(None, None, 0,
    n, ranks)`` is :func:`multi_select` itself, bit for bit -- the same
    values, charges and draw sequence.

    Returns ``{rank: (value, n_less, n_leq)}``, the global counts of
    elements ``< value`` and ``<= value``, ``None`` where the recursion
    did not learn one (across a finishing end block's edge value, and
    both for NaN).  Its keys are a superset of the asked ranks: every
    rank a split's pivot pinned comes back too, with the count the
    level's all-reduction gave it (both for a duplicate pivot), at no
    extra charge.  A rank pinned more than once keeps the asked answer's
    value and every count any pin learned.
    """
    roots = []  # the kernel's records: ranks relative to their window
    for lo, hi, offset, size, ranks in windows:
        offset, size, ranks = int(offset), int(size), [int(k) for k in ranks]
        if not ranks or ranks[0] <= offset or ranks[-1] > offset + size:
            raise ValueError(f"window ({lo!r}, {hi!r}) holds ranks "
                             f"{offset + 1}..{offset + size}, got {ranks}")
        roots.append((lo, hi, offset, size, tuple(k - offset for k in ranks)))
    return _select(machine, data, roots, base_case, max_depth, pins=True)


def _select(machine: Machine, data: DistArray, roots: list, base_case,
            max_depth: int, pins: bool) -> dict:
    """Run :func:`_ms_kernel` over the root windows ``roots`` as one
    command; ``pins`` keeps the ranks the pivots pinned in the
    result."""
    if base_case is None:
        base_case = int(max(64, 4 * np.sqrt(machine.p)))
    out, _ = machine.run_command(
        _ms_kernel, data._ensure_ref(), (roots, base_case, max_depth, pins))
    return out


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
