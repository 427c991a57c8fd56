"""Distributed selection from unsorted input (Section 4.1, Algorithm 1).

The communication-efficient Floyd-Rivest variant: in every level of
recursion each PE draws a *Bernoulli* sample of its local slice with
probability ``sqrt(p) / n`` (no random data redistribution is needed --
Theorem 1's key observation), the union of samples (expected size
``sqrt(p)``) is shared and sorted, the two pivots around the target rank
are picked, and every PE partitions its slice into

    ``a < lo_pivot <= b <= hi_pivot < c``.

A two-word all-reduction yields the global part sizes and the recursion
continues in the part containing rank ``k``.

Execution is resident-chunk SPMD, and the WHOLE recursion is ONE worker
command (the paper's machine has no driver: every PE runs the same
program).  The slices stay pinned in the backend's workers; each level
draws its sample *where the data lives* from the counter-addressed rng
(:mod:`repro.machine.ctrrng` -- only a tiny draw address crosses the
wire, never index sets or generator state), shares the sample union in
an in-worker allgather, counts the three parts locally and combines
the two-word counts in an in-worker all-reduction -- and only then
copies out the one part that holds rank ``k`` (count first, copy last:
Theorem 1 charges ``O(n/p)`` per level; the wall cost is now one mask
pass plus one copy of what survives); the level loop, the
duplicate-pivot early exit and the residual base case all run in the
workers.  Only the value and each PE's small charge log return, from
which the driver replays the cost model (:meth:`Machine.replay_charges`)
-- one driver send per call, modeled cost bit-identical on every backend.

Expected running time ``O(n/p + beta * min(sqrt(p) log_p n, n/p)
+ alpha * log n)`` (Theorem 1); for constant alpha/beta this is
``O(n/p + log p)`` (Corollary 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.sampling import bernoulli_sample_indices
from ..common.validation import check_rank
from ..kernels import partition_count, partition_take, topk_count, topk_cut
from ..machine import DistArray, Machine, charged
from ..machine.ctrrng import STREAM_LOCAL, readdress
from ..machine.metrics import payload_words
from .sequential import fr_pivots

__all__ = ["select_kth", "select_topk_smallest", "select_topk_largest", "SelectionStats"]


@dataclass(frozen=True)
class SelectionStats:
    """Diagnostics of one distributed selection run."""

    value: float
    rounds: int
    sample_total: int
    base_case_size: int


def default_base_case(p: int) -> int:
    """Residual size below which the recursion finishes sequentially."""
    return int(max(64, 4 * np.sqrt(p)))


# ----------------------------------------------------------------------
# Resident worker callbacks (module-level so real backends can ship them)
# ----------------------------------------------------------------------

def select_kth_gen(rank: int, p: int, chunk: np.ndarray, take, log: list, k: int,
                   n: int, sample_factor: float = 1.0, base_case: int | None = None,
                   max_rounds: int = 64):
    """The whole recursion of Algorithm 1, executed where the chunk lives.

    SPMD generator, in the calling convention of
    :meth:`Machine.run_command` (``take()`` hands out the command's next
    draw address; this takes one, at the start).  Per level: draw the
    Bernoulli(rho) sample *in the kernel* from the counter-addressed
    stream (the address's local stream, moved to ``draw=level`` -- the
    same bits on every backend, with nothing but the tiny address on
    the wire), share it (in-worker allgather), pick the Floyd-Rivest
    pivots from the replicated union, count the local slice's three
    parts, combine the two-word part counts (in-worker allreduce) and
    continue in the part holding rank ``k``, the only
    one ever copied (``k`` and the global size ``n`` are updated from
    the replicated counts, so every rank takes the same branch).  Once
    ``n <= base_case`` (or after ``max_rounds`` levels) the residual elements
    are shared and sorted and rank ``k`` read off.

    ``log`` takes the local work (each collective charges itself).
    ``base_case`` defaults to :func:`default_base_case`.  Returns
    ``(value, rounds, sample_total, base_case_size)``.
    """
    # one draw address for the whole recursion; each level subdivides
    # it via its ``draw=level`` slot, so the number of levels (which
    # varies with the data) never perturbs any later caller's draws
    addr = take()
    if base_case is None:
        base_case = default_base_case(p)
    rounds = sample_total = 0
    gen = addr.local(rank)  # one handle per command, moved every level
    while n > base_case and rounds < max_rounds:
        # Bernoulli sampling at rate sqrt(p)/n on every PE (Theorem 1)
        rho = min(1.0, sample_factor * np.sqrt(p) / n)
        readdress(gen, addr.seed, STREAM_LOCAL, rank, addr.seq, rounds)
        idx = bernoulli_sample_indices(gen, int(chunk.size), rho)
        rounds += 1
        sample = chunk.copy() if idx is None else chunk[idx]
        log.append(("ops", max(1.0, rho * int(chunk.size))))
        gathered = yield ("allgather", sample)
        nonempty = [s for s in gathered if s.size]
        if not nonempty:
            continue  # empty sample union: keep the slice and retry
        # the "fast inefficient sorting" of Section 2: the replicated
        # union (expected O(sqrt(p)) words per PE) is sorted locally
        union = np.sort(np.concatenate(nonempty))
        s_total = int(union.size)
        log.append(("ops", s_total * np.log2(max(s_total, 2))))
        sample_total += s_total
        lo_p, hi_p = fr_pivots(union, k, n)
        (la, lb), masks = partition_count(chunk, lo_p, hi_p)
        log.append(("ops", float(chunk.size)))
        totals = yield ("allreduce", np.array([la, lb], dtype=np.int64), "sum")
        na, nb = int(totals[0]), int(totals[1])
        # only now is the part holding rank k copied out
        if na >= k:
            part, size, n = 0, la, na
        elif na + nb < k:
            part, size = 2, chunk.size - la - lb
            k, n = k - na - nb, n - na - nb
        elif lo_p == hi_p:
            # rank k falls inside a run of duplicates of the pivot
            return lo_p.item(), rounds, sample_total, 0
        else:
            part, size, k, n = 1, lb, k - na, nb
        chunk = partition_take(chunk, masks, part, size)
    # base case: the data plane shares the residual elements with every
    # PE (one dissemination); the model charges gather + sort on PE 0 +
    # broadcast
    gathered = yield charged(("allgather", chunk), ("gather", int(chunk.size), 0))
    rest = np.sort(np.concatenate([c for c in gathered if c.size]))
    value = rest[min(k, rest.size) - 1].item()
    rest_size = int(rest.size)
    log.append(
        ("ops", rest_size * np.log2(max(rest_size, 2)) if rank == 0 else 0.0)
    )
    log.append(("broadcast", payload_words(value), 0))
    return value, rounds, sample_total, rest_size


def _select_kth_cmd(rank: int, p: int, chunk: np.ndarray, take, log: list, *args):
    """:func:`select_kth` where the chunk lives: the one-word
    all-reduction of the size the driver tracks heads the log, then
    :func:`select_kth_gen` (which pays a single collective per level,
    updating ``n`` from the part counts it already received)."""
    log.append(("allreduce", 1))
    return (yield from select_kth_gen(rank, p, chunk, take, log, *args)), None


def _topk_cut_kernel(rank: int, p: int, chunk: np.ndarray, take, log: list,
                     threshold, k: int):
    """Count + tie-grant + cut as ONE SPMD step (one backend round trip).

    The below/equal counts ride one fused in-worker
    ``allreduce_exscan`` (total below + tie prefix, the schedule
    :func:`repro.topk.dta.winners_gen` grants its ties with); each PE
    then grants its tie quota and cuts locally, so the selected
    elements never leave the worker.  Returns this PE's cut size and
    the cut, which stays resident.
    """
    n_below, n_eq = topk_count(chunk, threshold)
    log.append(("ops", int(chunk.size)))
    counts = np.array([n_below, n_eq], dtype=np.int64)
    totals, prefix = yield (
        "allreduce_exscan", counts, "sum", np.zeros(2, dtype=np.int64)
    )
    quota = k - int(totals[0])
    keep_eq = int(np.clip(quota - int(prefix[1]), 0, n_eq))
    sel = topk_cut(chunk, threshold, keep_eq)
    return None, sel.size, sel


def select_kth(
    machine: Machine,
    data: DistArray,
    k: int,
    *,
    sample_factor: float = 1.0,
    base_case: int | None = None,
    max_rounds: int = 64,
    return_stats: bool = False,
):
    """The globally k-th smallest element (1-based rank) of ``data``.

    Parameters
    ----------
    machine:
        The machine ``data`` lives on.
    data:
        Distributed input; chunks need not be sorted or balanced.
    k:
        Target rank, ``1 <= k <= len(data)``.
    sample_factor:
        Multiplies the ``sqrt(p)/n`` Bernoulli rate (ablation knob).
    base_case:
        Remaining-size threshold below which the problem is gathered to
        PE 0 and finished sequentially.  Defaults to
        ``max(64, 4 * sqrt(p))``.
    max_rounds:
        Safety bound on recursion depth; reaching it triggers the exact
        gather fallback (cannot affect correctness, only cost).
    return_stats:
        If true, return :class:`SelectionStats` instead of the bare value.

    Returns
    -------
    The k-th smallest value (a Python scalar), or stats including it.
    """
    n = data.global_size
    k = check_rank(k, n)
    stats, _ = machine.run_command(
        _select_kth_cmd, data._ensure_ref(),
        (k, n, sample_factor, base_case, max_rounds))
    stats = SelectionStats(*stats)
    return stats if return_stats else stats.value


def select_topk_smallest(
    machine: Machine, data: DistArray, k: int, **kwargs
) -> tuple[DistArray, float]:
    """Extract the k globally smallest elements, exactly.

    Runs :func:`select_kth` to find the threshold, then finishes in a
    single SPMD step per Section 4's output convention: every PE counts
    its below/equal elements, the two-word counts ride one fused
    in-worker ``allreduce_exscan`` (total below + tie prefix), and each
    PE grants its remaining quota of threshold-equal duplicates in PE
    order and cuts locally -- so the output size is exactly ``k``
    regardless of ties, at the price of ONE backend round trip (the
    former count + tie-grant + cut sequence paid three).

    Returns ``(selected, threshold)``; ``selected`` stays distributed --
    possibly unevenly, which Section 9's redistribution can fix.
    """
    n = data.global_size
    k = check_rank(k, n)
    threshold = select_kth(machine, data, k, **kwargs)
    _, sizes, ref = machine.run_command(
        _topk_cut_kernel, data._ensure_ref(), (threshold, k), n_addrs=0, keep=True)
    return DistArray(machine, ref=ref, sizes=sizes, dtype=data.dtype), threshold


def select_topk_largest(
    machine: Machine, data: DistArray, k: int, **kwargs
) -> tuple[DistArray, float]:
    """Extract the k globally largest elements, exactly (dual of
    :func:`select_topk_smallest` via negation -- performed where the
    chunks live)."""
    sel, thr = select_topk_smallest(machine, data.negate(), k, **kwargs)
    return sel.negate(), -thr
