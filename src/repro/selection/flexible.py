"""Approximate multisequence selection with flexible k (Section 4.3).

``amsSelect`` (Algorithm 2) returns the k̂ smallest elements for some
k̂ in a caller-supplied range ``[k_lo, k_hi]``, trading exactness of the
output *size* for a latency of ``O(log k + alpha log p)`` -- a full
``log kp`` factor below exact multisequence selection.

The estimator exploits locally sorted data: a Bernoulli(rho) sample's
smallest element has geometrically distributed rank, so each PE draws
one geometric deviate ``x`` (constant time), reads its window's x-th
element, and a single min-reduction yields a truthful estimate ``v`` of
an element with rank ``~1/rho``.  Counting ``<= v`` via binary search
plus one sum-reduction either finishes (count in range) or recurses on
the half bracketing the target.  The global size ``n`` is the caller's
(the driver's, whose one-word all-reduction heads the charge log, or a
kernel's that already knows it), so a round is those two collectives
and nothing more; the exact fallback is handed the remaining window's
size the same way.  When the target rank is close to the
total size ``n``, the dual *max-based* estimator is used (sampling from
the top), which is what the ``k_lo < n - k_hi`` branch switches on.

The success-probability-maximizing sampling rates are taken verbatim
from Algorithm 2:

* min-based: ``rho = 1 - ((k_lo - 1) / k_hi) ^ (1 / (k_hi - k_lo + 1))``
* max-based: ``rho = 1 - ((n - k_hi) / (n - k_lo + 1))
  ^ (1 / (k_hi - k_lo + 1))``

:func:`ams_select_batched` implements the "multiple concurrent trials"
refinement (Theorem 4): ``d`` estimates ride in one vector-valued
reduction, so the expected number of rounds drops to O(1) already for
``k_hi - k_lo = Omega(k/d)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.ordering import BOTTOM, TOP
from ..common.validation import check_rank_range, is_whole
from ..machine import Machine
from .sorted_select import ms_select_with_cuts_gen, run_sorted

__all__ = ["ams_select", "ams_select_batched", "AmsResult"]


@dataclass(frozen=True)
class AmsResult:
    """Result of a flexible selection.

    Attributes
    ----------
    value:
        The threshold: the k̂-th smallest element overall.
    k:
        The achieved output size k̂ (``k_lo <= k <= k_hi``).
    cuts:
        Per-PE count of selected elements (the k̂ smallest are exactly
        the union of each PE's first ``cuts[i]`` window elements).
    rounds:
        Estimator rounds used (each costs O(alpha log p)).
    exact_fallback:
        True if the safety fallback to exact ``msSelect`` fired.
    """

    value: object
    k: int
    cuts: tuple[int, ...]
    rounds: int
    exact_fallback: bool = False


def _min_based_rate(k_lo: int, k_hi: int) -> float:
    """Sampling rate of the min-based estimator (Algorithm 2)."""
    if k_lo <= 1:
        return 1.0
    return 1.0 - ((k_lo - 1.0) / k_hi) ** (1.0 / (k_hi - k_lo + 1.0))


def _max_based_rate(k_lo: int, k_hi: int, n: int) -> float:
    """Sampling rate of the max-based (dual) estimator (Algorithm 2)."""
    if k_hi >= n:
        return 1.0
    return 1.0 - ((n - k_hi) / (n - k_lo + 1.0)) ** (1.0 / (k_hi - k_lo + 1.0))


def ams_select(
    machine: Machine,
    seqs,
    k_lo: int,
    k_hi: int,
    *,
    max_rounds: int = 60,
) -> AmsResult:
    """Select the k̂ smallest elements with ``k_lo <= k̂ <= k_hi``.

    ``seqs`` is one sorted sequence per PE (arrays or
    :class:`SortedSequence` adapters, which ride along with the
    command) or a :class:`~repro.machine.DistArray` of sorted chunks
    (which stay where they are).  The whole of :func:`ams_select_gen`
    runs as one worker command.

    Expected ``O(log k_hi + alpha log p)`` when
    ``k_hi - k_lo = Omega(k_hi)`` (Theorem 3).  Falls back to exact
    multisequence selection (rank ``k_lo``) after ``max_rounds``
    unsuccessful estimator rounds, which keeps the worst case
    terminating without affecting the expectation.
    """
    return _flexible(machine, seqs, ams_select_gen, k_lo, k_hi,
                     {"max_rounds": max_rounds})


def _flexible(machine: Machine, seqs, gen, k_lo, k_hi, options: dict) -> AmsResult:
    """Run the flexible selection generator ``gen`` (keywords
    ``options``) as one worker command."""
    _, results = run_sorted(
        machine, seqs, gen, lambda n: (check_rank_range(k_lo, k_hi, n), options))
    value, k_hat, _, rounds, fallback = results[0]
    return AmsResult(value, k_hat, tuple(r[2] for r in results), rounds, fallback)


class _SeqWindow:
    """Window view of a sorted-sequence adapter (for the exact fallbacks)."""

    __slots__ = ("seq", "lo", "hi")

    def __init__(self, seq, lo: int, hi: int):
        self.seq, self.lo, self.hi = seq, lo, hi

    def __len__(self):
        return self.hi - self.lo

    def item(self, i):
        return self.seq.item(self.lo + i)

    def count_le(self, v):
        return int(np.clip(self.seq.count_le(v), self.lo, self.hi)) - self.lo


def ams_select_gen(rank, p, seq, k_lo, k_hi, n, addr, log, *, max_rounds=60):
    """:func:`ams_select` over per-rank views, as an SPMD generator.

    ``n`` is the global size, which the caller knows (no collective
    learns it).  The estimator rounds draw from this rank's stream of
    the counter draw address ``addr`` (``addr.local(rank)``), the exact
    fallback, if it fires, from its replicated one.  Yields two
    collectives per estimator round (the pivot's min- or max-reduction,
    the count's sum), appends charge entries to ``log`` and returns
    ``(value, k_hat, cut, rounds, exact_fallback)``.
    """
    k_lo, k_hi = check_rank_range(k_lo, k_hi, n)
    local_rng = addr.local(rank)

    lo, hi = 0, len(seq)
    accepted = 0
    accepted_total = 0
    cur_lo, cur_hi, cur_n = k_lo, k_hi, int(n)

    for rnd in range(1, max_rounds + 1):
        # estimator round: geometric deviate + min/max reduction
        size = hi - lo
        use_min = cur_lo < cur_n - cur_hi
        if use_min:
            rho = _min_based_rate(cur_lo, cur_hi)
            x = int(local_rng.geometric(rho)) if rho < 1.0 else 1
            pick = seq.item(lo + x - 1) if 1 <= x <= size else TOP
            log.append(("ops", np.log2(max(size, 2))))
            v = yield ("allreduce", pick, "min")
            if v is TOP:
                continue
        else:
            rho = _max_based_rate(cur_lo, cur_hi, cur_n)
            x = int(local_rng.geometric(rho)) if rho < 1.0 else 1
            pick = seq.item(hi - x) if 1 <= x <= size else BOTTOM
            log.append(("ops", np.log2(max(size, 2))))
            v = yield ("allreduce", pick, "max")
            if v is BOTTOM:
                continue

        j = int(np.clip(seq.count_le(v), lo, hi)) - lo
        log.append(("ops", np.log2(max(size, 2))))
        count = yield ("allreduce", j, "sum")
        count = int(count)

        if count < cur_lo:
            accepted += j
            lo += j
            accepted_total += count
            cur_lo -= count
            cur_hi -= count
            cur_n -= count
        elif count > cur_hi:
            hi = lo + j
            cur_n = count
        else:
            return v, accepted_total + count, accepted + j, rnd, False

    # safety net: exact selection of rank cur_lo in the remaining windows
    value, rel_cut, _ = yield from ms_select_with_cuts_gen(
        rank, p, _SeqWindow(seq, lo, hi), cur_lo, cur_n, addr, log
    )
    return value, accepted_total + cur_lo, accepted + rel_cut, max_rounds, True


def ams_select_batched(
    machine: Machine,
    seqs,
    k_lo: int,
    k_hi: int,
    *,
    d: int = 8,
    max_rounds: int = 40,
) -> AmsResult:
    """Flexible selection with ``d`` concurrent estimator trials
    (Theorem 4).

    All ``d`` pivot estimates travel in a single vector-valued
    min-reduction and a single vector-valued sum-reduction per round, so
    a round costs ``O(d log k + beta d + alpha log p)`` and succeeds with
    constant probability already for ``k_hi - k_lo = Omega(k_hi / d)``.
    ``seqs`` is as for :func:`ams_select`; the whole of
    :func:`ams_select_batched_gen` runs as one worker command.
    """
    if not is_whole(d) or d < 1:
        raise ValueError(f"need a whole number d >= 1 of trials, got d={d!r}")
    return _flexible(machine, seqs, ams_select_batched_gen, k_lo, k_hi,
                     {"d": int(d), "max_rounds": max_rounds})


def _key_dtype(seq) -> np.dtype:
    """dtype of ``seq``'s keys: its array's, else its first element's
    (float64 for an empty adapter)."""
    arr = getattr(seq, "arr", None)
    if arr is not None:
        return arr.dtype
    return np.asarray(seq.item(0)).dtype if len(seq) else np.dtype(np.float64)


def ams_select_batched_gen(rank, p, seq, k_lo, k_hi, n, addr, log, *, d=8,
                           max_rounds=40):
    """:func:`ams_select_batched` over per-rank views, as an SPMD
    generator.

    Global size ``n``, draw address, charge log and result ``(value,
    k_hat, cut, rounds, exact_fallback)`` are as for
    :func:`ams_select_gen`.
    The ``d`` picks stay in the keys' dtype, so the threshold is an
    input element; a trial without a pick holds the dtype's maximum
    (``+inf`` for floats).
    """
    k_lo, k_hi = check_rank_range(k_lo, k_hi, n)
    local_rng = addr.local(rank)
    dtype = _key_dtype(seq)
    floats = dtype.kind == "f"
    no_pick = np.inf if floats else np.iinfo(dtype).max

    lo, hi = 0, len(seq)
    accepted = 0
    accepted_total = 0
    cur_lo, cur_hi, cur_n = k_lo, k_hi, int(n)

    for rnd in range(1, max_rounds + 1):
        # d estimator trials: d geometric deviates, one vector min-reduction
        rho = _min_based_rate(cur_lo, cur_hi)
        size = hi - lo
        picks = np.full(d, no_pick, dtype=dtype)
        if size > 0:
            xs = (local_rng.geometric(rho, size=d) if rho < 1.0
                  else np.ones(d, dtype=np.int64))
            valid = xs <= size
            picks[valid] = [seq.item(int(x)) for x in lo + xs[valid] - 1]
        log.append(("ops", d * np.log2(max(size, 2)) if size > 0 else 0.0))
        pivots = yield ("allreduce", picks, "min")
        found = np.isfinite(pivots) if floats else pivots != no_pick
        if not found.any():
            continue

        local = np.zeros(d, dtype=np.int64)
        for t in np.flatnonzero(found):
            local[t] = int(np.clip(seq.count_le(pivots[t]), lo, hi)) - lo
        log.append(("ops", d * np.log2(max(size, 2))))
        counts = yield ("allreduce", local, "sum")

        ok = found & (counts >= cur_lo) & (counts <= cur_hi)
        if ok.any():
            t = int(np.flatnonzero(ok)[0])
            return (pivots[t], accepted_total + int(counts[t]),
                    accepted + int(local[t]), rnd, False)

        # recurse between the largest underestimate and the smallest
        # overestimate among the d failed trials
        under = found & (counts < cur_lo)
        over = found & (counts > cur_hi)
        c = 0
        if under.any():
            t = int(np.argmax(np.where(under, counts, -1)))
            c = int(counts[t])
            accepted += int(local[t])
            lo += int(local[t])
            accepted_total += c
            cur_lo -= c
            cur_hi -= c
            cur_n -= c
        if over.any():
            t = int(np.argmin(np.where(over, counts, np.iinfo(np.int64).max)))
            # the window cut for the over-pivot is recomputed against the
            # (possibly just advanced) lo, since ``local`` predates the
            # acceptance step above; the over-pivot exceeds the
            # under-pivot, so on every PE the new window is what lies
            # between their cuts and its global size is the difference
            # of their replicated counts
            le = int(np.clip(seq.count_le(pivots[t]), lo, len(seq)))
            hi = max(lo, le)
            cur_n = int(counts[t]) - c

    # safety net: exact selection of rank cur_lo in the remaining windows
    value, rel_cut, _ = yield from ms_select_with_cuts_gen(
        rank, p, _SeqWindow(seq, lo, hi), cur_lo, cur_n, addr, log
    )
    return value, accepted_total + cur_lo, accepted + rel_cut, max_rounds, True
