"""DTA: distributed threshold algorithm for *arbitrary* data
distribution (Section 6, Algorithm 3).

DTA guesses the sequential TA's scan depth ``K`` by exponential search.
Per round:

1. For every criterion ``c``, the flexible selection algorithm
   (``amsSelect``, Section 4.3) finds the globally ``~K``-th largest
   list score ``x_c`` and thereby the global list prefix
   ``L'_c = {o : score_c(o) >= x_c}`` (its local part on every PE).
2. The threshold ``tmin = t(x_1, .., x_m)`` bounds every object outside
   all prefixes (monotonicity).
3. The number of *hits* (prefix objects with relevance >= tmin) is
   estimated by sampling ``y = O(log K)`` prefix entries per list and
   PE.  An object sampled from list ``c`` that also appears in an
   earlier list's prefix is *rejected* (counted in ``R``) to kill
   duplicate bias; ``l_c = |L'_c| (1 - R/y) (H/y)`` is then a truthful
   per-(PE, list) hit estimate, and one reduction sums them.
4. If the estimate reaches ``2k``, at least ``k`` hits exist whp and the
   search stops; otherwise ``K`` doubles.

Expected time ``O(m^2 log^2 K + beta m log K + alpha log p log K)``
(Theorem 6).  :func:`dta_topk` materializes the hits and runs exact
distributed selection on their relevances, verifying (and if needed
growing ``K``) until the output provably contains the true top-k.

Each call is ONE worker command (:meth:`repro.machine.Machine.run_command`):
every PE's :class:`LocalIndex` rides the command, and the PEs run the
search themselves, as in the paper -- one all-reduction of the object
count, then per probe ``m`` amsSelects (:func:`ams_select_gen` over the
negated score columns, each given that count rather than reducing it
again) and the estimator's sum, every PE deciding from the same
replicated values.  The draws come from counter addresses in
issue order: ``m + 1`` per probe and one for the final selection, which
:func:`winners_gen` runs (RDTA shares it).  Only the answer, each PE's
prefix sizes and its charge log return to the driver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine import Machine
from ..selection.accessors import ArraySeq
from ..selection.flexible import ams_select_gen
from ..selection.unsorted import select_kth_gen
from .index import LocalIndex
from .scoring import ScoringFunction

__all__ = ["dta_prefixes", "dta_topk", "DTAPrefixes", "DTAResult"]


@dataclass(frozen=True)
class DTAPrefixes:
    """Round-1 output of DTA (Algorithm 3's return value).

    Attributes
    ----------
    tmin:
        The threshold ``t(x_1, ..., x_m)``.
    xs:
        Per-criterion minimum selected score.
    prefix_sizes:
        ``prefix_sizes[i][c]`` -- local length of ``L'_c`` on PE ``i``.
    scanned:
        Final guess ``K`` (approximates TA's scan depth).
    rounds:
        Exponential-search rounds executed.
    hit_estimate:
        The sampling-based estimate of the number of hits.
    """

    tmin: float
    xs: tuple[float, ...]
    prefix_sizes: tuple[tuple[int, ...], ...]
    scanned: int
    rounds: int
    hit_estimate: float


@dataclass(frozen=True)
class DTAResult:
    """Final output of :func:`dta_topk`."""

    items: tuple[tuple[int, float], ...]
    prefixes: DTAPrefixes
    exact: bool


def check_indexes(machine: Machine, indexes: list[LocalIndex], k: int) -> None:
    """Refuse a call without one index per PE, all over the same
    criteria, and ``1 <= k <= n`` -- before anything is charged, sent
    or drawn."""
    p = machine.p
    if len(indexes) != p:
        raise ValueError(f"need one index per PE (p={p}, got {len(indexes)})")
    m = indexes[0].m
    if any(ix.m != m for ix in indexes):
        raise ValueError("all PEs must index the same criteria")
    n_total = sum(ix.n for ix in indexes)
    if not 1 <= k <= n_total:
        raise ValueError(f"k must satisfy 1 <= k <= {n_total}, got {k}")


def _search(*, k_start: int | None = None, y_samples: int | None = None,
            hit_target_factor: float = 2.0, max_rounds: int = 40) -> tuple:
    """The exponential search's options (see :func:`dta_prefixes`), in
    :func:`_search_gen`'s order."""
    return k_start, y_samples, hit_target_factor, max_rounds


def _prefixes(head: tuple, cuts: list) -> DTAPrefixes:
    tmin, xs, scanned, rounds, estimate = head
    return DTAPrefixes(tmin, xs, tuple(cuts), scanned, rounds, estimate)


def dta_prefixes(
    machine: Machine,
    indexes: list[LocalIndex],
    scorer: ScoringFunction,
    k: int,
    **search,
) -> DTAPrefixes:
    """Run Algorithm 3's exponential search and return the prefixes.

    The search's keyword options: ``k_start`` (the first guess of
    ``K``; default ``ceil(k / (m p))``), ``y_samples`` (estimator
    samples per list and PE; default ``max(16, 8 log2(K + 2))``),
    ``hit_target_factor`` (stop once ``factor * k`` hits are estimated;
    2.0) and ``max_rounds`` (40).
    """
    options = _search(**search)
    check_indexes(machine, indexes, k)
    (_, head, _), cuts = machine.run_command(
        _dta_cmd, indexes, (scorer, k, options, None), n_addrs=0)
    return _prefixes(head, cuts)


def dta_topk(
    machine: Machine,
    indexes: list[LocalIndex],
    scorer: ScoringFunction,
    k: int,
    *,
    max_growth: int = 20,
    **search,
) -> DTAResult:
    """Exact global top-k under arbitrary data distribution.

    Runs :func:`dta_prefixes`' search (same options), materializes the
    hits (prefix objects with relevance above the threshold -- local
    work only, the phase the paper notes may be imbalanced), and
    selects the top-k among them with the unsorted selection algorithm.
    If the materialized hits cannot yet certify the top-k (fewer than
    ``k`` strict hits), the scan depth is doubled and the prefixes
    recomputed -- the same exponential search, now driven by exact
    counts.
    """
    options = _search(**search)
    check_indexes(machine, indexes, k)
    (items, head, exact), cuts = machine.run_command(
        _dta_cmd, indexes, (scorer, k, options, max_growth), n_addrs=0)
    return DTAResult(items, _prefixes(head, cuts), exact)


# ----------------------------------------------------------------------
# SPMD pieces: one PE's part of the call, where its index is
# ----------------------------------------------------------------------

def _dta_cmd(rank: int, p: int, ix: LocalIndex, take, log: list, scorer, k: int,
             options: tuple, max_growth: int | None):
    """:func:`dta_topk` on one PE (the search, grown while the hits
    cannot certify the top-k, then the winners among the hits), or with
    ``max_growth=None`` :func:`dta_prefixes` (the search alone).
    Returns ``((items, head, exact), cuts)``, ``head`` the replicated
    search result and ``cuts`` this PE's prefix sizes."""
    n_total = yield ("allreduce", ix.n, "sum")
    # descending list scores, negated: amsSelect selects the k smallest
    cols = [ArraySeq(-ix.scores_desc(c)) for c in range(ix.m)]
    k_start, *rest = options
    growth = 0
    while True:
        head, cuts = yield from _search_gen(
            rank, p, ix, cols, n_total, take, log, scorer, k, k_start, *rest)
        if max_growth is None:
            return (None, head, None), cuts
        ids, rel = _hits(ix, scorer, head[0], cuts, log)
        n_hits = yield ("allreduce", int(ids.size), "sum")
        if n_hits >= k or head[2] >= n_total or growth >= max_growth:
            break
        growth += 1
        k_start = head[2] * 2
    items = ()
    if n_hits:
        items = yield from winners_gen(rank, p, ids, rel, min(k, n_hits), n_hits, take, log)
    return (items, head, n_hits >= k), cuts


def _search_gen(rank: int, p: int, ix: LocalIndex, cols: list, n_total: int, take,
                log: list, scorer, k: int, k_start, y_samples, hit_target_factor,
                max_rounds: int):
    """Algorithm 3's exponential search.  Returns ``(head, cuts)``:
    the replicated ``(tmin, xs, scanned, rounds, hit_estimate)`` and
    this PE's prefix sizes."""
    K = k_start if k_start is not None else max(1, int(np.ceil(k / (ix.m * p))))
    rounds = 0
    while True:
        rounds += 1
        K = min(K, n_total)
        # amsSelect per criterion: threshold x_c and this PE's cut
        xs, cuts = [], []
        for col in cols:
            value, _, cut, _, _ = yield from ams_select_gen(
                rank, p, col, K, min(2 * K, n_total), n_total, take(), log)
            xs.append(-float(value))
            cuts.append(int(cut))
        tmin = scorer(np.asarray(xs))
        y = max(16, int(8 * np.log2(K + 2))) if y_samples is None else y_samples
        estimate = yield from _estimate_hits_gen(
            rank, ix, scorer, cuts, tmin, y, take(), log)
        if estimate >= hit_target_factor * k or K >= n_total or rounds >= max_rounds:
            return (float(tmin), tuple(xs), K, rounds, estimate), tuple(cuts)
        K *= 2


def _estimate_hits_gen(rank: int, ix: LocalIndex, scorer, cuts: list, tmin: float,
                       y: int, addr, log: list):
    """Sampling-based truthful estimator of the global hit count, drawn
    from this PE's stream of the counter address ``addr``."""
    gen = addr.local(rank)
    seen = np.zeros(ix.n, dtype=bool)  # rows in an earlier list's prefix
    total = 0.0
    ops = 0.0
    for c, size in enumerate(cuts):
        rows = ix.prefix_rows(c, size)
        if size:
            picked = rows[gen.integers(0, size, size=y)]
            rejected = seen[picked]  # counted by an earlier list
            hit = ~rejected & (scorer.apply_rows(ix.scores[picked]) >= tmin)
            ops += y * (c + scorer.ops_per_eval)
            total += size * (1.0 - int(rejected.sum()) / y) * (int(hit.sum()) / y)
        seen[rows] = True
    log.append(("ops", max(1.0, ops)))
    estimate = yield ("allreduce", total, "sum")
    return float(estimate)


def _hits(ix: LocalIndex, scorer, tmin: float, cuts: tuple, log: list):
    """This PE's scan of the prefix union: the ids and relevances of the
    objects with ``t(o) >= tmin``.

    This is the single local-computation phase whose imbalance the paper
    accepts (worst case: all hits on one PE); its cost is charged to the
    owning PE and therefore shows up in the modeled makespan.
    """
    rows = np.unique(np.concatenate(
        [ix.prefix_rows(c, size) for c, size in enumerate(cuts)]))
    rel = scorer.apply_rows(ix.scores[rows])
    log.append(("ops", max(1.0, rows.size * scorer.ops_per_eval)))
    hit = rel >= tmin
    return ix.ids[rows[hit]], rel[hit]


def winners_gen(rank: int, p: int, ids: np.ndarray, rel: np.ndarray, k: int, n: int,
                take, log: list):
    """The ``k`` best ``(id, relevance)`` pairs among every PE's
    candidates ``(ids, rel)``, ``n`` of them in all, best first (ties
    by ascending id), on every PE.

    Unsorted selection (:func:`select_kth_gen`, drawing from ``take()``)
    on the negated relevances finds the threshold; ONE all-reduction
    with exclusive prefix of the (strict, tied) counts gives the strict
    winners' total and grants the threshold ties in PE order, so
    exactly ``k`` win; one allgather shares them.
    """
    value, *_ = yield from select_kth_gen(rank, p, -rel, take, log, k, n)
    thr = -value
    strict, tied = rel > thr, rel == thr
    log.append(("ops", float(rel.size)))
    totals, before = yield (
        "allreduce_exscan", np.array([strict.sum(), tied.sum()], dtype=np.int64),
        "sum", np.zeros(2, dtype=np.int64),
    )
    grant = k - int(totals[0]) - int(before[1])
    won = strict | (tied & (np.cumsum(tied) <= grant))
    gathered = yield ("allgather", (ids[won], rel[won]))
    all_ids = np.concatenate([g[0] for g in gathered])
    all_rel = np.concatenate([g[1] for g in gathered])
    order = np.lexsort((all_ids, -all_rel))[:k]
    return tuple(zip(all_ids[order].tolist(), all_rel[order].tolist()))
