"""RDTA: distributed threshold algorithm for *randomly* distributed
objects (Section 6, "Random Data Distribution").

Because placement is independent of relevance, each PE holds at most
``k_hat = O(k/p + log p)`` of the global top-k with high probability
(balls-into-bins [30]).  Each PE therefore runs sequential TA locally to
produce ``k_hat`` candidates and a local threshold; the global threshold
is the max of the local ones, and if at least ``k`` candidates score
above it, the top-k among the candidates is found with the unsorted
selection algorithm.  Otherwise ``k_hat`` doubles and the scan resumes
-- PEs whose local threshold is already below the current k-th best
relevance may sit out the extra scanning.

A call is ONE worker command (:meth:`repro.machine.Machine.run_command`):
every PE's index rides it, each round is a local TA pass plus two
all-reductions, and the winners are selected by the piece DTA ends with
(:func:`~repro.topk.dta.winners_gen`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine import Machine
from .dta import check_indexes, winners_gen
from .index import LocalIndex
from .scoring import ScoringFunction
from .threshold import ta_topk

__all__ = ["rdta_topk", "RDTAResult"]


@dataclass(frozen=True)
class RDTAResult:
    """Output of RDTA.

    ``items`` is the exact global top-k (id, relevance), best first;
    ``rounds`` counts threshold-verification rounds (each one local-TA
    pass + O(1) collectives); ``k_hat_final`` is the per-PE candidate
    budget that sufficed.
    """

    items: tuple[tuple[int, float], ...]
    rounds: int
    k_hat_final: int


def rdta_topk(
    machine: Machine,
    indexes: list[LocalIndex],
    scorer: ScoringFunction,
    k: int,
    *,
    slack: float = 2.0,
    max_rounds: int = 30,
) -> RDTAResult:
    """Global top-k for randomly distributed objects.

    Parameters
    ----------
    indexes:
        One :class:`LocalIndex` per PE (objects placed independently of
        relevance -- RDTA's correctness requirement; for adversarial
        placement use :func:`repro.topk.dta.dta_topk`).
    slack:
        Multiplier on the balls-into-bins bound ``k/p + log p`` for the
        initial per-PE candidate budget.
    """
    check_indexes(machine, indexes, k)
    answer, _ = machine.run_command(_rdta_cmd, indexes, (scorer, k, slack, max_rounds))
    if answer is None:
        raise RuntimeError(
            "RDTA failed to verify a threshold; data placement is "
            "likely adversarial -- use dta_topk instead"
        )
    return RDTAResult(*answer)


def _rdta_cmd(rank: int, p: int, ix: LocalIndex, take, log: list, scorer, k: int,
              slack: float, max_rounds: int):
    """:func:`rdta_topk` on one PE: ``(items, rounds, k_hat)``, or
    ``None`` if no round verified a threshold."""
    n_total = yield ("allreduce", ix.n, "sum")
    k_hat = max(1, int(np.ceil(slack * (k / p + np.log2(p + 1)))))
    rounds = 0
    while True:
        rounds += 1
        # local TA pass: k_hat candidates + local threshold; scanning
        # cost: K rows in m lists plus random accesses
        res = ta_topk(ix, scorer, min(k_hat, max(ix.n, 1)))
        log.append(("ops", max(1.0, res.scan_depth * ix.m * scorer.ops_per_eval)))

        # global threshold: max over local TA thresholds; a PE that ran
        # out of objects cannot hide better ones (its threshold is -inf)
        local_thr = res.threshold if ix.n > len(res.items) else float("-inf")
        global_thr = yield ("allreduce", local_thr, "max")
        above = sum(1 for (_, rel) in res.items if rel >= global_thr)
        n_above = yield ("allreduce", above, "sum")
        if n_above >= k or k_hat >= n_total:
            # verify: the k best candidates all dominate the threshold,
            # so no unscanned object can displace them
            n_cand = yield ("allreduce", len(res.items), "sum")
            ids = np.array([oid for oid, _ in res.items], dtype=np.int64)
            rel = np.array([r for _, r in res.items], dtype=np.float64)
            items = yield from winners_gen(rank, p, ids, rel, k, int(n_cand), take, log)
            return (items, rounds, k_hat), None
        if rounds >= max_rounds:
            return None, None
        k_hat *= 2
