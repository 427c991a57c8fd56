"""Algorithm EC: exact counting of sampled candidates (Section 7.2).

PAC's ``1/eps^2`` sample sizes explode as ``eps`` shrinks.  EC iterates
over the input a second time: a *much smaller* sample (Lemma 10:
``rho n = 2/(eps^2 k*) ln(n/delta)``) merely nominates the ``k* >= k``
most frequently sampled objects, whose occurrences are then counted
**exactly**:

1. sample + DHT counting as in PAC, at the reduced rate;
2. select the top ``k*`` sampled keys and broadcast their identities to
   all PEs (all-gather, ``O(beta k* + alpha log p)``);
3. every PE counts those keys in its full local input (``O(n/p)``);
4. one vector-valued sum-reduction yields exact global counts, from
   which the top-k is read off locally.

All four steps are one worker command.

The communication-optimal candidate count is
``k* = max(k, (1/eps) sqrt(2 log(p)/p * ln(n/delta)))`` (Theorem 11),
bringing the volume down from ``1/eps^2`` to ``1/eps`` -- the regime
where EC beats every other algorithm in Figure 8.
"""

from __future__ import annotations

import numpy as np

from ..common.sampling import ec_sample_rate
from ..common.validation import check_k, check_k_star, check_rate
from ..machine import DistArray, Machine
from .dht import array_key_dtype, pipeline_gen, sample_table
from .result import FrequentResult

__all__ = ["top_k_frequent_ec", "optimal_k_star"]


def optimal_k_star(n: int, k: int, p: int, eps: float, delta: float) -> int:
    """Communication-minimizing candidate count (Theorem 11)."""
    if n < 1:
        return k
    comm_opt = (1.0 / eps) * np.sqrt(2.0 * np.log2(p + 1) / p * np.log(n / delta))
    return int(max(k, np.ceil(comm_opt)))


def exact_counts_gen(rank: int, chunk: np.ndarray, keys: np.ndarray, log: list):
    """SPMD piece: exact global counts of the (replicated) ``keys``.

    Every PE scans its full local input once (``O(n/p)``), where the
    chunk lives; the count vectors are summed by one vector-valued
    in-worker reduction.  Without keys nothing is counted (``None``).
    """
    if not len(keys):
        return None
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    pos = np.searchsorted(sorted_keys, chunk)
    pos = np.clip(pos, 0, len(sorted_keys) - 1)
    hit = sorted_keys[pos] == chunk
    counts = np.empty(len(keys), dtype=np.int64)
    counts[order] = np.bincount(pos[hit], minlength=len(keys))
    log.append(("ops", max(1.0, int(chunk.size) * np.log2(max(len(keys), 2)))))
    totals = yield ("allreduce", counts, "sum")
    return totals


def exact_items(keys: np.ndarray, exact: np.ndarray, k: int) -> tuple:
    """The top ``k`` of exactly counted candidates as ``(key, count)``
    items, by (count desc, key asc)."""
    top = np.lexsort((keys, -exact))[:k]
    return tuple((int(keys[t]), float(exact[t])) for t in top)


def top_k_frequent_ec(
    machine: Machine,
    data: DistArray,
    k: int,
    eps: float = 1e-3,
    delta: float = 1e-4,
    *,
    k_star: int | None = None,
    rho: float | None = None,
) -> FrequentResult:
    """(eps, delta)-approximation with exact counts for the winners.

    With the default ``k_star`` the result is an
    (eps, delta)-approximation whose reported counts are *exact*
    (Lemma 10); only membership of the borderline objects can err.
    One worker command: sample, count, select the candidates and count
    them exactly.
    """
    check_k(k)
    k_star = None if k_star is None else check_k_star(k_star, k)
    if rho is not None:
        check_rate(rho, "rho")
    dtype = array_key_dtype(data)
    p = machine.p
    n = data.global_size
    machine.replay_charges([[("allreduce", 1)]] * machine.p)  # the driver tracks the sizes
    if n == 0:
        return FrequentResult((), True, 1.0, 0, k, {})
    if k_star is None:
        k_star = optimal_k_star(n, k, p, eps, delta)
    if rho is None:
        rho = ec_sample_rate(n, k_star, eps, delta)

    (_, cand_keys, _, sample_size, exact), _ = machine.run_command(
        pipeline_gen, data._ensure_ref(),
        (sample_table, (dtype, machine.draw_addr(), rho), k_star, True,
         exact_counts_gen),
    )
    if exact is None:  # nothing was sampled
        return FrequentResult((), True, rho, sample_size, k_star, {})
    return FrequentResult(
        items=exact_items(cand_keys, exact, k),
        exact_counts=True,
        rho=rho,
        sample_size=sample_size,
        k_star=int(k_star),
        info={"candidates": len(cand_keys)},
    )
