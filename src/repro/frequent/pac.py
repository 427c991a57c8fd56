"""Algorithm PAC: sampling-based top-k most frequent objects (§7.1).

The basic probably-approximately-correct algorithm:

1. every PE Bernoulli-samples its local input with probability ``rho``
   (Equation 3 fixes ``rho`` so the result is an
   (eps, delta)-approximation);
2. sample occurrences are counted in the distributed hash table
   (local aggregation, then the merging hypercube exchange), where the
   chunks live -- no sample returns to the driver;
3. the ``k`` most frequently *sampled* objects are selected with the
   unsorted selection algorithm of Section 4.1 and broadcast;
4. reported counts are the sample counts scaled by ``1/rho``.

Expected time ``O(beta log(p)/(p eps^2) log(k/delta) + alpha log n)``
(Theorem 7).  The error measure is the paper's ε̃: the count of the most
frequent object missed minus the count of the least frequent object
returned, relative to ``n`` (see :func:`pac_error`).
"""

from __future__ import annotations

from ..common.sampling import pac_sample_rate
from ..common.validation import check_k, check_rate
from ..machine import DistArray, Machine
from .dht import array_key_dtype, pipeline_gen, sample_table
from .result import FrequentResult

__all__ = ["top_k_frequent_pac", "pac_error"]


def top_k_frequent_pac(
    machine: Machine,
    data: DistArray,
    k: int,
    eps: float = 1e-3,
    delta: float = 1e-4,
    *,
    rho: float | None = None,
) -> FrequentResult:
    """(eps, delta)-approximate top-k most frequent objects.

    ``rho`` overrides the Equation-3 sampling probability (ablations).
    One worker command: sample, count into the hash table, select and
    exchange the winners (the global sample size rides the winner
    exchange's fused reduce+allgather instead of paying its own
    allreduce).
    """
    check_k(k)
    if rho is not None:
        check_rate(rho, "rho")
    dtype = array_key_dtype(data)
    n = data.global_size
    machine.replay_charges([[("allreduce", 1)]] * machine.p)  # the driver tracks the sizes
    if n == 0:
        return FrequentResult((), False, 1.0, 0, k, {})
    if rho is None:
        rho = pac_sample_rate(n, k, eps, delta)
    (total, keys, counts, sample_size, _), _ = machine.run_command(
        pipeline_gen, data._ensure_ref(),
        (sample_table, (dtype, machine.draw_addr(), rho), k, True),
    )
    return FrequentResult(
        items=tuple((key, c / rho) for key, c in zip(keys.tolist(), counts.tolist())),
        exact_counts=rho >= 1.0,
        rho=rho,
        sample_size=sample_size,
        k_star=k,
        info={"distinct_sampled": total},
    )


def pac_error(result_keys, true_counts: dict[int, int], k: int) -> int:
    """The paper's absolute error ε̃·n of a top-k answer.

    "the count of the most frequent object that was not output minus
    that of the least frequent object that was output, or 0 if the
    result was exact" (Section 7).
    """
    ranked = sorted(true_counts.values(), reverse=True)
    if not ranked:
        return 0
    result_keys = list(result_keys)[:k]
    chosen = set(result_keys)
    missed = [c for key, c in true_counts.items() if key not in chosen]
    if not missed or len(result_keys) == 0:
        return 0
    best_missed = max(missed)
    worst_chosen = min(true_counts.get(key, 0) for key in result_keys)
    return max(0, best_missed - worst_chosen)
