"""Algorithm PEC: probably *exactly* correct top-k (Section 7.3).

If the frequency distribution has a gap (Figure 5), exact answers are
possible without counting everything: a first small sample estimates
how deep into the sample ranking the true top-k can hide; exact
counting of that many candidates then recovers the top-k with
probability ``>= 1 - delta``.

Stage 1 (gap probing): sample at the PAC rate for a coarse ``eps_0``;
let ``s_k`` be the k-th largest sample count.  Lemma 12: it suffices to
pick ``k*`` so that
``s_{k*} <= E[s_k] - sqrt(2 E[s_k] ln(k/delta))``; the unknown
``E[s_k]`` is replaced by its high-probability lower bound
``s_k - sqrt(2 s_k ln(1/delta))`` (Theorem 13).

Stage 2: run EC with that ``k*`` (its communication-optimal ``eps``
follows from Theorem 11 by inversion).

For Zipf inputs with exponent ``s``, Theorem 14 gives closed forms --
``rho n = 4 k^s H_{N,s} ln(k/delta)`` and ``E[k*] ~= (2 + sqrt 2)^{1/s} k``
-- implemented by :func:`top_k_frequent_pec_zipf` (no probing sample
needed).
"""

from __future__ import annotations

import numpy as np

from ..common.distributions import harmonic_number
from ..common.sampling import pac_sample_rate
from ..machine import DistArray, Machine
from .dht import array_key_dtype, count_into_dht, take_topk_entries
from .ec import exact_count_keys, top_k_frequent_ec
from .pac import sample_distributed
from .result import FrequentResult

__all__ = ["top_k_frequent_pec", "top_k_frequent_pec_zipf", "estimate_k_star"]


def _local_max_step(rank: int, chunk: np.ndarray) -> int:
    """Resident worker callback: local universe probe."""
    return int(chunk.max()) if chunk.size else 1


def estimate_k_star(
    machine: Machine,
    sample_counts: list[dict[int, int]],
    k: int,
    delta: float,
    *,
    cap_factor: int = 16,
    piggyback=None,
):
    """Gap-based candidate count from stage-1 sample counts (Lemma 12).

    Returns ``(k_star, gap_found)``.  The head of the sample ranking
    (top ``cap_factor * k`` counts) is small, so it is extracted with
    the usual selection + all-gather machinery; if even the last head
    entry is above the Lemma-12 threshold the distribution is too flat
    and ``gap_found`` is False (callers should fall back to plain EC
    semantics with the capped ``k*``).

    ``piggyback`` (per-PE sample sizes) is fused into the head
    extraction's winner exchange; the return value then grows a third
    entry with the summed total.
    """
    cap = max(cap_factor * k, k + 1)
    if piggyback is None:
        head = take_topk_entries(machine, sample_counts, cap)
        pb_total = None
    else:
        head, pb_total = take_topk_entries(
            machine, sample_counts, cap, piggyback=piggyback
        )

    def _out(k_star: int, gap: bool):
        return (k_star, gap) if piggyback is None else (k_star, gap, pb_total)

    if len(head) <= k:
        return _out(max(k, len(head)), True)  # fewer candidates than the cap: exact
    s_k = head[k - 1][1]
    # high-probability lower bound on E[s_k] (Theorem 13)
    e_sk = max(0.0, s_k - np.sqrt(2.0 * s_k * np.log(1.0 / delta)))
    threshold = e_sk - np.sqrt(2.0 * max(e_sk, 1e-12) * np.log(k / delta))
    for rank in range(k, len(head)):
        if head[rank][1] <= threshold:
            return _out(rank + 1, True)
    return _out(len(head), False)


def top_k_frequent_pec(
    machine: Machine,
    data: DistArray,
    k: int,
    delta: float = 1e-4,
    *,
    eps0: float = 1e-2,
    cap_factor: int = 16,
) -> FrequentResult:
    """Probably exactly correct top-k for gapped distributions.

    ``eps0`` controls the stage-1 probing sample (coarser = cheaper but
    more conservative ``k*``).  The result's ``info['gap_found']``
    reports whether Lemma 12's criterion fired; without a gap the
    answer degrades gracefully to an EC-style approximation with the
    capped candidate set.
    """
    n = int(machine.allreduce([int(s) for s in data.sizes()], op="sum")[0])
    if n == 0:
        return FrequentResult((), True, 1.0, 0, k, {"gap_found": True})

    # ---- stage 1: probing sample -------------------------------------
    rho0 = pac_sample_rate(n, k, eps0, delta)
    samples = sample_distributed(machine, data, rho0)
    sample_counts = count_into_dht(machine, samples)
    k_star, gap_found, stage1_size = estimate_k_star(
        machine, sample_counts, k, delta, cap_factor=cap_factor,
        piggyback=[int(s.size) for s in samples],
    )

    # ---- stage 2: exact counting of the k* candidates ----------------
    candidates = take_topk_entries(machine, sample_counts, k_star)
    cand_keys = np.array([key for key, _ in candidates], dtype=array_key_dtype(data))
    exact = exact_count_keys(machine, data, cand_keys)
    order = np.lexsort((cand_keys, -exact))
    top = order[: min(k, len(cand_keys))]
    items = tuple((int(cand_keys[t]), float(exact[t])) for t in top)
    return FrequentResult(
        items=items,
        exact_counts=True,
        rho=rho0,
        sample_size=stage1_size,
        k_star=int(k_star),
        info={"gap_found": gap_found, "stage1_rho": rho0},
    )


def top_k_frequent_pec_zipf(
    machine: Machine,
    data: DistArray,
    k: int,
    delta: float = 1e-4,
    *,
    s: float = 1.0,
    universe: int | None = None,
) -> FrequentResult:
    """PEC specialization for Zipf(s) inputs (Theorem 14).

    Knowing the distribution family, the probing stage is skipped:
    ``rho = 4 k^s H_{N,s} ln(k/delta) / n`` and
    ``k* = ceil((2 + sqrt 2)^{1/s} k)`` are computed in closed form, and
    the exact result is returned with probability ``>= 1 - delta``.
    """
    n = int(machine.allreduce([int(s) for s in data.sizes()], op="sum")[0])
    if n == 0:
        return FrequentResult((), True, 1.0, 0, k, {})
    if universe is None:
        local_max = data.map_values(_local_max_step)
        universe = int(machine.allreduce(local_max, op="max")[0])
    h = harmonic_number(universe, s)
    rho = min(1.0, 4.0 * k**s * h * np.log(k / delta) / n)
    k_star = int(np.ceil((2.0 + np.sqrt(2.0)) ** (1.0 / s) * k))

    samples = sample_distributed(machine, data, rho)
    sample_counts = count_into_dht(machine, samples)
    candidates, sample_size = take_topk_entries(
        machine, sample_counts, k_star, piggyback=[int(x.size) for x in samples]
    )
    if not candidates:
        return FrequentResult((), True, rho, sample_size, k_star, {})
    cand_keys = np.array([key for key, _ in candidates], dtype=array_key_dtype(data))
    exact = exact_count_keys(machine, data, cand_keys)
    order = np.lexsort((cand_keys, -exact))
    top = order[: min(k, len(cand_keys))]
    items = tuple((int(cand_keys[t]), float(exact[t])) for t in top)
    return FrequentResult(
        items=items,
        exact_counts=True,
        rho=rho,
        sample_size=sample_size,
        k_star=k_star,
        info={"universe": universe, "harmonic": h},
    )
