"""Adaptive two-pass sampling (Section 7.4, "Adaptive Two-Pass
Sampling").

Unify PAC and EC: a small *probing* sample (rate ``rho_0``) reveals the
nature of the input distribution, and the algorithm then decides

* **stop** -- the probe already separates the top-k with confidence
  (the k-th and (k+1)-st sample counts differ by more than the
  two-sided fluctuation bound), so return the PAC-style answer from the
  probe: no second pass, no extra communication;
* **escalate** -- otherwise take the EC route: nominate ``k*``
  candidates from the probe and count them exactly in one input pass.

The confidence test uses the same Chernoff fluctuations as Lemma 12:
sample counts concentrate within ``sqrt(2 s ln(1/delta))`` of their
expectations, so a gap of twice that between ranks k and k+1 certifies
the split.
"""

from __future__ import annotations

import numpy as np

from ..common.sampling import pac_sample_rate
from ..machine import DistArray, Machine
from .dht import array_key_dtype, count_into_dht, take_topk_entries
from .ec import exact_count_keys
from .pac import sample_distributed
from .result import FrequentResult

__all__ = ["top_k_frequent_adaptive"]


def _confident_split(head: list[tuple[int, int]], k: int, delta: float) -> bool:
    """Is the probe's rank-k/rank-(k+1) gap beyond both fluctuations?"""
    if len(head) <= k:
        return True  # fewer distinct keys than k: nothing can displace
    s_k = head[k - 1][1]
    s_next = head[k][1]
    fluct = np.sqrt(2.0 * max(s_k, 1.0) * np.log(1.0 / delta)) + np.sqrt(
        2.0 * max(s_next, 1.0) * np.log(1.0 / delta)
    )
    return (s_k - s_next) > fluct


def top_k_frequent_adaptive(
    machine: Machine,
    data: DistArray,
    k: int,
    eps: float = 1e-3,
    delta: float = 1e-4,
    *,
    probe_eps: float = 1e-2,
    k_star_factor: int = 4,
) -> FrequentResult:
    """Top-k most frequent with distribution-adaptive effort.

    Parameters
    ----------
    probe_eps:
        Accuracy of the stage-1 probe (coarser than ``eps``: the probe
        is cheap).
    k_star_factor:
        Candidate multiplier if stage 2 (exact counting) is needed.

    Returns a :class:`FrequentResult`; ``info['escalated']`` records
    whether the exact-counting pass ran, ``info['confident']`` whether
    the probe alone certified the answer.
    """
    n = int(machine.allreduce([c.size for c in data.chunks], op="sum")[0])
    if n == 0:
        return FrequentResult((), True, 1.0, 0, k, {"escalated": False})

    # ---- stage 1: probe ------------------------------------------------
    rho0 = pac_sample_rate(n, k, probe_eps, delta)
    samples = sample_distributed(machine, data, rho0)
    probe_size = int(machine.allreduce([s.size for s in samples], op="sum")[0])
    counts = count_into_dht(machine, samples)
    head = take_topk_entries(machine, counts, k + 1)

    if _confident_split(head, k, delta) and rho0 >= pac_sample_rate(
        n, k, eps, delta
    ):
        # the probe is both confident and already fine enough for eps
        items = tuple((key, c / rho0) for key, c in head[:k])
        return FrequentResult(
            items=items,
            exact_counts=rho0 >= 1.0,
            rho=rho0,
            sample_size=probe_size,
            k_star=k,
            info={"escalated": False, "confident": True},
        )

    # ---- stage 2: exact counting of probe candidates ------------------
    k_star = max(k, k_star_factor * k)
    candidates = take_topk_entries(machine, counts, k_star)
    cand_keys = np.array([key for key, _ in candidates], dtype=array_key_dtype(data))
    exact = exact_count_keys(machine, data, cand_keys)
    order = np.lexsort((cand_keys, -exact))
    top = order[: min(k, len(cand_keys))]
    items = tuple((int(cand_keys[t]), float(exact[t])) for t in top)
    return FrequentResult(
        items=items,
        exact_counts=True,
        rho=rho0,
        sample_size=probe_size,
        k_star=int(k_star),
        info={"escalated": True, "confident": _confident_split(head, k, delta)},
    )
