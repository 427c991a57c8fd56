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

Both stages are one worker command: every PE takes the decision from
the same replicated probe head, and on escalation selects the ``k*``
candidates from the table it already holds.
"""

from __future__ import annotations

import numpy as np

from ..common.sampling import pac_sample_rate
from ..machine import DistArray, Machine
from .dht import (
    array_key_dtype, count_gen, local_table, sample_keys, topk_entries_gen,
)
from .ec import exact_counts_gen, exact_items
from .result import FrequentResult

__all__ = ["top_k_frequent_adaptive"]


def _confident_split(head: list[int], k: int, delta: float) -> bool:
    """Is the probe's rank-k/rank-(k+1) gap beyond both fluctuations?
    ``head`` holds the largest sample counts, descending."""
    if len(head) <= k:
        return True  # fewer distinct keys than k: nothing can displace
    s_k = head[k - 1]
    s_next = head[k]
    fluct = np.sqrt(2.0 * max(s_k, 1.0) * np.log(1.0 / delta)) + np.sqrt(
        2.0 * max(s_next, 1.0) * np.log(1.0 / delta)
    )
    return (s_k - s_next) > fluct


def _adaptive_gen(rank: int, p: int, chunk: np.ndarray, take, log: list,
                  dtype, sample_addr, rho0: float, fine_enough: bool, k: int,
                  k_star: int, delta: float):
    """Probe, count, select the top ``k + 1``; stop if the split is
    confident and the probe ``fine_enough``, else select the ``k_star``
    candidates from the same table and count them exactly.  Returns
    ``(escalated, confident, keys, counts, probe size)``: the probe's
    sample counts of the top ``k`` when it stops, the candidates' exact
    counts when it escalates."""
    sample = sample_keys(rank, chunk, sample_addr, rho0, log)
    probe_size = int((yield ("allreduce", int(sample.size), "sum")))
    table = local_table(sample.astype(dtype, copy=False), log)
    table, total = yield from count_gen(rank, p, table, log)
    keys, counts, _ = yield from topk_entries_gen(
        rank, p, table, k + 1, total, take, None, log)
    confident = _confident_split(counts.tolist(), k, delta)
    if confident and fine_enough:
        return (False, confident, keys[:k], counts[:k], probe_size), None
    keys, _, _ = yield from topk_entries_gen(
        rank, p, table, k_star, total, take, None, log)
    exact = yield from exact_counts_gen(rank, chunk, keys, log)
    return (True, confident, keys, exact, probe_size), None


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
    dtype = array_key_dtype(data)
    n = data.global_size
    machine.replay_charges([[("allreduce", 1)]] * machine.p)  # the driver tracks the sizes
    if n == 0:
        return FrequentResult((), True, 1.0, 0, k, {"escalated": False})
    rho0 = pac_sample_rate(n, k, probe_eps, delta)
    # the probe is already fine enough for eps
    fine_enough = rho0 >= pac_sample_rate(n, k, eps, delta)
    k_star = max(k, k_star_factor * k)
    (escalated, confident, keys, counts, probe_size), _ = machine.run_command(
        _adaptive_gen, data._ensure_ref(),
        (dtype, machine.draw_addr(), rho0, fine_enough, k, k_star, delta), n_addrs=2,
    )
    if not escalated:
        return FrequentResult(
            items=tuple((key, c / rho0) for key, c in zip(keys.tolist(), counts.tolist())),
            exact_counts=rho0 >= 1.0,
            rho=rho0,
            sample_size=probe_size,
            k_star=k,
            info={"escalated": False, "confident": True},
        )
    return FrequentResult(
        items=exact_items(keys, counts, k) if counts is not None else (),
        exact_counts=True,
        rho=rho0,
        sample_size=probe_size,
        k_star=int(k_star),
        info={"escalated": True, "confident": confident},
    )
