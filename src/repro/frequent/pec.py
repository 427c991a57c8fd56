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
follows from Theorem 11 by inversion).  The ``k*`` candidates are the
first entries of the stage-1 head (both rank by count desc, key asc),
so no second selection runs.

For Zipf inputs with exponent ``s``, Theorem 14 gives closed forms --
``rho n = 4 k^s H_{N,s} ln(k/delta)`` and ``E[k*] ~= (2 + sqrt 2)^{1/s} k``
-- implemented by :func:`top_k_frequent_pec_zipf` (no probing sample
needed).

Each call is one worker command composed of :mod:`.dht`'s pieces: every
PE estimates ``k*`` (or probes the universe) from the same replicated
values, so no intermediate result returns to the driver.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..common.distributions import harmonic_number
from ..common.sampling import pac_sample_rate
from ..machine import DistArray, Machine
from .dht import (
    array_key_dtype, count_gen, pipeline_gen, sample_table, topk_entries_gen,
)
from .ec import exact_counts_gen, exact_items
from .result import FrequentResult

__all__ = ["top_k_frequent_pec", "top_k_frequent_pec_zipf", "estimate_k_star"]


def estimate_k_star(head: Sequence[int], k: int, delta: float) -> tuple[int, bool]:
    """Gap-based candidate count from the head of the sample ranking
    (Lemma 12): ``head`` holds the largest sample counts, descending
    (the top ``cap_factor * k`` of them).

    Returns ``(k_star, gap_found)``.  If even the last head entry is
    above the Lemma-12 threshold the distribution is too flat and
    ``gap_found`` is False (callers fall back to plain EC semantics
    with the capped ``k*``).
    """
    if len(head) <= k:
        return max(k, len(head)), True  # fewer candidates than the cap: exact
    s_k = head[k - 1]
    # high-probability lower bound on E[s_k] (Theorem 13)
    e_sk = max(0.0, s_k - np.sqrt(2.0 * s_k * np.log(1.0 / delta)))
    threshold = e_sk - np.sqrt(2.0 * max(e_sk, 1e-12) * np.log(k / delta))
    below = np.flatnonzero(np.asarray(head[k:]) <= threshold)
    if below.size:
        return k + int(below[0]) + 1, True
    return len(head), False


def _pec_gen(rank: int, p: int, chunk: np.ndarray, take, log: list,
             dtype, sample_addr, rho0: float, k: int, delta: float, cap: int):
    """Both PEC stages in one command: the probing sample's head of
    ``cap`` entries (the sample size riding its winner exchange), the
    ``k*`` estimate every PE takes from it, and exact counts of the
    head's first ``k*`` keys -- the top ``k*`` themselves, since the
    head is ordered by (count desc, key asc)."""
    table, local_size = sample_table(rank, chunk, dtype, sample_addr, rho0, log)
    table, total = yield from count_gen(rank, p, table, log)
    keys, counts, size = yield from topk_entries_gen(
        rank, p, table, cap, total, take, local_size, log)
    k_star, gap_found = estimate_k_star(counts.tolist(), k, delta)
    keys = keys[:k_star]
    exact = yield from exact_counts_gen(rank, chunk, keys, log)
    return (keys, exact, k_star, gap_found, size), None


def _zipf_gen(rank: int, p: int, chunk: np.ndarray, take, log: list,
              dtype, sample_addr, n: int, k: int, delta: float, s: float,
              universe: int | None, k_star: int):
    """PEC-Zipf in one command: the universe (probed by a max
    all-reduction unless given) fixes the sampling rate, then the
    common pipeline counts the ``k*`` candidates exactly."""
    if universe is None:
        local_max = int(chunk.max()) if chunk.size else 1
        universe = int((yield ("allreduce", local_max, "max")))
    h = harmonic_number(universe, s)
    rho = min(1.0, 4.0 * k**s * h * np.log(k / delta) / n)
    answer, _, _ = yield from pipeline_gen(
        rank, p, chunk, take, log, sample_table, (dtype, sample_addr, rho),
        k_star, True, exact_counts_gen)
    return (answer, universe, h, rho), None


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
    capped candidate set.  One worker command.
    """
    dtype = array_key_dtype(data)
    n = data.global_size
    machine.replay_charges([[("allreduce", 1)]] * machine.p)  # the driver tracks the sizes
    if n == 0:
        return FrequentResult((), True, 1.0, 0, k, {"gap_found": True})
    rho0 = pac_sample_rate(n, k, eps0, delta)
    cap = max(cap_factor * k, k + 1)
    (keys, exact, k_star, gap_found, stage1_size), _ = machine.run_command(
        _pec_gen, data._ensure_ref(),
        (dtype, machine.draw_addr(), rho0, k, delta, cap),
    )
    return FrequentResult(
        items=exact_items(keys, exact, k) if exact is not None else (),
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
    One worker command, the universe probe included.
    """
    dtype = array_key_dtype(data)
    n = data.global_size
    machine.replay_charges([[("allreduce", 1)]] * machine.p)  # the driver tracks the sizes
    if n == 0:
        return FrequentResult((), True, 1.0, 0, k, {})
    k_star = int(np.ceil((2.0 + np.sqrt(2.0)) ** (1.0 / s) * k))
    (answer, universe, h, rho), _ = machine.run_command(
        _zipf_gen, data._ensure_ref(),
        (dtype, machine.draw_addr(), n, k, delta, s, universe, k_star),
    )
    _, cand_keys, _, sample_size, exact = answer
    if exact is None:
        return FrequentResult((), True, rho, sample_size, k_star, {})
    return FrequentResult(
        items=exact_items(cand_keys, exact, k),
        exact_counts=True,
        rho=rho,
        sample_size=sample_size,
        k_star=k_star,
        info={"universe": universe, "harmonic": h},
    )
