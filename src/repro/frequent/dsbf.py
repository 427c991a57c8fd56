"""Distributed single-shot Bloom filter counting (Section 7.4).

The EC algorithm ships ``(key, count)`` pairs into the distributed hash
table.  The paper's refinement replaces keys by *hash fingerprints*
[34]: PEs transmit ``(h(key), count)`` with a fingerprint much smaller
than the key, cutting the insertion volume roughly in half for one-word
keys and more for fat keys.  The price is collisions:

1. count fingerprints in the DHT (merge-on-the-way, as usual): each
   PE's (fingerprint, count) table goes through the package's one
   hash-table exchange, :func:`~repro.frequent.dht.exchange_gen`, at
   1.5 words per entry instead of 2;
2. select the fingerprints of rank ``<= k* + kappa`` (a safety margin
   ``kappa`` absorbs collided fingerprints);
3. resolve the selected fingerprints back to keys: every PE looks up
   which of its *local* keys map to a selected fingerprint and the
   (key, local count) lists are re-counted exactly -- splitting merged
   counts where two keys collided;
4. if fewer than ``k*`` distinct keys were revealed, double ``kappa``
   and retry, at most ``max_rounds`` rounds in all.  Every selected
   fingerprint reveals at least the key it was counted from, so a
   round reveals ``k* + kappa`` keys or every sampled key: with a
   margin ``kappa >= 0`` one round always suffices, and collisions only
   add keys.  Only a negative margin retries -- doubling makes it more
   negative, so it runs all ``max_rounds`` rounds and reports
   ``flat_suspected`` unless collisions reveal ``k*`` keys first.

The paper observes that if frequent fingerprints are *dominated* by
collisions, the distribution is flat and extra counting would not help
-- mirrored here by the bounded loop and its flat-distribution flag.

All four steps (and EC's exact pass) are one worker command: the
fingerprint table is counted once, and every PE runs the same retry
loop over the replicated selections and reveals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.sampling import ec_sample_rate
from ..common.validation import check_k, check_k_star, check_rate
from ..kernels import fingerprint32
from ..machine import DistArray, Machine
from .dht import (
    array_key_dtype,
    count_gen,
    integer_key_dtype,
    local_table,
    merge_tables,
    sample_keys,
    topk_entries_gen,
)
from .ec import exact_counts_gen, exact_items, optimal_k_star
from .result import FrequentResult

__all__ = ["dsbf_top_candidates", "top_k_frequent_ec_dsbf", "DsbfStats"]

#: fingerprint salt and resolution-round bound of the defaults
SALT = 0xD5BF
MAX_ROUNDS = 4


@dataclass(frozen=True)
class DsbfStats:
    """Diagnostics of the fingerprint-resolution loop."""

    kappa: int
    rounds: int
    collisions: int
    flat_suspected: bool


def _dsbf_gen(rank: int, p: int, source, take, log: list, sample_addr,
              rho: float, dtype, k_star: int, kappa: int, salt: int, max_rounds: int):
    """The ``k_star`` most frequently sampled keys, through fingerprints.

    With ``sample_addr`` (EC with dSBF) ``source`` is this PE's chunk:
    its Bernoulli(``rho``) sample is nominated from, the sample size
    rides the first head extraction and the candidates are counted
    exactly.  Without, ``source`` is this PE's sample.  Returns
    ``(keys, sample counts, exact counts, stats, sample size)``,
    replicated.
    """
    sample = sample_keys(rank, source, sample_addr, rho, log)
    piggyback = None if sample_addr is None else int(sample.size)
    # local aggregation once; the fingerprinted table sums the counts
    # of colliding keys
    keys, counts = local_table(sample.astype(dtype, copy=False), log)
    fps = fingerprint32(keys, salt)
    log.append(("ops", max(1, int(keys.size))))
    # fingerprints are half a word: 1.5 words per (fp, count) entry on
    # the wire instead of the 2.0 of (key, count) pairs
    table, total = yield from count_gen(
        rank, p, merge_tables([(fps, counts)]), log, salt + 1, 1.5)
    rounds, size = 0, None
    while True:
        rounds += 1
        head, _, pb = yield from topk_entries_gen(
            rank, p, table, k_star + kappa, total, take, piggyback, log)
        if rounds == 1:
            size, piggyback = pb, None
        # fewer fingerprints exist than requested: resolution will
        # reveal every sampled key, no retry can add more
        exhausted = head.size < k_star + kappa
        # resolve: each PE reveals (key, local count) for its local keys
        # whose fingerprint was selected (the "request the keys" step
        # of Section 7.4)
        hit = np.isin(fps, head)
        log.append(("ops", max(1, int(keys.size))))
        gathered = yield ("allgather", (keys[hit], counts[hit]))
        found, found_counts = merge_tables(gathered)
        if found.size >= k_star or exhausted or rounds >= max_rounds:
            break
        kappa *= 2
    flat = (not exhausted) and found.size < k_star and rounds >= max_rounds
    stats = DsbfStats(kappa, rounds, max(0, int(found.size) - int(head.size)), flat)
    top = np.lexsort((found, -found_counts))[:k_star]
    exact = None
    if sample_addr is not None:
        exact = yield from exact_counts_gen(rank, source, found[top], log)
    return (found[top], found_counts[top], exact, stats, size), None


def dsbf_top_candidates(
    machine: Machine,
    samples_per_pe: list[np.ndarray],
    k_star: int,
    *,
    kappa0: int | None = None,
    salt: int = SALT,
    max_rounds: int = MAX_ROUNDS,
):
    """The ``k_star`` most frequently sampled keys, via fingerprints.

    Returns ``(candidates, stats)`` where candidates are (key, sample
    count) pairs replicated on all PEs, at most ``k_star`` of them.
    The samples ride the one worker command.
    """
    if k_star < 1:
        raise ValueError(f"k_star must be >= 1, got {k_star}")
    kappa = kappa0 if kappa0 is not None else max(8, k_star // 4)
    # a negative margin must leave every round a fingerprint to select
    check_k(k_star + min(kappa, kappa * 2 ** (max(max_rounds, 1) - 1)))
    samples = [np.asarray(s) for s in samples_per_pe]
    dtype = integer_key_dtype([s.dtype for s in samples if s.size])
    (keys, counts, _, stats, _), _ = machine.run_command(
        _dsbf_gen, samples,
        (None, 1.0, dtype, k_star, kappa, salt, max_rounds), n_addrs=max(max_rounds, 1),
    )
    return list(zip(keys.tolist(), counts.tolist())), stats


def top_k_frequent_ec_dsbf(
    machine: Machine,
    data: DistArray,
    k: int,
    eps: float = 1e-3,
    delta: float = 1e-4,
    *,
    k_star: int | None = None,
    rho: float | None = None,
) -> FrequentResult:
    """Algorithm EC with dSBF candidate nomination (Section 7.4).

    Identical guarantees to :func:`~repro.frequent.ec.top_k_frequent_ec`
    (the exact-counting pass is unchanged); only the sample-counting
    volume shrinks, since fingerprints+counts travel instead of
    keys+counts.  One worker command.
    """
    k_star = None if k_star is None else check_k_star(k_star, k)
    if rho is not None:
        check_rate(rho, "rho")
    dtype = array_key_dtype(data)
    n = data.global_size
    machine.replay_charges([[("allreduce", 1)]] * machine.p)  # the driver tracks the sizes
    if n == 0:
        return FrequentResult((), True, 1.0, 0, k, {})
    if k_star is None:
        k_star = optimal_k_star(n, k, machine.p, eps, delta)
    if rho is None:
        rho = ec_sample_rate(n, k_star, eps, delta)
    (cand_keys, _, exact, stats, sample_size), _ = machine.run_command(
        _dsbf_gen, data._ensure_ref(),
        (machine.draw_addr(), rho, dtype, k_star, max(8, k_star // 4), SALT,
         MAX_ROUNDS), n_addrs=MAX_ROUNDS,
    )
    if exact is None:
        return FrequentResult((), True, rho, sample_size, k_star, {})
    return FrequentResult(
        items=exact_items(cand_keys, exact, k),
        exact_counts=True,
        rho=rho,
        sample_size=sample_size,
        k_star=int(k_star),
        info={
            "dsbf_kappa": stats.kappa,
            "dsbf_rounds": stats.rounds,
            "dsbf_collisions": stats.collisions,
            "flat_suspected": stats.flat_suspected,
        },
    )
