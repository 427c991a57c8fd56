"""Distributed single-shot Bloom filter counting (Section 7.4).

The EC algorithm ships ``(key, count)`` pairs into the distributed hash
table.  The paper's refinement replaces keys by *hash fingerprints*
[34]: PEs transmit ``(h(key), count)`` with a fingerprint much smaller
than the key, cutting the insertion volume roughly in half for one-word
keys and more for fat keys.  The price is collisions:

1. count fingerprints in the DHT (merge-on-the-way, as usual): each
   PE's (fingerprint, count) table goes through the package's one
   hash-table exchange, :func:`~repro.frequent.dht.exchange_into_dht`,
   at 1.5 words per entry instead of 2;
2. select the fingerprints of rank ``<= k* + kappa`` (a safety margin
   ``kappa`` absorbs collided fingerprints);
3. resolve the selected fingerprints back to keys: every PE looks up
   which of its *local* keys map to a selected fingerprint and the
   (key, local count) lists are re-counted exactly -- splitting merged
   counts where two keys collided;
4. if fewer than ``k*`` distinct keys survive resolution (too many
   collisions ate the margin), double ``kappa`` and retry.

The paper observes that if frequent fingerprints are *dominated* by
collisions, the distribution is flat and extra counting would not help
-- mirrored here by the bounded retry with a flat-distribution flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.validation import check_k_star, check_rate
from ..kernels import fingerprint32
from ..machine import DistArray, Machine
from .dht import (
    array_key_dtype,
    exchange_into_dht,
    integer_key_dtype,
    local_table,
    merge_tables,
    take_topk_entries,
)
from .result import FrequentResult

__all__ = ["dsbf_top_candidates", "top_k_frequent_ec_dsbf", "DsbfStats"]


@dataclass(frozen=True)
class DsbfStats:
    """Diagnostics of the fingerprint-resolution loop."""

    kappa: int
    rounds: int
    collisions: int
    flat_suspected: bool


def dsbf_top_candidates(
    machine: Machine,
    samples_per_pe: list[np.ndarray],
    k_star: int,
    *,
    kappa0: int | None = None,
    salt: int = 0xD5BF,
    max_rounds: int = 4,
    piggyback=None,
):
    """The ``k_star`` most frequently sampled keys, via fingerprints.

    Returns ``(candidates, stats)`` where candidates are (key, sample
    count) pairs replicated on all PEs, at most ``k_star`` of them.
    With ``piggyback`` (per-PE sample sizes), the sum is fused into the
    first head extraction and a third return entry carries the total.
    """
    if k_star < 1:
        raise ValueError(f"k_star must be >= 1, got {k_star}")
    samples = [np.asarray(s) for s in samples_per_pe]
    dtype = integer_key_dtype([s.dtype for s in samples if s.size])
    # local aggregation once: (keys, local sample counts, fingerprints)
    # per PE, the fingerprints from one batched kernel pass; the
    # fingerprinted table sums the counts of colliding keys
    local, fp_tables = [], []
    for i, s in enumerate(samples):
        log: list = []
        keys, counts = local_table(s.astype(dtype, copy=False), log)
        machine.charge_ops_one(i, log[0][1])
        fps = fingerprint32(keys, salt)
        local.append((keys, counts, fps))
        fp_tables.append(merge_tables([(fps, counts)]))
        machine.charge_ops_one(i, max(1, int(keys.size)))

    # fingerprints are half a word: 1.5 words per (fp, count) entry on
    # the wire instead of the 2.0 of (key, count) pairs
    routed = exchange_into_dht(machine, fp_tables, salt=salt + 1, width=1.5)

    kappa = kappa0 if kappa0 is not None else max(8, k_star // 4)
    rounds = 0
    pb_total = None
    while True:
        rounds += 1
        if piggyback is not None and pb_total is None:
            head, pb_total = take_topk_entries(
                machine, routed, k_star + kappa, piggyback=piggyback
            )
        else:
            head = take_topk_entries(machine, routed, k_star + kappa)
        # fewer fingerprints exist than requested: resolution will
        # reveal every sampled key, no retry can add more
        exhausted = len(head) < k_star + kappa
        selected_fps = np.array([fp for fp, _ in head], dtype=np.int64)
        # resolve: each PE reports (key, local count) for its local keys
        # whose fingerprint was selected; identities are all-gathered
        # (this is the "request the keys" step of Section 7.4)
        reveals = []
        for i, (keys, counts, fps) in enumerate(local):
            hit = np.isin(fps, selected_fps)
            machine.charge_ops_one(i, max(1, int(keys.size)))
            reveals.append((keys[hit], counts[hit]))
        keys, counts = merge_tables(machine.allgather(reveals)[0])
        collisions = max(0, int(keys.size) - len(head))
        if keys.size >= k_star or exhausted or rounds >= max_rounds:
            top = np.lexsort((keys, -counts))[:k_star]
            items = list(zip(keys[top].tolist(), counts[top].tolist()))
            flat = (not exhausted) and keys.size < k_star and rounds >= max_rounds
            stats = DsbfStats(kappa, rounds, collisions, flat)
            if piggyback is None:
                return items, stats
            return items, stats, pb_total
        kappa *= 2


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
    keys+counts.
    """
    from ..common.sampling import ec_sample_rate
    from .ec import exact_count_keys, optimal_k_star
    from .pac import sample_distributed

    k_star = None if k_star is None else check_k_star(k_star, k)
    if rho is not None:
        check_rate(rho, "rho")
    p = machine.p
    n = int(machine.allreduce([int(s) for s in data.sizes()], op="sum")[0])
    if n == 0:
        return FrequentResult((), True, 1.0, 0, k, {})
    if k_star is None:
        k_star = optimal_k_star(n, k, p, eps, delta)
    if rho is None:
        rho = ec_sample_rate(n, k_star, eps, delta)

    samples = sample_distributed(machine, data, rho)
    candidates, stats, sample_size = dsbf_top_candidates(
        machine, samples, k_star, piggyback=[int(s.size) for s in samples]
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
        k_star=int(k_star),
        info={
            "dsbf_kappa": stats.kappa,
            "dsbf_rounds": stats.rounds,
            "dsbf_collisions": stats.collisions,
            "flat_suspected": stats.flat_suspected,
        },
    )
