"""Distributed single-shot Bloom filter counting (Section 7.4).

The EC algorithm ships ``(key, count)`` pairs into the distributed hash
table.  The paper's refinement replaces keys by *hash fingerprints*
[34]: PEs transmit ``(h(key), count)`` with a fingerprint much smaller
than the key, cutting the insertion volume roughly in half for one-word
keys and more for fat keys.  The price is collisions:

1. count fingerprints in the DHT (merge-on-the-way, as usual);
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

from ..common.hashing import make_owner_fn
from ..common.validation import check_k_star, check_rate
from ..kernels import fingerprint32
from ..machine import DistArray, Machine
from .dht import local_key_counts, take_topk_entries
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
    p = machine.p
    # local aggregation once: key -> local sample count
    local = [
        local_key_counts(machine, i, np.asarray(s)) for i, s in enumerate(samples_per_pe)
    ]
    # fingerprinted view: fp -> summed local count (collisions merge
    # here); fingerprints are computed in one batched kernel pass per PE
    fp_local = []
    fp_of_key: dict[int, int] = {}
    for i in range(p):
        d: dict[int, int] = {}
        items = sorted(local[i].items())
        if items:
            keys = np.fromiter(
                (k for k, _ in items), dtype=np.int64, count=len(items)
            )
            fps = fingerprint32(keys, salt)
            for (key, c), fp in zip(items, fps):
                fp = int(fp)
                fp_of_key[key] = fp
                d[fp] = d.get(fp, 0) + c
        fp_local.append(d)
        machine.charge_ops_one(i, max(1, len(local[i])))

    owner = make_owner_fn(p, salt=salt + 1)
    # fingerprints are half a word: 1.5 words per (fp, count) entry on
    # the wire instead of the 2.0 of (key, count) pairs
    routed = machine.aggregate_exchange(fp_local, owner, words_per_entry=1.5)

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
        fp_set = set(int(f) for f in selected_fps)
        reveals = []
        for i in range(p):
            mine = {
                key: c for key, c in local[i].items() if fp_of_key[key] in fp_set
            }
            machine.charge_ops_one(i, max(1, len(local[i])))
            reveals.append(mine)
        gathered = machine.allgather(reveals)[0]
        exact: dict[int, int] = {}
        for piece in gathered:
            for key, c in sorted(piece.items()):
                exact[key] = exact.get(key, 0) + c
        collisions = max(0, len(exact) - len(head))
        if len(exact) >= k_star or exhausted or rounds >= max_rounds:
            items = sorted(exact.items(), key=lambda t: (-t[1], t[0]))[:k_star]
            flat = (not exhausted) and len(exact) < k_star and rounds >= max_rounds
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
    cand_keys = np.array([key for key, _ in candidates], dtype=np.int64)
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
