"""Space-saving (Misra-Gries) heavy-hitter summaries.

The related-work heavy-hitter formulation (Section 3: "the
significantly easier problem of identifying the heavy hitters") solved
with the classic deterministic summary: a budget of ``capacity``
counters guarantees every key's count estimate errs by at most
``n / capacity``, so keys with frequency above ``phi * n`` are found
whenever ``capacity > 1/phi``.

Summaries merge associatively (count-wise, then shrink back to
capacity), so a distributed query is one tree reduction --
:func:`heavy_hitters` -- giving a monitoring-style baseline to contrast
with the sampling algorithms of Section 7 (marked dagger in Table 1).
It is one worker command: every PE summarises its chunk where it
lives, the summaries merge up the binomial tree into PE 0, and one
broadcast hands PE 0's heavy hitters to every PE.
"""

from __future__ import annotations

import numpy as np

from ..kernels import spacesaving_offer
from ..machine import DistArray, Machine
from .dht import tree_merge_gen

__all__ = ["SpaceSaving", "heavy_hitters"]


class SpaceSaving:
    """Deterministic frequent-elements summary with bounded error.

    ``offer(key, w)`` processes ``w`` occurrences of ``key``;
    ``estimate(key)`` over-approximates the true count by at most
    :attr:`error_bound`.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.counters: dict[int, int] = {}
        #: total weight processed
        self.n = 0
        #: largest count ever evicted (error witness)
        self.max_evicted = 0

    def offer(self, key: int, weight: int = 1) -> None:
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.n += weight
        key = int(key)
        if key in self.counters:
            self.counters[key] += weight
            return
        if len(self.counters) < self.capacity:
            self.counters[key] = weight
            return
        # replace the minimum counter (space-saving rule): the new key
        # inherits the evicted count as over-estimate
        victim = min(self.counters, key=self.counters.__getitem__)
        floor = self.counters.pop(victim)
        self.max_evicted = max(self.max_evicted, floor)
        self.counters[key] = floor + weight

    def offer_array(self, keys: np.ndarray) -> None:
        uniq, counts = np.unique(np.asarray(keys), return_counts=True)
        if uniq.size == 0:
            return
        if not np.issubdtype(uniq.dtype, np.integer):
            for key, c in zip(uniq, counts):
                self.offer(int(key), int(c))
            return
        # batch path: the summary state round-trips through the
        # insertion-ordered parallel arrays the offer kernel works on,
        # in the keys' own dtype (uint64 keys >= 2^63 included)
        cur_keys = np.fromiter(
            self.counters.keys(), dtype=uniq.dtype, count=len(self.counters)
        )
        cur_counts = np.fromiter(
            self.counters.values(), dtype=np.int64, count=len(self.counters)
        )
        out_keys, out_counts, self.max_evicted = spacesaving_offer(
            cur_keys, cur_counts, self.capacity, self.max_evicted,
            uniq, counts.astype(np.int64),
        )
        self.counters = {int(k): int(c) for k, c in zip(out_keys, out_counts)}
        self.n += int(counts.sum())

    def estimate(self, key: int) -> int:
        return self.counters.get(int(key), self.max_evicted)

    @property
    def error_bound(self) -> float:
        """Worst-case overestimate: ``n / capacity``."""
        return self.n / self.capacity

    def merge(self, other: "SpaceSaving") -> "SpaceSaving":
        """Associative merge, shrunk back to this summary's capacity."""
        out = SpaceSaving(self.capacity)
        combined: dict[int, int] = dict(self.counters)
        for key, c in other.counters.items():
            combined[key] = combined.get(key, 0) + c
        out.n = self.n + other.n
        out.max_evicted = max(self.max_evicted, other.max_evicted)
        if len(combined) > self.capacity:
            keep = sorted(combined.items(), key=lambda t: (-t[1], t[0]))
            for key, c in keep[self.capacity:]:
                out.max_evicted = max(out.max_evicted, c)
            combined = dict(keep[: self.capacity])
        out.counters = combined
        return out

    def comm_words(self) -> int:
        """Wire size: two words per counter (for the tree reduction)."""
        return 2 * len(self.counters) + 2

    def top(self, k: int) -> list[tuple[int, int]]:
        return sorted(self.counters.items(), key=lambda t: (-t[1], t[0]))[:k]


def _heavy_hitters_gen(rank: int, p: int, chunk: np.ndarray, take,
                      log: list, capacity: int, phi: float):
    """One :func:`heavy_hitters` call where the chunks live; PE 0
    answers the list of ``(key, count)``."""
    summary = SpaceSaving(capacity)
    summary.offer_array(chunk)
    log.append(("ops", max(1.0, chunk.size * np.log2(max(capacity, 2)))))
    merged = yield from tree_merge_gen(
        rank, p, summary, SpaceSaving.merge, "spacesaving", log)
    items = None
    if rank == 0:
        items = [(key, c) for key, c in merged.top(capacity) if c > phi * merged.n]
    items = yield ("broadcast", items, 0)
    return items, None


def heavy_hitters(
    machine: Machine, data: DistArray, phi: float, *, slack: int = 4
) -> list[tuple[int, int]]:
    """Keys with frequency > ``phi * n``, via merged space-saving
    summaries (capacity ``slack/phi``) and one tree reduction.

    Guaranteed to contain every true phi-heavy hitter; counts are
    overestimates within ``n * phi / slack``.
    """
    if not 0.0 < phi < 1.0:
        raise ValueError(f"phi must be in (0, 1), got {phi}")
    capacity = int(np.ceil(slack / phi))
    items, _ = machine.run_command(_heavy_hitters_gen, data._ensure_ref(),
                                   (capacity, phi), n_addrs=0)
    return items
