"""Streaming top-k monitoring (the Conclusions' outlook, Section 11).

The paper closes: "we expect to be able to conduct fully distributed
monitoring queries without a substantial increase in communication
volume over our one-shot algorithm."  This module provides that
one-shot-amortized monitor:

* every PE folds its arriving stream batches into a **local count
  table** -- the hash table's ``(keys, counts)`` array pair of
  :mod:`repro.frequent.dht` (pure local work, zero communication -- the
  owner-computes rule);
* a query samples the *aggregated local counts* with the Section 8
  value-weighted sampler (a key with local count v yields ~v/v_avg
  sample units), so query cost matches the one-shot PAC/sum algorithm
  regardless of how many raw items have streamed by;
* queries are cached: a re-query is only triggered once the stream has
  grown by ``refresh_fraction`` since the last answer (in between, the
  cached top-k is still an (eps', delta)-approximation with
  ``eps' = eps + refresh_fraction``, since at most that fraction of
  mass arrived unobserved).

A refresh is one worker command: the tables ride it, and sampling,
counting and selection run in the workers.  The stream length is
tracked where the batches arrive, so a cached answer costs no command.
The only persistent state is the local tables (compare the distributed
top-k data structure of Biermeier et al., arXiv 1709.07259).
"""

from __future__ import annotations

import numpy as np

from ..common.sampling import weighted_sample_counts
from ..machine import Machine
from .dht import (
    Table,
    integer_key_dtype,
    local_table,
    merge_tables,
    pipeline_gen,
    run_pipeline,
)
from .result import FrequentResult

__all__ = ["StreamingTopKMonitor"]


def _sample_counts(rank: int, table: Table, dtype, addr, v_avg: float, log: list):
    """The Section 8.1 sampler over one PE's stream counts (unit values
    = the counts): returns the ``(keys, sample units)`` table of the
    keys drawn at least once and the PE's sample size."""
    keys, counts = table
    units = weighted_sample_counts(addr.local(rank), counts.astype(np.float64), v_avg)
    log.append(("ops", int(keys.size)))
    drawn = units > 0
    sampled = (keys[drawn].astype(dtype, copy=False),
               units[drawn].astype(np.int64, copy=False))
    return sampled, int(units.sum())


class StreamingTopKMonitor:
    """Continuous distributed top-k over item streams.

    Parameters
    ----------
    machine:
        The machine whose PEs receive the streams.
    k, eps, delta:
        Query quality, as in Section 7 (error relative to the total
        stream length).
    refresh_fraction:
        Re-query threshold: fraction of new items (since the last
        query) that invalidates the cache.
    """

    def __init__(
        self,
        machine: Machine,
        k: int,
        eps: float = 1e-2,
        delta: float = 1e-4,
        *,
        refresh_fraction: float = 0.1,
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not 0.0 < refresh_fraction <= 1.0:
            raise ValueError(
                f"refresh_fraction must be in (0, 1], got {refresh_fraction}"
            )
        self.machine = machine
        self.k = k
        self.eps = eps
        self.delta = delta
        self.refresh_fraction = refresh_fraction
        #: per-PE ``(keys, counts)`` tables, keys ascending and in the
        #: stream's own integer dtype (the only persistent stream state)
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        self.tables: list[Table] = [empty] * machine.p
        self._local_total = [0] * machine.p
        self._n_at_last_query = 0
        self._cached: FrequentResult | None = None
        #: number of queries that were served from cache
        self.cache_hits = 0
        #: number of queries that recomputed
        self.refreshes = 0

    # ------------------------------------------------------------------
    def ingest(self, per_pe_batches) -> None:
        """Fold one batch of stream items into the local tables.

        ``per_pe_batches[i]`` is the array of keys that arrived at PE
        ``i``.  Communication-free.
        """
        if len(per_pe_batches) != self.machine.p:
            raise ValueError(
                f"need one batch per PE (p={self.machine.p}, got {len(per_pe_batches)})"
            )
        for i, batch in enumerate(per_pe_batches):
            batch = np.asarray(batch)
            if batch.size == 0:
                continue
            keys, counts = self.tables[i]
            dtype = integer_key_dtype(
                [keys.dtype, batch.dtype] if keys.size else [batch.dtype]
            )
            log: list = []
            fresh = local_table(batch.astype(dtype, copy=False), log)
            held = (keys.astype(dtype, copy=False), counts)
            self.tables[i] = merge_tables([held, fresh])
            self._local_total[i] += int(batch.size)
            self.machine.charge_ops_one(i, log[0][1])

    # ------------------------------------------------------------------
    @property
    def total_items(self) -> int:
        """Global stream length so far (one all-reduction, charged; each
        PE's count is known where its batches arrived)."""
        self.machine._meter_allreduce(words=1)
        return sum(self._local_total)

    def top_k(self, *, force: bool = False) -> FrequentResult:
        """Current top-k (cached unless the stream grew enough)."""
        n = self.total_items
        if n == 0:
            return FrequentResult((), True, 1.0, 0, self.k, {"stream": 0})
        grown = n - self._n_at_last_query
        if (
            self._cached is not None
            and not force
            and grown < self.refresh_fraction * max(self._n_at_last_query, 1)
        ):
            self.cache_hits += 1
            return self._cached

        # sample the aggregated counts (Section 8.1 sampler with unit
        # values = the counts themselves)
        target = max(64.0, 8.0 / self.eps**2 * np.log(2 * self.k / self.delta) / 8)
        target = min(target, float(n))
        v_avg = n / target
        # one key dtype for all tables: an empty one is int64
        dtype = integer_key_dtype([keys.dtype for keys, _ in self.tables if keys.size])
        (_, keys, counts, _, _), sizes = run_pipeline(
            self.machine, self.tables, pipeline_gen,
            (_sample_counts, (dtype, self.machine.draw_addr(), v_avg), self.k),
        )
        result = FrequentResult(
            items=tuple((key, c * v_avg) for key, c in zip(keys.tolist(), counts.tolist())),
            exact_counts=v_avg <= 1.0,
            rho=1.0 / v_avg,
            sample_size=sum(sizes),
            k_star=self.k,
            info={"stream": n, "refreshed": True},
        )
        self._cached = result
        self._n_at_last_query = n
        self.refreshes += 1
        return result
