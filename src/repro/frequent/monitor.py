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

The tables stay resident between refreshes (compare the distributed
top-k data structure of Biermeier et al., arXiv 1709.07259, which keeps
its count state where it is counted).  Between refreshes each PE's
arrivals are folded into a *delta* table on the driver; a refresh is
one worker command that ships only the deltas, merges them into the
resident tables, samples, counts and selects there, and outputs the
merged tables as the next resident ref (in lineage, so a lost pool
rebuilds it).  The stream length is tracked where the batches arrive,
so a cached answer costs no command.
"""

from __future__ import annotations

import numpy as np

from ..common.sampling import weighted_sample_counts
from ..machine import Machine
from ..machine.backends import PureStep
from .dht import (
    Table,
    integer_key_dtype,
    local_table,
    merge_tables,
    pipeline_gen,
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


def _fold(held: Table | None, delta: Table) -> Table:
    """A PE's resident table with its delta merged in, in the delta's
    key dtype (the PE's stream dtype so far)."""
    if held is None:
        return delta
    keys, counts = held
    return merge_tables([(keys.astype(delta[0].dtype, copy=False), counts), delta])


def _refresh_gen(rank: int, p: int, source, take, log: list, dtype,
                 addr, v_avg: float, k: int):
    """One refresh: fold the delta into the resident table, run the
    pipeline over it and keep the merged table."""
    table = _fold(*source)
    answer, info, _ = yield from pipeline_gen(
        rank, p, table, take, log, _sample_counts, (dtype, addr, v_avg), k)
    return answer, info, table


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
        #: the per-PE ``(keys, counts)`` tables as of the last refresh,
        #: resident (``None`` before the first)
        self._held = None
        #: per-PE arrivals since the last refresh, a table each whose
        #: key dtype is the PE's stream dtype so far
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        self._deltas: list[Table] = [empty] * machine.p
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
        ops = np.zeros(self.machine.p)
        for i, batch in enumerate(per_pe_batches):
            batch = np.asarray(batch)
            if batch.size == 0:
                continue
            keys, counts = self._deltas[i]
            dtype = integer_key_dtype(
                [keys.dtype, batch.dtype] if self._local_total[i] else [batch.dtype]
            )
            log: list = []
            fresh = local_table(batch.astype(dtype, copy=False), log)
            self._deltas[i] = merge_tables([(keys.astype(dtype, copy=False), counts), fresh])
            self._local_total[i] += int(batch.size)
            ops[i] = log[0][1]
        self.machine.charge_ops(ops)

    @property
    def tables(self) -> list[Table]:
        """Per-PE ``(keys, counts)`` stream tables, keys ascending and in
        the PE's stream dtype (the resident tables, fetched, with the
        arrivals since the last refresh merged in)."""
        held = ([None] * self.machine.p if self._held is None
                else self.machine.backend.get_chunks(self._held))
        return [_fold(h, d) for h, d in zip(held, self._deltas)]

    # ------------------------------------------------------------------
    @property
    def total_items(self) -> int:
        """Global stream length so far (one all-reduction, charged; each
        PE's count is known where its batches arrived)."""
        self.machine.replay_charges([[("allreduce", 1)]] * self.machine.p)
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
        deltas = self._deltas
        dtype = integer_key_dtype([
            delta[0].dtype for delta, seen in zip(deltas, self._local_total) if seen])
        source = ([(None, delta) for delta in deltas] if self._held is None
                  else (self._held, deltas))
        (_, keys, counts, _, _), sizes, self._held = self.machine.run_command(
            PureStep(_refresh_gen), source,
            (dtype, self.machine.draw_addr(), v_avg, self.k), keep=True,
        )
        self._deltas = [(np.empty(0, dtype=delta[0].dtype), np.empty(0, dtype=np.int64))
                        for delta in deltas]
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
