"""Centralized baselines from the paper's evaluation (Section 10.2).

The paper could not find distributed competitors, so it compares
against two self-built centralized schemes using the *same sampling
rate* as PAC -- any running-time difference is therefore pure
communication structure:

* **Naive** -- every PE sends its aggregated local sample straight to a
  coordinator, which merges and quickselects.  The coordinator receives
  ``p - 1`` serialized messages: time grows linearly in ``p``
  ("Algorithm Naive does not scale beyond a single node at all").
* **Naive Tree** -- same data, but routed up a binomial tree with
  counts merged at every step.  Latency is logarithmic, yet the
  coordinator-adjacent links still carry (aggregated) volume that
  grows with the distinct-key count, which is why PAC's hash-
  partitioned counting beats it at every ``p`` in Figure 7.

Each is one worker command built from the hash table's pieces
(:mod:`repro.frequent.dht`): sample, the sample size's all-reduction,
the local count, then the direct gather or the tree merge into PE 0,
whose top ``k`` one broadcast hands to every PE.
"""

from __future__ import annotations

import numpy as np

from ..common.sampling import pac_sample_rate
from ..common.validation import check_k, check_rate
from ..machine import DistArray, Machine
from .dht import (
    array_key_dtype,
    broadcast_top_k_gen,
    gather_direct_gen,
    local_table,
    merge_tables,
    sample_keys,
    tree_merge_gen,
)
from .result import FrequentResult

__all__ = ["top_k_frequent_naive", "top_k_frequent_naive_tree"]


def _naive_gen(rank: int, p: int, chunk: np.ndarray, take, log: list,
               dtype, addr, rho: float, k: int, tree: bool):
    """One call of either baseline where the chunks live.  PE 0 answers
    ``(items, sample size, coordinator keys)``, the items as ``(key,
    sample count)`` by (count desc, key asc)."""
    keys = sample_keys(rank, chunk, addr, rho, log)
    sample_size = int((yield ("allreduce", int(keys.size), "sum")))
    table = local_table(keys.astype(dtype, copy=False), log)
    if tree:
        merged = yield from tree_merge_gen(
            rank, p, table, lambda a, b: merge_tables((a, b)), "naive_tree", log)
    else:
        parts = yield from gather_direct_gen(rank, p, table, log)
        merged = merge_tables(parts) if rank == 0 else None
        log.append(("ops", sum(int(t[0].size) for t in parts) if rank == 0 else 0))
    if not sample_size:  # nothing was sampled: PE 0 has nothing to send
        return ((), 0, 0), None
    size = int(merged[0].size) if rank == 0 else 0
    # PE 0 quickselects: one operation per entry
    keys, counts = yield from broadcast_top_k_gen(rank, merged, k, size, log)
    return (tuple(zip(keys.tolist(), counts.tolist())), sample_size, size), None


def _run(machine: Machine, data: DistArray, k: int, eps: float, delta: float,
         rho: float | None, tree: bool) -> FrequentResult:
    check_k(k)
    if rho is not None:
        check_rate(rho, "rho")
    n = data.global_size
    machine.replay_charges([[("allreduce", 1)]] * machine.p)  # the driver tracks the sizes
    if n == 0:
        return FrequentResult((), False, 1.0, 0, k, {})
    if rho is None:
        rho = pac_sample_rate(n, k, eps, delta)
    (items, sample_size, coordinator_keys), _ = machine.run_command(
        _naive_gen, data._ensure_ref(),
        (array_key_dtype(data), machine.draw_addr(), rho, k, tree), n_addrs=0,
    )
    return FrequentResult(tuple((key, c / rho) for key, c in items), rho >= 1.0, rho,
                          sample_size, k, {"coordinator_keys": coordinator_keys})


def top_k_frequent_naive(
    machine: Machine,
    data: DistArray,
    k: int,
    eps: float = 1e-3,
    delta: float = 1e-4,
    *,
    rho: float | None = None,
) -> FrequentResult:
    """Master-worker baseline: direct gather of all local samples."""
    return _run(machine, data, k, eps, delta, rho, tree=False)


def top_k_frequent_naive_tree(
    machine: Machine,
    data: DistArray,
    k: int,
    eps: float = 1e-3,
    delta: float = 1e-4,
    *,
    rho: float | None = None,
) -> FrequentResult:
    """Tree-reduction baseline: counts merged on the way up."""
    return _run(machine, data, k, eps, delta, rho, tree=True)
