"""Distributed hash table for sample counting (Section 7's substrate).

Sampled keys are aggregated twice:

1. **locally** -- each PE counts its own sample occurrences while
   sampling (``np.unique`` here), so at most one (key, count) pair per
   distinct key leaves a PE;
2. **in the network** -- pairs are routed to the key's home PE
   ``h(key) mod p`` along a hypercube, and "the incoming sample counts
   are merged with a hash table in each step of the reduction"
   (Section 7.1), keeping latency logarithmic and volume bounded by the
   distinct-key count.

Both steps run where the data lives.  A PE's table is a pair of arrays
``(keys, counts)``, keys ascending and unique, in the keys' own integer
dtype; the owner split is the vectorised
:func:`~repro.common.hashing.key_owner`; one hypercube round is one
in-worker ``sendrecv`` hop whose arrivals are merged at once (direct
delivery when ``p`` is not a power of two).  On top of the table,
:func:`topk_entries_gen` extracts the globally most frequent ``k``
entries with the unsorted selection algorithm of Section 4.1 (count
ties resolved globally by ascending key, so the output size is exact).

Everything here is an SPMD generator *piece*: it yields in-worker
collectives, appends to ``log`` every charge a step-by-step driver
would make (:meth:`Machine.replay_charges` replays them, so modeled
cost is identical on every backend) and composes by ``yield from``.
The pipelines (``pac``, ``ec``, ``exact``, ``aggregation.sum_topk``)
string the pieces into ONE worker command, :func:`run_pipeline`:
sample, exchange, the all-reduction that gives every PE the table's
size, selection, winner exchange and the optional exact pass, the
table never leaving the kernel.  The selection draws only when more
than ``k`` entries exist, which the driver learns only from the
command's answer: it allocates the draw address at build time and
gives it back when the command reports that it did not select.
:func:`count_into_dht`, :func:`exchange_into_dht` and
:func:`take_topk_entries` run the same pieces for callers that hold
samples or per-PE tables in the driver: ``pec``, ``adaptive``, the
streaming monitor, and dSBF, whose fingerprint entries are 1.5 words
wide instead of 2 (``width``; Section 7.4).  This is the package's one
hash-table exchange.
"""

from __future__ import annotations

from math import ceil
from typing import Sequence

import numpy as np

from ..common.hashing import key_owner
from ..common.sampling import bernoulli_sample
from ..common.validation import check_k
from ..machine import DistArray, Machine
from ..machine.cost import log2_ceil
from ..selection.unsorted import default_base_case, select_kth_gen

__all__ = [
    "count_into_dht",
    "exchange_into_dht",
    "take_topk_entries",
    "local_key_counts",
    "array_key_dtype",
    "integer_key_dtype",
    "run_pipeline",
    "sample_table",
]

#: a PE's hash table: ``(keys, counts)``, keys ascending and unique
Table = tuple[np.ndarray, np.ndarray]


def integer_key_dtype(dtypes) -> np.dtype:
    """The common dtype of integer key arrays (``int64`` for none).

    Keys are hashed and compared by value, so anything but an integer
    dtype is rejected rather than truncated.
    """
    dtype = np.result_type(*dtypes) if dtypes else np.dtype(np.int64)
    if dtype.kind not in "iu":
        raise ValueError(f"keys must have an integer dtype, got {dtype}")
    return dtype


def _as_dicts(tables: Sequence[Table]) -> list[dict[int, int]]:
    return [dict(zip(keys.tolist(), counts.tolist())) for keys, counts in tables]


# ----------------------------------------------------------------------
# SPMD pieces
# ----------------------------------------------------------------------

def local_table(keys: np.ndarray, log: list) -> Table:
    """Step 1: one PE's keys counted into a table.

    Charged as one pass plus the sort behind ``np.unique`` (a hash table
    in the C++ original; same asymptotics up to the log factor, which we
    charge honestly).
    """
    size = int(keys.size)
    log.append(("ops", size * np.log2(max(size, 2)) if size else 0.0))
    uniq, counts = np.unique(keys, return_counts=True)
    return uniq, counts.astype(np.int64, copy=False)


def merge_tables(parts: Sequence[Table]) -> Table:
    """One table out of several, the counts of equal keys added."""
    keys = np.concatenate([t[0] for t in parts])
    counts = np.concatenate([t[1] for t in parts])
    if keys.size == 0:
        return keys, counts
    order = np.argsort(keys, kind="stable")
    keys, counts = keys[order], counts[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[first], np.add.reduceat(counts, first)


def exchange_gen(rank: int, p: int, table: Table, salt: int, log: list,
                 width: float = 2.0):
    """Step 2: route every entry to its key's home PE, merging equal
    keys at every hop.  Returns the entries this PE owns.

    ``ceil(log2 p)`` rounds; in round ``r`` a PE hands its partner
    across bit ``r`` the entries whose owner lies on the partner's side.
    When ``p`` is not a power of two a PE may lack a partner, so entries
    travel straight to their owners instead.  ``width`` is the wire
    size of one entry in words: 2.0 for a (key, count) pair, 1.5 for
    the half-word fingerprints of the dSBF refinement (Section 7.4).
    """
    if p & (p - 1):
        keys, counts = table
        owner = key_owner(keys, p, salt)
        row = [(keys[mine], counts[mine]) for mine in (owner == d for d in range(p))]
        log.append(("alltoall", tuple(ceil(width * part[0].size) for part in row)))
        received = yield ("alltoall", row)
        log.append(("ops", sum(int(part[0].size) for part in received)))
        return merge_tables(received)
    for r in range(log2_ceil(p)):
        bit = 1 << r
        keys, counts = table
        leaving = ((key_owner(keys, p, salt) ^ rank) & bit) != 0
        row: list = [None] * p
        row[rank ^ bit] = (keys[leaving], counts[leaving])
        log.append(("dht_round", bit, int(leaving.sum()), width))
        received = yield ("sendrecv", row, (rank ^ bit,))
        table = merge_tables(
            [(keys[~leaving], counts[~leaving]), received[rank ^ bit]]
        )
    return table


def topk_entries_gen(rank: int, p: int, table: Table, k: int, total: int,
                     addr, piggyback, log: list):
    """The ``k`` entries with the largest counts, replicated on all PEs.

    Runs distributed unsorted selection (Algorithm 1, drawing from
    ``addr``) over the count multiset for the threshold, then grants
    threshold ties globally by ascending key so the output is
    deterministic and exactly ``k`` entries win.  Both tie-granting and
    the winner exchange are the fused reduce+allgather: the
    above-threshold total rides the nomination all-gather (each PE
    nominates its ``k`` smallest tie keys -- a superset of the eventual
    quota, which never exceeds ``k``, so the granted set is unchanged),
    saving one ``alpha log p`` schedule per call.  ``total`` is the
    global entry count, which the caller has already computed and
    charged (it is not charged again here); if it is at most ``k``,
    every entry wins and nothing is drawn (``addr`` may be ``None``).

    ``piggyback`` optionally is this PE's integer (the pipelines' local
    sample size) whose global sum is fused into the winner all-gather.
    Returns ``(keys, counts, piggyback_total)``, entries ordered by
    (count desc, key asc).
    """
    keys, counts = table
    if total > k:
        value, *_ = yield from select_kth_gen(
            rank, -counts, p, addr, k, total, 1.0, default_base_case(p), 64, log
        )
        thr = -int(value)  # k-th largest count
        above, tied = counts > thr, counts == thr
        log.append(("ops", max(1, int(counts.size))))
        ties = keys[tied][:k]
        gathered = yield ("allgather", (int(above.sum()), ties))
        log.append(("reduce_allgather", int(ties.size), 1))
        quota = k - sum(n_above for n_above, _ in gathered)
        all_ties = np.sort(np.concatenate([t for _, t in gathered]))
        granted = all_ties[: max(quota, 0)]
        won = above | (tied & np.isin(keys, granted))
        keys, counts = keys[won], counts[won]
    if piggyback is None:
        gathered = yield ("allgather", (keys, counts))
        log.append(("allgather", 2 * int(keys.size)))
        pb_total = None
    else:
        gathered = yield ("allgather", (keys, counts, piggyback))
        log.append(("reduce_allgather", 2 * int(keys.size), 1))
        pb_total = int(sum(g[2] for g in gathered))
    keys = np.concatenate([g[0] for g in gathered])
    counts = np.concatenate([g[1] for g in gathered])
    order = np.lexsort((keys, -counts))[:k]
    return keys[order], counts[order], pb_total


def sample_table(rank: int, chunk: np.ndarray, dtype, addr, rho: float, log: list):
    """This PE's Bernoulli(``rho``) sample, drawn from its
    counter-addressed stream and counted where the chunk lives (the
    paper's ``O(rho n/p)`` expected sampling work is charged); without
    ``addr`` every key counts.  Returns ``(table, sample size)``."""
    keys = chunk
    if addr is not None:
        log.append(("ops", max(1.0, rho * int(chunk.size))))
        keys = bernoulli_sample(addr.local(rank), chunk, rho)
    return local_table(keys.astype(dtype, copy=False), log), int(keys.size)


# ----------------------------------------------------------------------
# Worker commands (module-level so real backends can ship them)
# ----------------------------------------------------------------------

def _count_kernel(rank: int, keys: np.ndarray, counts, p: int, dtype, salt: int,
                  width: float):
    """Count ``keys`` (``counts`` of each, if they are aggregated
    already) into the distributed table; returns this PE's part."""
    log: list = []
    keys = keys.astype(dtype, copy=False)
    table = local_table(keys, log) if counts is None else (keys, counts)
    table = yield from exchange_gen(rank, p, table, salt, log, width)
    return table, log


def _pipeline_cmd(rank: int, source, p: int, sample_fn, sample_args: tuple,
                  k: int, addr, piggyback: bool, exact_gen):
    """One pipeline call, where the data lives: ``sample_fn(rank,
    source, *sample_args, log)`` builds this PE's ``(table, info)``, the
    exchange leaves every entry with its key's owner, one all-reduction
    gives every PE the table's size, and if any entry exists the top
    ``k`` are selected (drawing from ``addr`` only if more than ``k``
    exist) and, with ``exact_gen(rank, source, keys, log)``, counted
    exactly.  With ``piggyback`` the global sum of the ``info``s (the
    local sample sizes) rides the winner exchange.

    Every PE returns ``(answer, info, log)``; the replicated ``answer``
    ``(total, keys, counts, info_total, exact)`` only from PE 0.
    """
    log: list = []
    table, info = sample_fn(rank, source, *sample_args, log)
    table = yield from exchange_gen(rank, p, table, 0, log)
    total = yield ("allreduce", int(table[0].size), "sum")
    total = int(total)
    log.append(("allreduce", 1))
    keys = counts = np.empty(0, dtype=np.int64)
    pb_total = exact = None
    if total:
        keys, counts, pb_total = yield from topk_entries_gen(
            rank, p, table, k, total, addr, info if piggyback else None, log
        )
        if exact_gen is not None:
            exact = yield from exact_gen(rank, source, keys, log)
    elif piggyback:
        pb_total = yield ("allreduce", info, "sum")
        log.append(("allreduce", 1))
    answer = (total, keys, counts, pb_total, exact) if rank == 0 else None
    return answer, info, log


def _topk_cmd(rank: int, table: Table, p: int, k: int, total: int, addr, piggyback):
    """:func:`topk_entries_gen` over a table that rode the command; the
    replicated answer returns from PE 0."""
    log: list = []
    answer = yield from topk_entries_gen(rank, p, table, k, total, addr, piggyback, log)
    return answer if rank == 0 else None, log


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------

def run_pipeline(machine: Machine, source_ref, sample_fn, sample_args: tuple,
                 k: int, *, piggyback: bool = False, exact_gen=None):
    """Issue :func:`_pipeline_cmd` over the resident ``source_ref`` and
    replay its charges.  Returns ``((total, keys, counts, info_total,
    exact), infos)``, ``infos[i]`` being PE ``i``'s ``info``.

    The selection's draw address is allocated here and given back when
    the command reports at most ``k`` entries (nothing was drawn), so
    a call takes it exactly when it selects; a failed command keeps it.
    """
    p = machine.p
    addr = machine.draw_addr()
    _, vals = machine.backend.run_spmd(
        _pipeline_cmd, [source_ref],
        args=[(p, sample_fn, sample_args, k, addr, piggyback, exact_gen)] * p,
    )
    machine.replay_charges([log for _, _, log in vals])
    answer = vals[0][0]
    if answer[0] <= k:
        machine.give_back_addr(addr)
    return answer, [info for _, info, _ in vals]


def array_key_dtype(data: DistArray) -> np.dtype:
    """:func:`integer_key_dtype` of a distributed key array."""
    return integer_key_dtype([data.dtype] if data.global_size else [])


def _run_count_kernel(machine: Machine, lead, dtype, salt: int, width: float):
    """Issue :func:`_count_kernel` over keys riding along (with their
    counts, if aggregated already); the owners' tables return as dicts."""
    p = machine.p
    if len(lead) != p:
        raise ValueError(f"need one entry per PE, got {len(lead)} for p={p}")
    _, vals = machine.backend.run_spmd(
        _count_kernel, [], args=[(*lead[i], p, dtype, salt, width) for i in range(p)]
    )
    machine.replay_charges([log for _, log in vals])
    return _as_dicts([table for table, _ in vals])


def local_key_counts(machine: Machine, rank: int, keys: np.ndarray) -> dict[int, int]:
    """Aggregate one PE's keys into a ``{key: count}`` dict (charged)."""
    log: list = []
    table = local_table(np.asarray(keys), log)
    machine.charge_ops_one(rank, log[0][1])
    return _as_dicts([table])[0]


def count_into_dht(
    machine: Machine, samples_per_pe: list[np.ndarray], salt: int = 0
) -> list[dict[int, int]]:
    """Count sampled keys into the distributed hash table.

    Returns one dict per PE holding exactly the (key, total sample
    count) pairs owned by that PE, in ascending key order.  The samples
    ride along with the one command that counts them.
    """
    samples = [np.asarray(s) for s in samples_per_pe]
    dtype = integer_key_dtype([s.dtype for s in samples if s.size])
    return _run_count_kernel(machine, [(s, None) for s in samples], dtype, salt, 2.0)


def exchange_into_dht(
    machine: Machine, tables: Sequence[Table], salt: int = 0, width: float = 2.0
) -> list[dict[int, int]]:
    """:func:`count_into_dht` for keys that are aggregated already:
    ``tables[i]`` holds PE ``i``'s distinct keys (in any order) and the
    count of each.  One entry costs ``width`` words on the wire
    (:func:`exchange_gen`)."""
    lead = []
    for keys, counts in tables:
        order = np.argsort(keys)
        lead.append((np.asarray(keys)[order], np.asarray(counts, dtype=np.int64)[order]))
    dtype = integer_key_dtype([keys.dtype for keys, _ in lead if keys.size])
    return _run_count_kernel(machine, lead, dtype, salt, width)


def take_topk_entries(
    machine: Machine, dicts: list[dict[int, int]], k: int, piggyback=None
):
    """The ``k`` entries with the largest counts, replicated on all PEs
    (:func:`topk_entries_gen` over per-PE dicts held in the driver).

    If fewer than ``k`` entries exist, all are returned.  Output is a
    list of ``(key, count)`` sorted by (count desc, key asc).

    ``piggyback`` optionally supplies per-PE integers (the pipelines'
    local sample sizes) whose global sum is fused into the final winner
    all-gather; the return value is then ``(items, piggyback_total)``
    instead of bare ``items``.
    """
    check_k(k)
    total = sum(len(d) for d in dicts)
    machine._meter_allreduce(words=1)
    if total == 0:
        if piggyback is None:
            return []
        machine._meter_allreduce(words=1)
        return [], int(sum(piggyback))
    entries = [sorted(d.items()) for d in dicts]
    largest = max((e[-1][0] for e in entries if e), default=0)
    dtype = np.uint64 if largest > np.iinfo(np.int64).max else np.int64
    p = machine.p
    addr = machine.draw_addr() if total > k else None
    pb = piggyback if piggyback is not None else [None] * p
    tables = [(np.fromiter((key for key, _ in e), dtype=dtype, count=len(e)),
               np.fromiter((c for _, c in e), dtype=np.int64, count=len(e)))
              for e in entries]
    _, vals = machine.backend.run_spmd(
        _topk_cmd, [], args=[(tables[i], p, k, total, addr, pb[i]) for i in range(p)]
    )
    machine.replay_charges([log for _, log in vals])
    keys, counts, pb_total = vals[0][0]
    items = list(zip(keys.tolist(), counts.tolist()))
    return items if piggyback is None else (items, pb_total)
