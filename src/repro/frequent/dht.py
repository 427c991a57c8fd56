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
collectives (each charges itself), logs its local work in ``log`` and
composes by ``yield from``.
Every frequent-objects family strings the pieces into ONE worker
command, sent by :meth:`Machine.run_command
<repro.machine.Machine.run_command>`: sample, exchange, the
all-reduction that gives every PE the table's size, then its own middle
step -- one selection and an optional exact pass (:func:`pipeline_gen`:
PAC, EC, exact, the sum pipelines and the streaming monitor), PEC's
gap estimate, adaptive's stop-or-escalate test or dSBF's fingerprint
resolution, whose entries are 1.5 words wide instead of 2 (``width``;
Section 7.4).  Every rank takes those decisions from the same
replicated values, and the table never leaves the kernel.  The
centralized baselines skip the exchange: their tables meet at PE 0,
gathered directly (:func:`gather_direct_gen`) or merged up a binomial
tree (:func:`tree_merge_gen`).  This is the package's one hash-table
exchange.  A selection draws only when more than ``k`` entries exist,
which the driver learns only from the command's answer: the command
carries a draw cursor instead of addresses, takes the next address
whenever a selection draws and reports how many it took.  The
multicriteria top-k algorithms (:mod:`repro.topk`) send their commands
the same way, each PE's index riding along as its source.

A table need not die with its command.  With ``keep`` the kernel's
table stays resident as the command's output ref (the kernel is wrapped
in :class:`~repro.machine.backends.PureStep`: a kept table is never
changed), and a later call takes that ref as its source: ``repro
serve`` counts a dataset once
and answers every later query with :func:`topk_entries_gen` alone, and
the streaming monitor ships only the arrivals since its last refresh
and merges them into the tables it kept.
"""

from __future__ import annotations

from math import ceil
from typing import Sequence

import numpy as np

from ..common.hashing import key_owner
from ..common.sampling import bernoulli_sample
from ..machine import DistArray, charged
from ..machine.cost import log2_ceil
from ..machine.metrics import payload_words
from ..selection.unsorted import select_kth_gen

__all__ = [
    "array_key_dtype",
    "broadcast_top_k_gen",
    "gather_direct_gen",
    "integer_key_dtype",
    "pipeline_gen",
    "sample_keys",
    "sample_table",
    "tree_merge_gen",
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
        received = yield charged(
            ("alltoall", row), ("alltoall", tuple(ceil(width * part[0].size) for part in row)))
        log.append(("ops", sum(int(part[0].size) for part in received)))
        return merge_tables(received)
    for r in range(log2_ceil(p)):
        bit = 1 << r
        keys, counts = table
        leaving = ((key_owner(keys, p, salt) ^ rank) & bit) != 0
        row: list = [None] * p
        row[rank ^ bit] = (keys[leaving], counts[leaving])
        received = yield charged(("sendrecv", row, (rank ^ bit,)),
                                 ("dht_round", bit, int(leaving.sum()), width))
        table = merge_tables(
            [(keys[~leaving], counts[~leaving]), received[rank ^ bit]]
        )
    return table


def gather_direct_gen(rank: int, p: int, value, log: list):
    """Every PE's ``value`` straight to PE 0 in one hop, the
    master-worker pattern: PE 0 takes ``p - 1`` messages, one from each
    PE, an empty table included.  Returns the values in rank order at
    PE 0, ``None`` elsewhere."""
    row = [None] * p
    row[0] = value
    received = yield charged(("sendrecv", row, tuple(range(1, p)) if rank == 0 else ()),
                             ("gather_direct", payload_words(value), 0))
    return received if rank == 0 else None


def tree_merge_gen(rank: int, p: int, value, merge, label: str, log: list):
    """``value`` merged into PE 0 up the binomial tree of
    ``binomial_edges(p, 0)``, last round first: in round ``r`` PE
    ``i + 2^r`` sends what it has merged so far to PE ``i``, which
    merges it as ``merge(own, child's)`` -- the order a merge that
    shrinks (space-saving's) depends on.  ``label`` names the traffic.
    Returns the merge of every PE's value at PE 0, ``None`` elsewhere."""
    for r in reversed(range(log2_ceil(p))):
        bit = 1 << r
        row, src, words = [None] * p, (), 0
        if bit <= rank < 2 * bit:
            row[rank - bit], words = value, payload_words(value)
        elif rank + bit < p and rank < bit:
            src = (rank + bit,)
        received = yield charged(("sendrecv", row, src), ("tree_hop", r, words, label))
        if src:
            value = merge(value, received[src[0]])
    return value if rank == 0 else None


def broadcast_top_k_gen(rank: int, table, k: int, ops, log: list):
    """The ``k`` entries of PE 0's ``table`` with the largest values,
    ties by ascending key, picked after ``ops`` operations of PE 0's
    work and broadcast to every PE (a centralized coordinator)."""
    top = None
    if rank == 0:
        keys, values = table
        order = np.lexsort((keys, -values))[:k]
        top = (keys[order], values[order])
    log.append(("ops", ops))
    keys, values = yield ("broadcast", top, 0)
    return keys, values


def topk_entries_gen(rank: int, p: int, table: Table, k: int, total: int,
                     take, piggyback, log: list):
    """The ``k`` entries with the largest counts, replicated on all PEs.

    Runs distributed unsorted selection (Algorithm 1) over the count
    multiset for the threshold, then grants
    threshold ties globally by ascending key so the output is
    deterministic and exactly ``k`` entries win.  Both tie-granting and
    the winner exchange are the fused reduce+allgather: the
    above-threshold total rides the nomination all-gather (each PE
    nominates its ``k`` smallest tie keys -- a superset of the eventual
    quota, which never exceeds ``k``, so the granted set is unchanged),
    saving one ``alpha log p`` schedule per call.  ``total`` is the
    global entry count, which the caller has already computed and
    charged (:func:`count_gen`; it is not charged again here).  The
    selection draws from the command's next draw address, ``take()``;
    if ``total`` is at most ``k``, every entry wins and nothing is
    drawn.

    ``piggyback`` optionally is this PE's integer (the pipelines' local
    sample size) whose global sum is fused into the winner all-gather
    (an empty table selects nothing, and the sum takes an all-reduction
    of its own).  Returns ``(keys, counts, piggyback_total)``, entries
    ordered by (count desc, key asc).
    """
    if not total:
        pb_total = None
        if piggyback is not None:
            pb_total = int((yield ("allreduce", piggyback, "sum")))
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, pb_total
    keys, counts = table
    if total > k:
        value, *_ = yield from select_kth_gen(rank, p, -counts, take, log, k, total)
        thr = -int(value)  # k-th largest count
        above, tied = counts > thr, counts == thr
        log.append(("ops", max(1, int(counts.size))))
        n_above, nominated = yield (
            "reduce_allgather", int(above.sum()), "sum", keys[tied][:k])
        quota = k - int(n_above)
        all_ties = np.sort(np.concatenate(nominated))
        granted = all_ties[: max(quota, 0)]
        won = above | (tied & np.isin(keys, granted))
        keys, counts = keys[won], counts[won]
    if piggyback is None:
        gathered = yield ("allgather", (keys, counts))
        pb_total = None
    else:
        pb_total, gathered = yield ("reduce_allgather", piggyback, "sum", (keys, counts))
        pb_total = int(pb_total)
    keys = np.concatenate([g[0] for g in gathered])
    counts = np.concatenate([g[1] for g in gathered])
    order = np.lexsort((keys, -counts))[:k]
    return keys[order], counts[order], pb_total


def count_gen(rank: int, p: int, table: Table, log: list, salt: int = 0,
              width: float = 2.0):
    """Step 2 and the one all-reduction that gives every PE the table's
    size: returns ``(owned entries, global entry count)``."""
    table = yield from exchange_gen(rank, p, table, salt, log, width)
    total = yield ("allreduce", int(table[0].size), "sum")
    return table, int(total)


def sample_keys(rank: int, chunk: np.ndarray, addr, rho: float, log: list):
    """This PE's Bernoulli(``rho``) sample, drawn from its
    counter-addressed stream where the chunk lives (the paper's
    ``O(rho n/p)`` expected sampling work is charged); without ``addr``
    every key."""
    if addr is None:
        return chunk
    log.append(("ops", max(1.0, rho * int(chunk.size))))
    return bernoulli_sample(addr.local(rank), chunk, rho)


def sample_table(rank: int, chunk: np.ndarray, dtype, addr, rho: float, log: list):
    """:func:`sample_keys` counted into this PE's table.  Returns
    ``(table, sample size)``."""
    keys = sample_keys(rank, chunk, addr, rho, log)
    return local_table(keys.astype(dtype, copy=False), log), int(keys.size)


def pipeline_gen(rank: int, p: int, source, take, log: list, sample_fn,
                 sample_args: tuple, k: int, piggyback: bool = False,
                 exact_gen=None):
    """The common pipeline: ``sample_fn(rank, source, *sample_args,
    log)`` builds this PE's ``(table, info)``, the exchange leaves every
    entry with its key's owner, and if any entry exists the top ``k``
    are selected and, with ``exact_gen(rank, source, keys, log)``,
    counted exactly.  With ``piggyback`` the global sum of the
    ``info``s (the local sample sizes) rides the winner exchange.

    Returns ``((total, keys, counts, info_total, exact), info, owned)``,
    ``owned`` being this PE's ``(keys, counts, total)`` after the
    exchange: the table a ``keep`` command keeps
    (:meth:`~repro.machine.Machine.run_command`).
    """
    table, info = sample_fn(rank, source, *sample_args, log)
    table, total = yield from count_gen(rank, p, table, log)
    keys, counts, pb_total = yield from topk_entries_gen(
        rank, p, table, k, total, take, info if piggyback else None, log
    )
    exact = None
    if total and exact_gen is not None:
        exact = yield from exact_gen(rank, source, keys, log)
    return (total, keys, counts, pb_total, exact), info, (*table, total)


def array_key_dtype(data: DistArray) -> np.dtype:
    """:func:`integer_key_dtype` of a distributed key array."""
    return integer_key_dtype([data.dtype] if data.global_size else [])

