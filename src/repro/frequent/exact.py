"""Exact distributed top-k most frequent objects (ground truth).

Counts *all* keys through the distributed hash table (no sampling) and
selects the top-k -- communication ``Theta(distinct keys)``, which is
what the sampling algorithms of Section 7 avoid.  Used as the oracle in
tests/benchmarks and as the "count everything" degenerate case that PAC
collapses to when ``eps`` is very small (Figure 8's discussion).

A dataset that is queried again and again (``repro serve``) pays that
exchange once: :func:`count_table_top_k` leaves the owner tables it
counted resident as a :class:`CountTable`, and
:func:`top_k_from_table` answers every later query from them with the
selection alone -- no local count, no exchange, no size reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.validation import check_k
from ..machine import ChunkRef, DistArray, Machine
from ..machine.backends import PureStep
from .dht import array_key_dtype, pipeline_gen, sample_table, topk_entries_gen
from .result import FrequentResult

__all__ = [
    "CountTable",
    "count_table_top_k",
    "exact_counts_oracle",
    "top_k_frequent_exact",
    "top_k_from_table",
]


@dataclass(frozen=True)
class CountTable:
    """A dataset's exact key counts, resident where they were counted.

    ``ref`` holds one ``(keys, counts, total)`` per PE: the entries of
    the keys the PE owns (``h(key) mod p``, keys ascending) and the
    replicated global entry count.  ``items`` is the number of keys
    counted.
    """

    ref: ChunkRef
    items: int


def _table_gen(rank: int, p: int, table: tuple, take, log: list, k: int):
    """The top ``k`` of a resident owner table: the selection alone."""
    keys, counts, total = table
    keys, counts, _ = yield from topk_entries_gen(
        rank, p, (keys, counts), k, total, take, None, log)
    return (total, keys, counts), None


def _counting(data: DistArray, k: int) -> tuple:
    """:func:`pipeline_gen`'s args for counting every key (rho = 1)."""
    return sample_table, (array_key_dtype(data), None, 1.0), k


def _result(answer: tuple, items: int, k: int) -> FrequentResult:
    total, keys, counts, *_ = answer
    return FrequentResult(
        items=tuple((key, float(c)) for key, c in zip(keys.tolist(), counts.tolist())),
        exact_counts=True,
        rho=1.0,
        sample_size=items,
        k_star=k,
        info={"distinct_keys": total},
    )


def top_k_frequent_exact(machine: Machine, data: DistArray, k: int) -> FrequentResult:
    """Exact top-k by full counting (rho = 1).

    One worker command, as in PAC without the sampling: every key is
    counted where the chunks live, only (key, count) tables enter the
    merging hypercube exchange, only the winners return.
    """
    check_k(k)
    answer, _ = machine.run_command(pipeline_gen, data._ensure_ref(), _counting(data, k))
    return _result(answer, data.global_size, k)


def count_table_top_k(machine: Machine, data: DistArray,
                      k: int) -> tuple[FrequentResult, CountTable]:
    """:func:`top_k_frequent_exact` that also keeps the owner tables
    resident.  One worker command, charged as the plain call."""
    check_k(k)
    answer, _, ref = machine.run_command(
        PureStep(pipeline_gen), data._ensure_ref(), _counting(data, k), keep=True)
    return _result(answer, data.global_size, k), CountTable(ref, data.global_size)


def top_k_from_table(machine: Machine, table: CountTable, k: int) -> FrequentResult:
    """The exact top-k of a counted dataset: one worker command that
    runs only the selection over the count multiset and the tie grant
    (one draw address, given back when ``k`` covers every entry)."""
    check_k(k)
    answer, _ = machine.run_command(_table_gen, table.ref, (k,))
    return _result(answer, table.items, k)


def exact_counts_oracle(data: DistArray) -> dict[int, int]:
    """Driver-side exact key counts (no communication; test oracle)."""
    alldata = data.concat()
    if alldata.size == 0:
        return {}
    uniq, counts = np.unique(alldata, return_counts=True)
    return {int(key): int(c) for key, c in zip(uniq, counts)}
