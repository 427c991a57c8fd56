"""Exact distributed top-k most frequent objects (ground truth).

Counts *all* keys through the distributed hash table (no sampling) and
selects the top-k -- communication ``Theta(distinct keys)``, which is
what the sampling algorithms of Section 7 avoid.  Used as the oracle in
tests/benchmarks and as the "count everything" degenerate case that PAC
collapses to when ``eps`` is very small (Figure 8's discussion).
"""

from __future__ import annotations

import numpy as np

from ..common.validation import check_k
from ..machine import DistArray, Machine
from .dht import array_key_dtype, pipeline_gen, run_pipeline, sample_table
from .result import FrequentResult

__all__ = ["top_k_frequent_exact", "exact_counts_oracle"]


def top_k_frequent_exact(machine: Machine, data: DistArray, k: int) -> FrequentResult:
    """Exact top-k by full counting (rho = 1).

    One worker command, as in PAC without the sampling: every key is
    counted where the chunks live, only (key, count) tables enter the
    merging hypercube exchange, only the winners return.
    """
    check_k(k)
    (total, keys, counts, _, _), _ = run_pipeline(
        machine, data._ensure_ref(), pipeline_gen,
        (sample_table, (array_key_dtype(data), None, 1.0), k),
    )
    return FrequentResult(
        items=tuple((key, float(c)) for key, c in zip(keys.tolist(), counts.tolist())),
        exact_counts=True,
        rho=1.0,
        sample_size=data.global_size,
        k_star=k,
        info={"distinct_keys": total},
    )


def exact_counts_oracle(data: DistArray) -> dict[int, int]:
    """Driver-side exact key counts (no communication; test oracle)."""
    alldata = data.concat()
    if alldata.size == 0:
        return {}
    uniq, counts = np.unique(alldata, return_counts=True)
    return {int(key): int(c) for key, c in zip(uniq, counts)}
