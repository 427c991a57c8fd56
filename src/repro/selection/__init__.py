"""Distributed selection algorithms (Section 4 + Appendix A).

* :func:`select_kth` / :func:`select_topk_smallest` /
  :func:`select_topk_largest` -- unsorted input (Algorithm 1, Thm 1),
* :func:`ms_select` / :func:`ms_select_with_cuts` -- locally sorted
  input (Algorithm 9, Thm 16),
* :func:`ams_select` / :func:`ams_select_batched` -- flexible output
  size (Algorithm 2, Thms 3-4),

  each of these four runs its SPMD generator (``*_gen``, which the bulk
  priority queue also runs inside its own commands) as one worker
  command over a list of sorted sequences or a resident
  :class:`~repro.machine.DistArray` of sorted chunks,
* :func:`kth_smallest` et al. -- sequential substrates.
"""

from .accessors import ArraySeq, SortedSequence, as_sorted_seq
from .flexible import AmsResult, ams_select, ams_select_batched
from .multi_select import multi_select, multi_select_windows, quantiles
from .sequential import floyd_rivest_select, fr_pivots, kth_smallest, quickselect
from .sorted_select import MsSelectStats, ms_select, ms_select_with_cuts
from .unsorted import (
    SelectionStats,
    select_kth,
    select_topk_largest,
    select_topk_smallest,
)

__all__ = [
    "AmsResult",
    "ArraySeq",
    "MsSelectStats",
    "SelectionStats",
    "SortedSequence",
    "ams_select",
    "ams_select_batched",
    "as_sorted_seq",
    "floyd_rivest_select",
    "fr_pivots",
    "kth_smallest",
    "ms_select",
    "ms_select_with_cuts",
    "multi_select",
    "multi_select_windows",
    "quantiles",
    "quickselect",
    "select_kth",
    "select_topk_largest",
    "select_topk_smallest",
]
