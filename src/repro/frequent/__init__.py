"""Top-k most frequent objects (Section 7, incl. the 7.4 refinements)."""

from .adaptive import top_k_frequent_adaptive
from .dsbf import DsbfStats, dsbf_top_candidates, top_k_frequent_ec_dsbf
from .ec import optimal_k_star, top_k_frequent_ec
from .exact import (
    CountTable,
    count_table_top_k,
    exact_counts_oracle,
    top_k_frequent_exact,
    top_k_from_table,
)
from .monitor import StreamingTopKMonitor
from .naive import top_k_frequent_naive, top_k_frequent_naive_tree
from .pac import pac_error, top_k_frequent_pac
from .pec import estimate_k_star, top_k_frequent_pec, top_k_frequent_pec_zipf
from .result import FrequentResult
from .spacesaving import SpaceSaving, heavy_hitters

__all__ = [
    "CountTable",
    "DsbfStats",
    "FrequentResult",
    "SpaceSaving",
    "StreamingTopKMonitor",
    "count_table_top_k",
    "dsbf_top_candidates",
    "estimate_k_star",
    "exact_counts_oracle",
    "heavy_hitters",
    "optimal_k_star",
    "pac_error",
    "top_k_frequent_adaptive",
    "top_k_frequent_ec",
    "top_k_frequent_ec_dsbf",
    "top_k_frequent_exact",
    "top_k_from_table",
    "top_k_frequent_naive",
    "top_k_frequent_naive_tree",
    "top_k_frequent_pac",
    "top_k_frequent_pec",
    "top_k_frequent_pec_zipf",
]
