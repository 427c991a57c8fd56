"""The hot in-worker loops, one numpy body each.

Every kernel here is a plain function: the selection partition and
top-k cut (:mod:`.partition`), splitmix64 hashing (:mod:`.hashing`),
Space-Saving offers (:mod:`.counters`), weighted rounding, skip
sampling and inverse-CDF draws (:mod:`.sampling`) and the bulk queue's
sorted-array tree with its merge (:mod:`.treap`).  The paper's model
charges local work as operations, so a kernel's body can change wall
time and nothing else; results and modeled cost are the same on every
backend because every backend runs the same body.  RNG-consuming
kernels draw from the generator the caller passes in (built from the
command's ``DrawAddress``) and never construct one.
"""

import functools

from .counters import spacesaving_offer
from .hashing import fingerprint32, splitmix64_array
from .partition import (
    compact,
    partition3,
    partition_count,
    partition_take,
    topk_count,
    topk_cut,
)
from .sampling import (
    guide_size,
    guide_table,
    inverse_cdf_sample,
    skip_sample_indices,
    weighted_counts,
)
from .treap import ArrayTreap, treap_merge

__all__ = [
    "ArrayTreap",
    "compact",
    "effective_mode",
    "fingerprint32",
    "guide_size",
    "guide_table",
    "inverse_cdf_sample",
    "numba_available",
    "partition3",
    "partition_count",
    "partition_take",
    "skip_sample_indices",
    "spacesaving_offer",
    "splitmix64_array",
    "topk_count",
    "topk_cut",
    "treap_merge",
    "weighted_counts",
]


@functools.lru_cache(maxsize=1)
def numba_available() -> bool:
    """Whether numba imports on this host (provenance for benchmark
    records; nothing in the package compiles)."""
    try:
        import numba  # noqa: F401
    except Exception:
        return False
    return True


def effective_mode() -> str:
    """The kernels every backend runs: always ``"python"`` (numpy)."""
    return "python"
