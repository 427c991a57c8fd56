"""Native-speed worker kernels behind a dispatch registry.

Importing this package registers every kernel (python reference +
native twin) and exposes the mode controls.  See
:mod:`repro.kernels.registry` for the dispatch contract and
:mod:`repro.kernels.philox` for how native RNG-consuming twins stay
bit-identical to numpy's Philox stream.
"""

from .registry import (
    MODES,
    Kernel,
    effective_mode,
    get_mode,
    jit,
    kernel,
    numba_available,
    registered,
    set_mode,
    use_mode,
)
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
from .philox import native_uniforms
from .sampling import skip_sample_indices, weighted_counts
from .treap import ArrayTreap, treap_merge

__all__ = [
    "MODES",
    "ArrayTreap",
    "Kernel",
    "compact",
    "effective_mode",
    "fingerprint32",
    "get_mode",
    "jit",
    "kernel",
    "native_uniforms",
    "numba_available",
    "partition3",
    "partition_count",
    "partition_take",
    "registered",
    "set_mode",
    "skip_sample_indices",
    "spacesaving_offer",
    "splitmix64_array",
    "topk_count",
    "topk_cut",
    "treap_merge",
    "use_mode",
    "weighted_counts",
]
