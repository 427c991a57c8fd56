"""Input generators for every experiment (Section 10 "Input Generation").

All generators take the target :class:`~repro.machine.Machine` and draw
from the per-PE RNG streams, so workloads are deterministic per seed and
independent across PEs, exactly like the paper's MKL-based generators.

Scaling note: the paper uses 2^24..2^28 elements *per PE*.  Python
simulation budgets dictate smaller defaults (2^14..2^18); the
communication terms of all algorithms depend on ``p``, ``k``, ``eps``
and ``delta`` rather than ``n/p``, so weak-scaling *shapes* survive the
scale-down.
"""

from __future__ import annotations

import numpy as np

from ..aggregation import DistKeyValue
from ..common.distributions import GappedSpec, ZipfDistribution
from ..machine import DistArray, Machine
from ..topk.index import LocalIndex, build_distributed_index

__all__ = [
    "selection_workload",
    "zipf_keys_workload",
    "negative_binomial_workload",
    "gapped_workload",
    "multicriteria_workload",
    "sum_workload",
    "skewed_sizes_workload",
]


def selection_workload(
    machine: Machine,
    n_per_pe: int,
    *,
    universe_hi: int = 1 << 20,
    universe_span: int = 1 << 16,
    s_range: tuple[float, float] = (1.0, 1.2),
) -> DistArray:
    """Section 10.1's unsorted-selection input.

    Per PE: integer elements from a Zipf distribution whose universe
    size is uniform in ``[universe_hi - universe_span, universe_hi]``
    and whose exponent is uniform in ``s_range`` -- non-uniform across
    PEs ("several PEs contribute to the result ... without the
    computation becoming a local operation at one PE").
    """

    def make(rank: int, rng: np.random.Generator) -> np.ndarray:
        universe = int(rng.integers(universe_hi - universe_span, universe_hi + 1))
        s = float(rng.uniform(*s_range))
        return ZipfDistribution(universe, s).sample(rng, n_per_pe)

    return DistArray.generate(machine, make)


def zipf_keys_workload(
    machine: Machine,
    n_per_pe: int,
    *,
    universe: int = 1 << 16,
    s: float = 1.0,
) -> DistArray:
    """Section 10.2's Zipfian keys (fixed universe, same law on all PEs:
    "each PE generates objects according to the same distribution")."""
    dist = ZipfDistribution(universe, s)
    return DistArray.generate(machine, lambda rank, rng: dist.sample(rng, n_per_pe))


def negative_binomial_workload(
    machine: Machine,
    n_per_pe: int,
    *,
    r: int = 1000,
    p_success: float = 0.05,
) -> DistArray:
    """Section 10.2's negative binomial keys (wide plateau around the
    mode -- near-equal frequencies, the hard case for ranking)."""
    return DistArray.generate(
        machine,
        lambda rank, rng: rng.negative_binomial(r, p_success, size=n_per_pe).astype(
            np.int64
        ),
    )


def gapped_workload(
    machine: Machine,
    n_per_pe: int,
    *,
    universe: int = 1 << 12,
    k: int = 32,
    gap: float = 4.0,
) -> DistArray:
    """Figure 5's gapped frequency distribution (PEC's home turf)."""
    spec = GappedSpec(universe, k, gap)
    return DistArray.generate(machine, lambda rank, rng: spec.sample(rng, n_per_pe))


def multicriteria_workload(
    machine: Machine,
    n_per_pe: int,
    m: int,
    *,
    skew: float = 2.0,
    adversarial: bool = False,
) -> list[LocalIndex]:
    """Objects with ``m`` per-criterion scores in [0, 1].

    ``skew`` powers the uniform draw so high scores are rare (realistic
    search-engine score lists).  With ``adversarial=True`` the globally
    best objects are concentrated on PE 0 (sorted placement), the case
    RDTA cannot handle but DTA can.
    """
    p = machine.p
    ids, scores = [], []
    for i in range(p):
        rng = machine.rngs[i]
        local_ids = np.arange(n_per_pe, dtype=np.int64) * p + i
        local_scores = rng.random((n_per_pe, m)) ** skew
        ids.append(local_ids)
        scores.append(local_scores)
    if adversarial:
        all_ids = np.concatenate(ids)
        all_scores = np.vstack(scores)
        order = np.argsort(-all_scores.sum(axis=1), kind="stable")
        parts = np.array_split(order, p)
        ids = [all_ids[part] for part in parts]
        scores = [all_scores[part] for part in parts]
    return build_distributed_index(machine, ids, scores)


def sum_workload(
    machine: Machine,
    n_per_pe: int,
    *,
    universe: int = 1 << 14,
    s: float = 1.1,
    value_scale: float = 10.0,
) -> DistKeyValue:
    """Keyed values: Zipf-popular keys, exponential value magnitudes."""
    dist = ZipfDistribution(universe, s)

    def make(rank: int, rng: np.random.Generator):
        keys = dist.sample(rng, n_per_pe)
        values = rng.exponential(value_scale, size=n_per_pe)
        return keys, values

    return DistKeyValue.generate(machine, make)


def skewed_sizes_workload(
    machine: Machine, n_total: int, kind: str = "point"
) -> DistArray:
    """Imbalanced layouts for the redistribution experiment.

    ``kind``: ``point`` (everything on PE 0), ``ramp`` (linear),
    ``random`` (Dirichlet), ``balanced`` (already even -- the adaptive
    scheme should move nothing).
    """
    p = machine.p
    if kind == "point":
        sizes = np.zeros(p, dtype=np.int64)
        sizes[0] = n_total
    elif kind == "ramp":
        w = np.arange(1, p + 1, dtype=np.float64)
        sizes = np.floor(w / w.sum() * n_total).astype(np.int64)
        sizes[-1] += n_total - sizes.sum()
    elif kind == "random":
        w = machine.shared_rng.dirichlet(np.full(p, 0.3))
        sizes = np.floor(w * n_total).astype(np.int64)
        sizes[0] += n_total - sizes.sum()
    elif kind == "balanced":
        base = n_total // p
        sizes = np.full(p, base, dtype=np.int64)
        sizes[: n_total - base * p] += 1
    else:
        raise ValueError(f"unknown skew kind {kind!r}")
    chunks = [
        machine.rngs[i].integers(0, 1 << 30, size=int(sz)).astype(np.int64)
        for i, sz in enumerate(sizes)
    ]
    return DistArray(machine, chunks)
