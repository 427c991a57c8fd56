"""Collective communication operations on the simulated machine.

Every operation takes the per-PE contributions as a list of length ``p``
(one entry per PE) and returns the per-PE results as a list of length
``p``.  This is the SPMD-by-construction style: the call site reads
exactly like the corresponding mpi4py collective, but all ``p`` ranks
are driven lock-step by one Python call.

Each collective

1. computes its result (NumPy where possible),
2. records per-PE message/word counters following the actual
   binomial-tree / hypercube schedule it models, and
3. charges the machine's simulated clocks with the analytic cost
   (``O(beta * m + alpha * log p)`` for the tree collectives).

The all-to-all and the aggregating exchange really route data through
the hypercube rounds, so their per-PE volumes are measured, not assumed.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .cost import log2_ceil

__all__ = [
    "binomial_edges",
    "binomial_subtrees",
    "bruck_hops",
    "bruck_send_blocks",
    "hypercube_rounds",
    "combine",
    "REDUCTION_OPS",
]


# ----------------------------------------------------------------------
# Reduction operators
# ----------------------------------------------------------------------

def _add(a, b):
    return a + b


def _min(a, b):
    return np.minimum(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else min(a, b)


def _max(a, b):
    return np.maximum(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else max(a, b)


REDUCTION_OPS: dict[str, Callable] = {
    "sum": _add,
    "min": _min,
    "max": _max,
}


def combine(op, a, b):
    """Apply reduction operator ``op`` (name or callable) to two values."""
    if callable(op):
        return op(a, b)
    try:
        return REDUCTION_OPS[op](a, b)
    except KeyError:
        raise ValueError(
            f"unknown reduction op {op!r}; expected one of {sorted(REDUCTION_OPS)}"
        ) from None


# ----------------------------------------------------------------------
# Communication schedules
# ----------------------------------------------------------------------

def binomial_edges(p: int, root: int = 0) -> list[tuple[int, int, int]]:
    """Edges ``(round, parent, child)`` of a binomial broadcast tree.

    In round ``r`` every PE that already holds the message forwards it to
    a partner at distance ``2^r`` (relative to the root).  A reduction
    uses the same edges in reverse order with child/parent swapped.
    """
    edges: list[tuple[int, int, int]] = []
    have = 1  # number of PEs holding the data (in root-relative space)
    r = 0
    while have < p:
        for i in range(min(have, p - have)):
            src = (root + i) % p
            dst = (root + i + have) % p
            edges.append((r, src, dst))
        have *= 2
        r += 1
    return edges


def binomial_subtrees(p: int, root: int = 0) -> dict[int, list[int]]:
    """Subtree membership of every PE in the binomial tree rooted at ``root``.

    ``subtrees[i]`` lists the ranks (including ``i`` itself) whose path
    to the root passes through ``i`` -- what a tree scatter must forward
    to ``i``'s subtree.
    """
    children: dict[int, list[int]] = {i: [] for i in range(p)}
    for _, s, d in binomial_edges(p, root):
        children[s].append(d)
    subtrees: dict[int, list[int]] = {}

    def fill(node: int) -> list[int]:
        out = [node]
        for c in children[node]:
            out += fill(c)
        subtrees[node] = out
        return out

    fill(root)
    return subtrees


def bruck_hops(p: int) -> list[int]:
    """Hop distances of the dissemination (Bruck) schedule on ``p`` PEs.

    In round ``r`` every PE sends to ``(i + hops[r]) mod p`` and receives
    from ``(i - hops[r]) mod p``; after ``ceil(log2 p)`` rounds an
    allgather is complete on *any* ``p``, power of two or not.  Total
    message count is ``p * ceil(log2 p)`` -- the O(p log p) schedule that
    replaces direct O(p^2) exchanges inside real backends.
    """
    hops: list[int] = []
    hop = 1
    while hop < p:
        hops.append(hop)
        hop *= 2
    return hops


def bruck_send_blocks(p: int, rank: int, hop: int, held: Sequence[int]) -> list[int]:
    """Blocks ``rank`` must forward to ``(rank + hop) % p`` in a Bruck
    allgather round: the held source ranks the receiver does not already
    own (the receiver holds the ``hop`` ranks ending at itself)."""
    dst = (rank + hop) % p
    receiver_has = {(dst - i) % p for i in range(min(hop, p))}
    return [b for b in held if b not in receiver_has]


def hypercube_rounds(p: int) -> list[list[tuple[int, int]]]:
    """Partner pairs per round of a hypercube exchange on ``p`` PEs.

    For ``p`` a power of two this is the standard dimension-by-dimension
    schedule (every PE has a partner in every round).  For general ``p``
    pairs whose partner index would exceed ``p - 1`` simply sit the round
    out; correctness of the callers does not rely on them.
    """
    rounds: list[list[tuple[int, int]]] = []
    r = 1
    while r < p:
        pairs = []
        for i in range(p):
            j = i ^ r
            if i < j < p:
                pairs.append((i, j))
        rounds.append(pairs)
        r *= 2
    return rounds


def tree_reduce_order(values: Sequence, op) -> object:
    """Combine ``values`` in binomial-tree order (matters only for
    non-associative floating-point rounding; keeps results deterministic
    across runs)."""
    items = list(values)
    if not items:
        raise ValueError("reduction over zero PEs")
    while len(items) > 1:
        nxt = []
        for i in range(0, len(items) - 1, 2):
            nxt.append(combine(op, items[i], items[i + 1]))
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def inclusive_scan(values: Sequence, op) -> list:
    """Inclusive prefix combine of a list of per-PE values."""
    out = []
    acc = None
    for v in values:
        acc = v if acc is None else combine(op, acc, v)
        out.append(acc)
    return out
