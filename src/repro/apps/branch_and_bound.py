"""Parallel branch-and-bound on the bulk priority queue (Section 5).

The paper motivates flexible ``deleteMin*`` with parallel
branch-and-bound [20, 31]: every iteration deletes the ``k_i = O(p)``
best tree nodes, expands them in parallel, and inserts the children.
Because our queue inserts locally, the (typically much larger) set of
generated-but-never-expanded nodes is never communicated -- "a big
advantage over previous algorithms, which move all nodes".

We instantiate this with 0/1 knapsack:

* a node fixes the include/exclude decisions for items ``0..level-1``;
* its *bound* is the value of the fractional (greedy) completion -- an
  upper bound on any completion, monotone along tree edges;
* the queue is keyed on ``-bound`` (best-first = largest bound first);
* a node whose bound does not beat the incumbent is pruned.

The exact dynamic program (:func:`knapsack_dp`) provides the oracle for
tests, and :func:`solve_knapsack_sequential` is the ``m``-node-count
reference of Section 5's ``K = m + O(hp)`` bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine import Machine
from ..pqueue import BinaryHeap, BulkParallelPQ

__all__ = [
    "KnapsackInstance",
    "BnBResult",
    "knapsack_dp",
    "solve_knapsack_sequential",
    "solve_knapsack_parallel",
    "random_knapsack",
]


@dataclass(frozen=True)
class KnapsackInstance:
    """0/1 knapsack: maximize value under a weight capacity.

    Items are stored sorted by value density (value/weight, descending),
    the order in which both the greedy bound and the branching consume
    them.
    """

    values: np.ndarray
    weights: np.ndarray
    capacity: float

    @classmethod
    def create(cls, values, weights, capacity) -> "KnapsackInstance":
        values = np.asarray(values, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if values.shape != weights.shape or values.ndim != 1:
            raise ValueError("values and weights must be equal-length vectors")
        if np.any(weights <= 0) or np.any(values < 0):
            raise ValueError("weights must be positive, values non-negative")
        order = np.argsort(-values / weights, kind="stable")
        return cls(values[order], weights[order], float(capacity))

    @property
    def n_items(self) -> int:
        return int(self.values.size)

    def greedy_bound(self, level: int, value: float, weight: float) -> float:
        """Fractional-relaxation upper bound from partial state."""
        cap = self.capacity - weight
        bound = value
        i = level
        while i < self.n_items and self.weights[i] <= cap:
            cap -= self.weights[i]
            bound += self.values[i]
            i += 1
        if i < self.n_items and cap > 0:
            bound += self.values[i] * (cap / self.weights[i])
        return bound


def random_knapsack(
    rng: np.random.Generator, n_items: int = 40, tightness: float = 0.5
) -> KnapsackInstance:
    """Weakly correlated random instance (the classic hard-ish family)."""
    weights = rng.integers(1, 100, size=n_items).astype(np.float64)
    values = weights + rng.integers(-10, 30, size=n_items)
    values = np.maximum(values, 1.0)
    capacity = float(tightness * weights.sum())
    return KnapsackInstance.create(values, weights, capacity)


def knapsack_dp(inst: KnapsackInstance) -> float:
    """Exact optimum by dynamic programming over integer weights."""
    weights = inst.weights.astype(np.int64)
    if np.any(weights != inst.weights):
        raise ValueError("DP oracle requires integer weights")
    cap = int(inst.capacity)
    best = np.zeros(cap + 1, dtype=np.float64)
    for v, w in zip(inst.values, weights):
        w = int(w)
        if w <= cap:
            best[w:] = np.maximum(best[w:], best[:-w] + v)
    return float(best[-1])


# ----------------------------------------------------------------------
# Node encoding: (level, value, weight) with key = -bound
# ----------------------------------------------------------------------

def _children(inst: KnapsackInstance, level: int, value: float, weight: float):
    """Expand one node: the include / exclude branches at ``level``."""
    out = []
    if level >= inst.n_items:
        return out
    w = weight + inst.weights[level]
    if w <= inst.capacity:
        out.append((level + 1, value + inst.values[level], w))
    out.append((level + 1, value, weight))
    return out


@dataclass(frozen=True)
class BnBResult:
    """Outcome of a branch-and-bound run."""

    optimum: float
    nodes_expanded: int
    iterations: int


def solve_knapsack_sequential(inst: KnapsackInstance) -> BnBResult:
    """Best-first sequential B&B (the ``m`` node-count reference)."""
    heap = BinaryHeap()
    root_bound = inst.greedy_bound(0, 0.0, 0.0)
    heap.push((-root_bound, (0, 0.0, 0.0)))
    incumbent = 0.0
    expanded = 0
    while heap:
        neg_bound, (level, value, weight) = heap.pop()
        if -neg_bound <= incumbent + 1e-12:
            break  # best-first: all remaining bounds are no better
        expanded += 1
        for child in _children(inst, level, value, weight):
            c_level, c_value, c_weight = child
            incumbent = max(incumbent, c_value)
            bound = inst.greedy_bound(c_level, c_value, c_weight)
            if bound > incumbent + 1e-12:
                heap.push((-bound, child))
    return BnBResult(incumbent, expanded, expanded)


def solve_knapsack_parallel(
    machine: Machine,
    inst: KnapsackInstance,
    *,
    batch_per_pe: int = 2,
    max_iterations: int = 100_000,
) -> BnBResult:
    """Parallel best-first B&B on the bulk priority queue.

    Every iteration deletes a flexible batch of the globally best
    ``k̂ in [p, 2 * batch_per_pe * p]`` nodes (``deleteMin*``), expands
    them where they live, inserts children locally, and refreshes the
    incumbent with one max-reduction.
    """
    p = machine.p
    pq = BulkParallelPQ(machine)
    # encode nodes in per-PE side tables keyed by uid so queue elements
    # stay one machine word of priority plus the uid
    tables: list[dict] = [dict() for _ in range(p)]

    def push_batch(rank: int, nodes: list, bounds: list) -> None:
        """Flush one PE's surviving children as a single bulk insert
        (one ``insert_local`` call per PE per iteration instead of one
        per element; identical uids, charges and queue state)."""
        if not nodes:
            return
        uids = pq.insert_local(rank, [-b for b in bounds])
        for uid, node in zip(uids, nodes):
            tables[rank][uid[1]] = node

    incumbent = 0.0
    expanded = 0
    iterations = 0

    # ------------------------------------------------------------------
    # Seeding: the root lives on PE 0; a brief sequential ramp-up grows
    # the frontier to >= 4p nodes, which are then scattered round-robin
    # (one charged scatter -- the only time B&B nodes ever move).
    # ------------------------------------------------------------------
    frontier = BinaryHeap()
    root_bound = inst.greedy_bound(0, 0.0, 0.0)
    frontier.push((-root_bound, (0, 0.0, 0.0)))
    at_root = np.zeros(p)
    at_root[0] = inst.n_items  # one expansion's work, on PE 0
    while frontier and len(frontier) < 4 * p:
        neg_bound, (level, value, weight) = frontier.pop()
        if -neg_bound <= incumbent + 1e-12:
            break
        expanded += 1
        machine.charge_ops(at_root)
        exhausted = True
        for child in _children(inst, level, value, weight):
            c_level, c_value, c_weight = child
            incumbent = max(incumbent, c_value)
            bound = inst.greedy_bound(c_level, c_value, c_weight)
            if bound > incumbent + 1e-12:
                frontier.push((-bound, child))
                exhausted = False
        if exhausted and not frontier:
            break
    seed_nodes = []
    while frontier:
        seed_nodes.append(frontier.pop())
    pieces: list[list] = [[] for _ in range(p)]
    for idx, item in enumerate(seed_nodes):
        pieces[idx % p].append(item)
    scatter = [("scatter", None, 0)] * p
    scatter[0] = ("scatter", pieces, 0)
    machine.collective("scatter", scatter)
    for rank, piece in enumerate(pieces):
        push_batch(rank, [node for _, node in piece],
                   [-neg_bound for neg_bound, _ in piece])
    incumbent = float(machine.allreduce([incumbent] * p, op="max")[0])

    while iterations < max_iterations:
        total = pq.total_size()
        if total == 0:
            break
        best_neg = pq.peek_min()
        if -best_neg <= incumbent + 1e-12:
            break  # nothing in the queue can improve the incumbent
        k_hi = min(total, max(p, 2 * batch_per_pe * p))
        k_lo = max(1, k_hi // 2)
        res = pq.delete_min_flexible(k_lo, k_hi)
        local_best = [0.0] * p
        # expansion work per PE; PEs' clocks are independent, so one
        # charge after the loop equals one per PE in it
        work = np.zeros(p)
        for rank, batch in enumerate(res.batches):
            ops = 0.0
            # batch this iteration's surviving children and flush them
            # through one insert_local call per PE (the per-element
            # bound filtering below is unchanged)
            new_nodes: list = []
            new_bounds: list = []
            for neg_bound, uid in batch:
                node = tables[rank].pop(uid[1])
                if -neg_bound <= incumbent + 1e-12:
                    continue  # pruned after extraction
                expanded += 1
                level, value, weight = node
                for child in _children(inst, level, value, weight):
                    c_level, c_value, c_weight = child
                    local_best[rank] = max(local_best[rank], c_value)
                    bound = inst.greedy_bound(c_level, c_value, c_weight)
                    if bound > incumbent + 1e-12:
                        new_nodes.append(child)
                        new_bounds.append(bound)
                ops += inst.n_items
            push_batch(rank, new_nodes, new_bounds)
            work[rank] = ops
        machine.charge_ops(work)
        incumbent = max(
            incumbent, float(machine.allreduce(local_best, op="max")[0])
        )
        iterations += 1

    return BnBResult(incumbent, expanded, iterations)
