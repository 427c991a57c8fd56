"""Bulk-parallel priority queues (Section 5) and baselines."""

from .bulk_pq import BulkParallelPQ, DeleteMinResult
from .heap import BinaryHeap
from .karp_zhang import RandomAllocPQ

__all__ = [
    "BinaryHeap",
    "BulkParallelPQ",
    "DeleteMinResult",
    "RandomAllocPQ",
]
