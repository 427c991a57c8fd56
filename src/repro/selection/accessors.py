"""Sorted-sequence adapters for the multisequence selection algorithms.

``msSelect`` (Appendix A) and ``amsSelect`` (Section 4.3) only need
three local primitives from each PE's sorted data:

* ``len(seq)``        -- number of elements,
* ``seq.item(i)``     -- the i-th smallest element (0-based),
* ``seq.count_le(v)`` -- number of elements ``<= v``.

Plain sorted NumPy arrays provide them in O(1)/O(log n) via
:class:`ArraySeq`; the bulk-parallel priority queue's search tree
(:class:`repro.trees.Treap`) offers all three itself and is passed to
the algorithms as is, which is exactly the observation that makes
``deleteMin*`` "very similar to the multi-sequence selection
algorithms" (Section 5).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["SortedSequence", "ArraySeq", "as_sorted_seq"]


@runtime_checkable
class SortedSequence(Protocol):
    """Local primitives required from each PE's sorted data."""

    def __len__(self) -> int: ...

    def item(self, i: int): ...

    def count_le(self, v) -> int: ...


class ArraySeq:
    """A sorted (ascending) NumPy array as a :class:`SortedSequence`."""

    __slots__ = ("arr",)

    def __init__(self, arr: np.ndarray, *, check: bool = False):
        arr = np.asarray(arr)
        if arr.ndim != 1:
            raise ValueError(f"expected a one-dimensional array, got shape {arr.shape}")
        if check and arr.size > 1 and np.any(arr[1:] < arr[:-1]):
            raise ValueError("ArraySeq requires ascending input")
        self.arr = arr

    def __len__(self) -> int:
        return int(self.arr.size)

    def item(self, i: int):
        return self.arr[i]

    def count_le(self, v) -> int:
        return int(np.searchsorted(self.arr, v, side="right"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArraySeq(n={len(self)})"


def as_sorted_seq(obj) -> SortedSequence:
    """Coerce raw arrays to :class:`ArraySeq`; pass adapters through."""
    if isinstance(obj, np.ndarray):
        return ArraySeq(obj)
    if isinstance(obj, (list, tuple)):
        return ArraySeq(np.asarray(obj))
    if isinstance(obj, SortedSequence):
        return obj
    raise TypeError(f"cannot interpret {type(obj)!r} as a sorted sequence")
