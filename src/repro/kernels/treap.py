"""The per-PE search tree of the bulk priority queue: a sorted
structure-of-arrays multiset.

Every output the bulk priority queue observes from its per-PE tree --
iteration order, ``select``, ``rank``/``count_le``, ``min``, length, the
``log2``-formula access cost, ``split_at_rank`` contents -- is
*structure-independent*: it depends only on the key multiset, never on
a tree's rotation shape.  So there is no pointer structure at all: the
keys ``(score, (ra, rb))`` live in three lex-sorted parallel arrays.
Bulk insertion is one stable sort of the batch plus one sorted merge
(:data:`treap_merge`), ``split_at_rank`` is a slice, rank queries are
``np.searchsorted`` on the score column with the ``(ra, rb)`` tie-break
resolved inside the run of equal scores, and batch extraction is three
``tolist()`` calls.

This is the only tree in ``src/``.  Having no shape, it draws no
rotation priorities.  A pointer treap with the same operation set is the
test suite's differential oracle (``tests/support/pointer_treap.py``).

Modeled vs wall cost: :meth:`ArrayTreap.access_cost` charges the paper's
``O(log min(k, n))`` search-tree bound per touched key (Section 5), so
modeled time is that of the paper's data structure; the wall cost of a
flush of ``m`` keys into ``n`` is an ``O(n + m)`` memmove plus ``m``
binary searches.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from ..common.ordering import BOTTOM, TOP

__all__ = ["ArrayTreap", "treap_merge"]


def treap_merge(s_a, a_a, b_a, s_b, a_b, b_b):
    """Merge two lex-sorted ``(score, ra, rb)`` key sequences into one
    (stable: on equal keys the first sequence's entries come first).

    ``O(n + m log n)``: every entry of the second sequence is placed by
    binary search on the score column and the first sequence fills the
    gaps.  Only when a score occurs in *both* sequences does the
    ``(ra, rb)`` tie-break decide a position, and then one lexsort of
    the concatenation settles it.
    """
    n, m = s_a.size, s_b.size
    at = np.searchsorted(s_a, s_b, side="right")
    # a shared score sits just left of its right-side insertion point
    # (at == 0 wraps to the last entry, which a smaller score never equals)
    if n and (s_a[at - 1] == s_b).any():
        s = np.concatenate([s_a, s_b])
        a = np.concatenate([a_a, a_b])
        b = np.concatenate([b_a, b_b])
        order = np.lexsort((b, a, s))
        return s[order], a[order], b[order]
    at += np.arange(m)  # output slot of each second-sequence entry
    from_a = np.ones(n + m, dtype=bool)
    from_a[at] = False

    def interleave(x, y):
        out = np.empty(n + m, dtype=np.result_type(x, y))
        out[from_a] = x
        out[at] = y
        return out

    return interleave(s_a, s_b), interleave(a_a, a_b), interleave(b_a, b_b)


_EMPTY_F8 = np.empty(0, dtype=np.float64)
_EMPTY_I8 = np.empty(0, dtype=np.int64)


class ArrayTreap:
    """Ordered multiset of ``(score, (ra, rb))`` keys with order
    statistics and prefix split -- the operation set Section 2 asks of
    a search tree, on sorted arrays.

    ``score`` is a float (``+-inf`` allowed, NaN not: it has no place in
    a sorted column) and ``ra``/``rb`` are integers (the queue's
    ``(score, uid)`` convention); key uniqueness makes every ordering
    question unambiguous.  The tree is its own
    :class:`~repro.selection.accessors.SortedSequence` (``len``,
    :meth:`item`, :meth:`count_le`), which is what lets the
    multisequence selection algorithms run directly on it.

    Also exported as :class:`repro.trees.Treap`: one class under the two
    names the frozen ledger probes (``benchmarks/ledger/layers.py``)
    import and construct as ``cls(rng)``.  ``rng`` is accepted for that
    call shape and ignored -- there are no rotation priorities to draw.
    """

    def __init__(self, rng: np.random.Generator | None = None):
        self._s = _EMPTY_F8
        self._ra = _EMPTY_I8
        self._rb = _EMPTY_I8

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self._s.size)

    def __bool__(self) -> bool:
        return self._s.size > 0

    def __iter__(self) -> Iterator:
        return iter(self.to_list())

    def to_list(self) -> list:
        """All keys in ascending order."""
        uids = zip(self._ra.tolist(), self._rb.tolist())
        return list(zip(self._s.tolist(), uids))

    def _key(self, i: int):
        return (float(self._s[i]), (int(self._ra[i]), int(self._rb[i])))

    def min(self):
        """Smallest key; raises on empty tree."""
        if self._s.size == 0:
            raise IndexError("operation on empty Treap")
        return self._key(0)

    def max(self):
        """Largest key; raises on empty tree."""
        if self._s.size == 0:
            raise IndexError("operation on empty Treap")
        return self._key(self._s.size - 1)

    def __contains__(self, key) -> bool:
        return self.rank(key) < self.count_le(key)

    # ------------------------------------------------------------------
    # Order statistics
    # ------------------------------------------------------------------
    def select(self, i: int):
        """The ``i``-th smallest key, 0-based (the paper's ``T[i]``)."""
        n = self._s.size
        if not 0 <= i < n:
            raise IndexError(f"select index {i} out of range for size {n}")
        return self._key(i)

    item = select  # the SortedSequence spelling

    def rank(self, key) -> int:
        """Number of keys strictly smaller than ``key``."""
        return self._bisect(key, "left")

    def count_le(self, key) -> int:
        """Number of keys ``<= key`` (the paper's ``T.rank(x)``)."""
        return self._bisect(key, "right")

    def _bisect(self, key, side: str) -> int:
        """Insertion point of ``key``, left or right of its equals.  The
        ``ordering`` sentinels sort outside every key, as they compare."""
        if key is TOP:
            return int(self._s.size)
        if key is BOTTOM:
            return 0
        s, (ra, rb) = key
        lo = int(np.searchsorted(self._s, s, side="left"))
        hi = int(np.searchsorted(self._s, s, side="right"))
        if lo == hi:
            return lo
        # inside the run of equal scores keys ascend by (ra, rb)
        run = self._ra[lo:hi]
        a_lo = lo + int(np.searchsorted(run, ra, side="left"))
        a_hi = lo + int(np.searchsorted(run, ra, side="right"))
        return a_lo + int(np.searchsorted(self._rb[a_lo:a_hi], rb, side=side))

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, key) -> None:
        """Insert one ``(score, (ra, rb))`` key."""
        self.insert_many([key])

    def insert_many(self, keys) -> None:
        keys = list(keys)
        if not keys:
            return
        s = np.array([k[0] for k in keys], dtype=np.float64)
        ra = np.array([k[1][0] for k in keys], dtype=np.int64)
        rb = np.array([k[1][1] for k in keys], dtype=np.int64)
        order = np.lexsort((rb, ra, s))
        self._merge_in(s[order], ra[order], rb[order])

    def insert_batch(self, scores, rank: int, first_uid: int) -> None:
        """Bulk-insert contiguously-numbered ``(score, (rank, uid))``
        keys -- the flush path."""
        s = np.asarray(scores, dtype=np.float64)
        n = s.size
        if n == 0:
            return
        # uids ascend with position, so a stable score sort is lex order
        order = np.argsort(s, kind="stable")
        self._merge_in(
            s[order], np.full(n, int(rank), dtype=np.int64), order + int(first_uid)
        )

    def _merge_in(self, s, ra, rb) -> None:
        if self._s.size == 0:
            self._s, self._ra, self._rb = s, ra, rb
            return
        self._s, self._ra, self._rb = treap_merge(
            self._s, self._ra, self._rb, s, ra, rb
        )

    # ------------------------------------------------------------------
    # Bulk operations
    # ------------------------------------------------------------------
    def split_at_rank(self, i: int) -> "ArrayTreap":
        """Destructively remove and return the ``i`` smallest keys."""
        if i < 0:
            raise ValueError(f"split size must be >= 0, got {i}")
        i = min(i, self._s.size)
        out = ArrayTreap()
        # the prefix may keep viewing the old arrays (it is usually
        # consumed at once); the remainder is copied so that it does not
        # pin the removed keys' memory for the rest of its life
        out._s, out._ra, out._rb = self._s[:i], self._ra[:i], self._rb[:i]
        self._s = self._s[i:].copy()
        self._ra = self._ra[i:].copy()
        self._rb = self._rb[i:].copy()
        return out

    def split_at_key(self, key) -> "ArrayTreap":
        """Destructively remove and return all keys ``<= key``."""
        return self.split_at_rank(self.count_le(key))

    # ------------------------------------------------------------------
    # Cost accounting hook
    # ------------------------------------------------------------------
    def access_cost(self, k: int | None = None) -> float:
        """Modeled operation cost in elementary ops: ``O(log min(k, n))``.

        The paper's search tree, augmented with its root-to-min/max
        paths, touches one of the smallest ``k`` keys in ``O(log k)``;
        callers pass the relevant ``k`` to charge that bound.  This is
        the model's cost, not this structure's wall cost (see the module
        docstring).
        """
        n = max(len(self), 2)
        if k is not None:
            n = max(2, min(n, int(k)))
        return math.log2(n)

    # ------------------------------------------------------------------
    # Validation (test hook)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert strict lexicographic order (keys are unique)."""
        keys = self.to_list()
        for prev, cur in zip(keys, keys[1:]):
            assert prev < cur, "lex order violated"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArrayTreap(n={len(self)})"
