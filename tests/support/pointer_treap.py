"""Size-augmented pointer treap -- the differential oracle for the
sorted-array tree of ``src/`` (:class:`repro.trees.Treap`).

An independent implementation of the same operation set (Section 2,
"Search trees"), kept out of ``src/`` because nothing there runs it:

* ``insert`` / ``delete`` of a key,
* ``select(i)`` -- the i-th smallest key (0-based),
* ``rank(x)`` -- number of keys strictly smaller than ``x``
  (``count_le`` gives the <=-variant used for pivot counting),
* ``split`` / ``join`` -- used to peel off the ``deleteMin*`` prefix.

Keys may be any totally ordered Python values (the array tree takes
``(score, (ra, rb))`` keys only), so its own unit and property tests run
on plain integers and the differential tests on queue-shaped keys.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional

import numpy as np

__all__ = ["Treap"]


class _Node:
    __slots__ = ("key", "prio", "size", "left", "right")

    def __init__(self, key, prio: float):
        self.key = key
        self.prio = prio
        self.size = 1
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None

    def update(self) -> "_Node":
        self.size = 1 + _size(self.left) + _size(self.right)
        return self


def _size(node: Optional[_Node]) -> int:
    return node.size if node is not None else 0


def _merge(a: Optional[_Node], b: Optional[_Node]) -> Optional[_Node]:
    """Join two treaps; every key in ``a`` must precede every key in ``b``."""
    if a is None:
        return b
    if b is None:
        return a
    if a.prio > b.prio:
        a.right = _merge(a.right, b)
        return a.update()
    b.left = _merge(a, b.left)
    return b.update()


def _split_lt(node: Optional[_Node], key) -> tuple[Optional[_Node], Optional[_Node]]:
    """Split into (keys < key, keys >= key)."""
    if node is None:
        return None, None
    if node.key < key:
        left, right = _split_lt(node.right, key)
        node.right = left
        return node.update(), right
    left, right = _split_lt(node.left, key)
    node.left = right
    return left, node.update()


def _split_le(node: Optional[_Node], key) -> tuple[Optional[_Node], Optional[_Node]]:
    """Split into (keys <= key, keys > key)."""
    if node is None:
        return None, None
    if key < node.key:
        left, right = _split_le(node.left, key)
        node.left = right
        return left, node.update()
    left, right = _split_le(node.right, key)
    node.right = left
    return node.update(), right


def _split_rank(node: Optional[_Node], i: int) -> tuple[Optional[_Node], Optional[_Node]]:
    """Split into (first i keys, the rest)."""
    if node is None:
        return None, None
    ls = _size(node.left)
    if i <= ls:
        left, right = _split_rank(node.left, i)
        node.left = right
        return left, node.update()
    left, right = _split_rank(node.right, i - ls - 1)
    node.right = left
    return node.update(), right


class Treap:
    """Ordered multiset with order statistics, split and join.

    Duplicate keys are allowed; ``rank``/``count_le`` treat them with
    strict/non-strict comparisons respectively.  All mutating bulk
    operations (:meth:`split_at_rank`, :meth:`split_at_key`,
    :meth:`concat`) are destructive, matching the paper's usage where a
    ``deleteMin*`` splits the local tree and the algorithm reassembles
    state explicitly.
    """

    def __init__(self, rng: np.random.Generator | None = None):
        self._root: Optional[_Node] = None
        self._rng = rng if rng is not None else np.random.default_rng(0x7EA9)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_sorted(cls, keys: Iterable, rng: np.random.Generator | None = None) -> "Treap":
        """Build from already-sorted keys in O(n).

        A perfectly balanced BST is built by midpoint recursion; heap
        priorities are assigned level-wise from a sorted draw so the
        treap invariant (parent priority > child priority) holds.
        """
        t = cls(rng)
        keys = list(keys)
        for a, b in zip(keys, keys[1:]):
            if b < a:
                raise ValueError("from_sorted requires non-decreasing keys")
        n = len(keys)
        if n == 0:
            return t
        prios = np.sort(t._rng.random(n))[::-1]  # descending
        # assign priorities in BFS order so every parent outranks its children
        t._root = t._build_bfs(keys, prios)
        return t

    def _build_bfs(self, keys: list, prios: np.ndarray) -> Optional[_Node]:
        """Balanced build with BFS-ordered priorities (largest at root)."""
        n = len(keys)
        if n == 0:
            return None
        # collect (depth, lo, hi) ranges breadth-first; assign priorities
        # in that order so every parent precedes its children
        import collections

        nodes: dict[tuple[int, int], _Node] = {}
        order: list[tuple[int, int]] = []
        q = collections.deque([(0, n)])
        while q:
            lo, hi = q.popleft()
            if lo >= hi:
                continue
            order.append((lo, hi))
            mid = (lo + hi) // 2
            q.append((lo, mid))
            q.append((mid + 1, hi))
        for rank_, (lo, hi) in enumerate(order):
            mid = (lo + hi) // 2
            nodes[(lo, hi)] = _Node(keys[mid], float(prios[rank_]))

        def link(lo: int, hi: int) -> Optional[_Node]:
            if lo >= hi:
                return None
            node = nodes[(lo, hi)]
            mid = (lo + hi) // 2
            node.left = link(lo, mid)
            node.right = link(mid + 1, hi)
            return node.update()

        return link(0, n)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return _size(self._root)

    def __bool__(self) -> bool:
        return self._root is not None

    def __iter__(self) -> Iterator:
        """In-order (ascending) iteration, non-recursive."""
        stack: list[_Node] = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.key
            node = node.right

    def to_list(self) -> list:
        return list(self)

    def min(self):
        """Smallest key; raises on empty tree."""
        node = self._require_root()
        while node.left is not None:
            node = node.left
        return node.key

    def max(self):
        """Largest key; raises on empty tree."""
        node = self._require_root()
        while node.right is not None:
            node = node.right
        return node.key

    def _require_root(self) -> _Node:
        if self._root is None:
            raise IndexError("operation on empty Treap")
        return self._root

    def __contains__(self, key) -> bool:
        node = self._root
        while node is not None:
            if key < node.key:
                node = node.left
            elif node.key < key:
                node = node.right
            else:
                return True
        return False

    # ------------------------------------------------------------------
    # Order statistics
    # ------------------------------------------------------------------
    def select(self, i: int):
        """The ``i``-th smallest key, 0-based (the paper's ``T[i]``)."""
        n = len(self)
        if not 0 <= i < n:
            raise IndexError(f"select index {i} out of range for size {n}")
        node = self._root
        while True:
            ls = _size(node.left)
            if i < ls:
                node = node.left
            elif i == ls:
                return node.key
            else:
                i -= ls + 1
                node = node.right

    def rank(self, key) -> int:
        """Number of keys strictly smaller than ``key``."""
        node = self._root
        r = 0
        while node is not None:
            if key <= node.key:
                node = node.left
            else:
                r += _size(node.left) + 1
                node = node.right
        return r

    def count_le(self, key) -> int:
        """Number of keys ``<= key`` (the paper's ``T.rank(x)``)."""
        node = self._root
        r = 0
        while node is not None:
            if key < node.key:
                node = node.left
            else:
                r += _size(node.left) + 1
                node = node.right
        return r

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, key) -> None:
        """Insert ``key`` (duplicates allowed)."""
        left, right = _split_le(self._root, key)
        node = _Node(key, float(self._rng.random()))
        self._root = _merge(_merge(left, node), right)

    def insert_many(self, keys: Iterable) -> None:
        for key in keys:
            self.insert(key)

    def insert_batch(self, scores, rank: int, first_uid: int) -> None:
        """Bulk-insert contiguously-numbered ``(score, (rank, uid))``
        keys (the priority queue's flush path; one priority draw per
        key, same as :meth:`insert`)."""
        uid = int(first_uid)
        for s in scores:
            self.insert((float(s), (int(rank), uid)))
            uid += 1

    def delete(self, key) -> bool:
        """Delete one occurrence of ``key``; returns whether it existed."""
        left, rest = _split_lt(self._root, key)
        mid, right = _split_le(rest, key)
        if mid is None:
            self._root = _merge(left, right)
            return False
        # drop one element (the root-path minimum of mid works, but any
        # single occurrence is equivalent since all keys in mid == key)
        drop_one, remainder = _split_rank(mid, 1)
        self._root = _merge(_merge(left, remainder), right)
        return True

    # ------------------------------------------------------------------
    # Bulk operations
    # ------------------------------------------------------------------
    def split_at_rank(self, i: int) -> "Treap":
        """Destructively remove and return the ``i`` smallest keys."""
        if i < 0:
            raise ValueError(f"split size must be >= 0, got {i}")
        i = min(i, len(self))
        left, right = _split_rank(self._root, i)
        self._root = right
        out = Treap(self._rng)
        out._root = left
        return out

    def split_at_key(self, key) -> "Treap":
        """Destructively remove and return all keys ``<= key``."""
        left, right = _split_le(self._root, key)
        self._root = right
        out = Treap(self._rng)
        out._root = left
        return out

    def concat(self, other: "Treap") -> None:
        """Append ``other`` (all keys must be >= our max); destructive."""
        if self._root is not None and other._root is not None:
            if other.min() < self.max():
                raise ValueError("concat requires disjoint, ordered key ranges")
        self._root = _merge(self._root, other._root)
        other._root = None

    # ------------------------------------------------------------------
    # Cost accounting hook
    # ------------------------------------------------------------------
    def access_cost(self, k: int | None = None) -> float:
        """Modeled operation cost in elementary ops: ``O(log min(k, n))``.

        With the paper's min/max-path augmentation, operations that only
        touch the smallest ``k`` elements cost ``O(log k)``; callers pass
        the relevant ``k`` to charge that bound.
        """
        n = max(len(self), 2)
        if k is not None:
            n = max(2, min(n, int(k)))
        return math.log2(n)

    # ------------------------------------------------------------------
    # Validation (test hook)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert BST order, heap priorities and size augmentation."""

        def rec(node: Optional[_Node]) -> tuple[int, object, object]:
            if node is None:
                return 0, None, None
            lsz, lmin, lmax = rec(node.left)
            rsz, rmin, rmax = rec(node.right)
            if node.left is not None:
                assert not (node.key < lmax), "BST order violated (left)"
                assert node.prio >= node.left.prio, "heap order violated (left)"
            if node.right is not None:
                assert not (rmin < node.key), "BST order violated (right)"
                assert node.prio >= node.right.prio, "heap order violated (right)"
            assert node.size == lsz + rsz + 1, "size augmentation stale"
            return (
                node.size,
                lmin if node.left is not None else node.key,
                rmax if node.right is not None else node.key,
            )

        rec(self._root)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Treap(n={len(self)})"
