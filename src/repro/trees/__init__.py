"""Search-tree data structures (Section 2 / Section 5 substrate).

The bulk-parallel priority queue replaces each PE's binary heap by a
search tree supporting ``insert``, ``select(i)`` (the i-th smallest
key), ``rank``/``count_le`` and a prefix ``split`` -- the operation set
of Section 2 ("Search trees").  Everything the queue observes through
those operations depends on the key multiset only, so the package's one
tree is a sorted structure-of-arrays multiset
(:class:`repro.kernels.ArrayTreap`, defined next to its merge kernel).
:class:`Treap` is that same class: the name is what callers of this
package -- the frozen ledger probes among them -- import.  Its
:meth:`~Treap.access_cost` still charges the paper's
``O(log min(k, n))`` search-tree bound, while the wall cost of a bulk
insertion is an ``O(n + m)`` memmove.
"""

from ..kernels.treap import ArrayTreap as Treap

__all__ = ["Treap"]
