"""Index of answered order statistics over one immutable dataset.

Every rank query the engine answers pins a value ``v`` together with
the global counts of elements ``< v`` (``n_less``) and ``<= v``
(``n_leq``) -- :func:`~repro.selection.multi_select_windows` returns
them for free.  Because a serve dataset never changes, those facts stay
true for the engine's lifetime, and a worker-pool recovery (which
rebuilds the same chunks) leaves them valid.  A later rank ``k`` is then

* **free** when a recorded value already holds it (``n_less < k <=
  n_leq``; where a count is unknown the recorded rank stands in): no
  command, no charge, no draw;
* otherwise **bracketed** by the nearest recorded value below whose
  ``n_leq`` is exact and the nearest above whose ``n_less`` is exact:
  the elements strictly between them are the ranks ``n_leq(lo) + 1 ..
  n_less(hi)``, so the window's offset and size need no collective and
  the selection recurses inside it only.

The selection returns more than the asked ranks: every pivot its
recursion split on pins a rank with one exact count (both for a
duplicate pivot), so each command leaves the index the cut points of
every level it ran, and a later rank's window starts between the
nearest cut points any earlier command split on.

The index is a few words per distinct value and holds at most
:data:`MAX_ENTRIES` of them; past the cap new values are not recorded
(answers stay exact, later queries just find wider windows).  NaN sorts
above every value, so a rank that holds NaN makes every rank above it
NaN too: the index keeps the lowest such rank and answers every rank
from it on with NaN.  NaN never bounds a window -- it has no place in a
value order a bracket could use.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort

__all__ = ["MAX_ENTRIES", "RankIndex"]

#: distinct values one dataset's index records at most
MAX_ENTRIES = 1 << 16


class RankIndex:
    """Answered order statistics of one dataset of ``n`` elements."""

    def __init__(self, n: int):
        self.n = int(n)
        #: recorded values, ascending, and the first rank each holds
        #: (parallel lists: value order is rank order)
        self._values: list = []
        self._starts: list[int] = []
        #: value -> [n_less, n_leq, lowest rank, highest rank seen]
        self._rec: dict = {}
        #: ``(n_leq, value)`` of values whose n_leq is exact, ascending
        self._lows: list[tuple] = []
        #: ``(n_less, value)`` of values whose n_less is exact, ascending
        self._highs: list[tuple] = []
        #: the lowest rank seen to hold NaN, and that NaN (every rank
        #: from it on holds NaN)
        self._nan: tuple | None = None

    def __len__(self) -> int:
        """The number of recorded values (NaN is not one)."""
        return len(self._values)

    def entries(self) -> list[tuple]:
        """``(value, n_less, n_leq)`` per recorded value, ascending
        (``None`` for a count the recursion did not learn)."""
        return [(v, *self._rec[v][:2]) for v in self._values]

    def record(self, rank: int, value, n_less, n_leq) -> None:
        """Note that rank ``rank`` holds ``value``, with its counts."""
        if value != value:  # NaN: so does every rank above
            if self._nan is None or rank < self._nan[0]:
                self._nan = (rank, value)
            return
        rec = self._rec.get(value)
        i = bisect_left(self._values, value)
        if rec is None:
            if len(self._values) >= MAX_ENTRIES:
                return
            rec = self._rec[value] = [None, None, rank, rank]
            self._values.insert(i, value)
            self._starts.insert(i, rank)
        rec[2], rec[3] = min(rec[2], rank), max(rec[3], rank)
        if rec[0] is None and n_less is not None:
            rec[0] = n_less
            insort(self._highs, (n_less, value))
        if rec[1] is None and n_leq is not None:
            rec[1] = n_leq
            insort(self._lows, (n_leq, value))
        self._starts[i] = rec[2] if rec[0] is None else rec[0] + 1

    def answer(self, k: int) -> tuple[bool, object]:
        """``(True, value)`` when a recorded value holds rank ``k``,
        else ``(False, None)``."""
        if self._nan is not None and k >= self._nan[0]:
            return True, self._nan[1]
        i = bisect_right(self._starts, k) - 1
        if i < 0:
            return False, None
        value = self._values[i]
        _, n_leq, _, top = self._rec[value]
        if k <= (top if n_leq is None else n_leq):
            return True, value
        return False, None

    def windows(self, ks) -> list[tuple]:
        """The ascending ranks ``ks`` (those :meth:`answer` missed)
        grouped into disjoint ``(lo, hi, offset, size, ranks)`` windows
        for :func:`~repro.selection.multi_select_windows`.  Windows that
        would share elements merge into one; a rank with no bracket on
        either side gets the whole dataset, ``(None, None, 0, n)``."""
        out: list = []
        for k in ks:
            i = bisect_left(self._lows, (k,)) - 1      # n_leq < k
            j = bisect_left(self._highs, (k,))         # n_less >= k
            offset, lo = self._lows[i] if i >= 0 else (0, None)
            end, hi = self._highs[j] if j < len(self._highs) else (self.n, None)
            if out and offset < out[-1][2] + out[-1][3]:
                # shares elements with the previous window: widen that
                # one (offsets and ends only grow with k)
                lo, _, offset, _, ranks = out.pop()
                ranks.append(k)
            else:
                ranks = [k]
            out.append((lo, hi, offset, end - offset, ranks))
        return out
