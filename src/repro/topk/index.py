"""Per-PE score index for multicriteria top-k (Section 6).

The distributed setting of the paper: "each PE has a subset of the
objects and m sorted lists ranking its locally present objects".  All of
an object's list entries are therefore co-located with the object, which
is what makes DTA's duplicate rejection and random accesses purely
local.

:class:`LocalIndex` stores the local objects' ids and their m-column
score matrix, plus one descending sort order per criterion; it answers

* ``entry(c, r)``        -- the (id, score) at rank ``r`` of list ``c``,
* ``scores_desc(c)``     -- the sorted score column (for ``amsSelect``),
* ``row_of(id)``         -- random access to an object's full score row,
* ``prefix_members(c, x)`` -- which local objects have list-``c`` score
  ``>= x`` (the local portion of the global prefix ``L'_c``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..machine import Machine

__all__ = ["LocalIndex", "build_distributed_index", "global_topk_oracle"]


class LocalIndex:
    """One PE's objects, score matrix and per-criterion sorted lists."""

    def __init__(self, ids: np.ndarray, scores: np.ndarray):
        ids = np.asarray(ids, dtype=np.int64)
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim != 2 or ids.ndim != 1 or scores.shape[0] != ids.shape[0]:
            raise ValueError(
                f"need ids (n,) and scores (n, m); got {ids.shape} and {scores.shape}"
            )
        if len(np.unique(ids)) != len(ids):
            raise ValueError("object ids must be locally unique")
        self.ids = ids
        self.scores = scores

    # An index rides DTA / RDTA commands: it pickles as its two arrays,
    # and the orders and the row map are derived again where they are
    # first used (the same stable sorts, so the same lists).  A worker
    # then builds only what its own kernel reads.
    def __getstate__(self):
        return self.ids, self.scores

    def __setstate__(self, state) -> None:
        self.ids, self.scores = state

    @cached_property
    def orders(self) -> list[np.ndarray]:
        """Row indices of each criterion's list, descending (stable,
        for reproducibility)."""
        return [np.argsort(-self.scores[:, c], kind="stable") for c in range(self.m)]

    @cached_property
    def _row_of(self) -> dict[int, int]:
        return dict(zip(self.ids.tolist(), range(self.n)))

    @property
    def n(self) -> int:
        return int(self.ids.size)

    @property
    def m(self) -> int:
        return int(self.scores.shape[1])

    # ------------------------------------------------------------------
    def entry(self, c: int, r: int) -> tuple[int, float]:
        """(object id, score) at rank ``r`` (0-based) of list ``c``."""
        row = self.orders[c][r]
        return int(self.ids[row]), float(self.scores[row, c])

    def scores_desc(self, c: int) -> np.ndarray:
        """Scores of list ``c`` in descending order."""
        return self.scores[self.orders[c], c]

    def row_of(self, obj_id: int) -> np.ndarray | None:
        """Full score row of a locally present object (random access)."""
        r = self._row_of.get(int(obj_id))
        return None if r is None else self.scores[r]

    def prefix_size(self, c: int, x: float) -> int:
        """Local size of the global prefix ``L'_c = {o : score_c(o) >= x}``."""
        col = self.scores_desc(c)
        # entries >= x of the descending column: search the negated
        # (ascending) column for -x with right bias
        return int(np.searchsorted(-col, -x, side="right"))

    def prefix_rows(self, c: int, size: int) -> np.ndarray:
        """Row indices of the first ``size`` entries of list ``c``."""
        return self.orders[c][:size]


def build_distributed_index(
    machine: Machine, ids_per_pe, scores_per_pe
) -> list[LocalIndex]:
    """Build one :class:`LocalIndex` per PE, charging the sort cost."""
    if len(ids_per_pe) != machine.p or len(scores_per_pe) != machine.p:
        raise ValueError("need ids and scores for every PE")
    out = [LocalIndex(ids, scores) for ids, scores in zip(ids_per_pe, scores_per_pe)]
    machine.charge_ops([ix.m * ix.n * np.log2(max(ix.n, 2)) for ix in out])
    return out


def global_topk_oracle(indexes: list[LocalIndex], scorer, k: int) -> list[tuple[int, float]]:
    """Driver-side exact top-k by full scoring (test oracle).

    Ties in the relevance are broken by object id so the answer is
    deterministic.
    """
    ids = np.concatenate([ix.ids for ix in indexes])
    rows = np.vstack([ix.scores for ix in indexes])
    rel = scorer.apply_rows(rows)
    order = np.lexsort((ids, -rel))
    take = order[:k]
    return [(int(ids[t]), float(rel[t])) for t in take]
