"""Communication-efficient bulk-parallel priority queue (Section 5).

The queue keeps one search tree per PE and **never moves elements**:

* ``insert*`` puts new elements into the *local* tree -- zero
  communication, ``O(log n)`` modeled time per element.  (Previous
  designs -- Karp-Zhang random allocation [20], the randomized PQ of
  [31] -- send every insertion to a random PE.)
* ``deleteMin*`` runs the multisequence selection algorithms of
  Section 4 directly **on the trees**: the search tree supports
  ``select`` (i-th smallest) and ``rank`` in logarithmic time, which is
  all ``msSelect``/``amsSelect`` need from a "sorted sequence".  The
  selected per-PE prefixes are then split off the trees.

The per-PE tree is :class:`repro.trees.Treap`, a sorted
structure-of-arrays multiset (:mod:`repro.kernels.treap`): all the
queue observes of its tree depends on the key multiset only.  The *modeled* cost is still the paper's search tree --
``log2 n`` ops per inserted key, :meth:`~repro.trees.Treap.access_cost`
``= O(log min(k, n))`` per extracted one -- while the *wall* cost of a
flush of ``m`` keys into ``n`` is one stable sort of the batch plus an
``O(n + m)`` memmove.

Execution is resident: the trees live in the execution backend's
worker memory behind a :class:`~repro.machine.backends.base.ChunkRef`
handle.  Insertions are buffered driver-side (as arrays) and ride the
next query's command as extra per-PE args; ``peek_min`` and each
``deleteMin*`` are a single generator SPMD step
(:meth:`Backend.run_spmd`) that first inserts the batch into its tree,
then runs the whole multisequence-selection recursion -- pivot draws,
rank counts, tie granting and the final tree split -- next to the
trees.  All randomness (pivot and estimator draws) is counter-addressed
(:mod:`repro.machine.ctrrng`): each command ships a tiny draw address
and the kernels derive identical streams in place, so backends stay
bit-identical with no generator state on the wire.  Only the extracted
batches and a small charge log (replayed through
:meth:`Machine.replay_charges`) return to the driver.

Costs (Theorem 5): ``O(alpha log^2 kp)`` for fixed batch size ``k``,
``O(alpha log kp)`` for flexible batch size in ``[k_lo, k_hi]`` with
``k_hi - k_lo = Omega(k_hi)``, and ``O(d log k + beta d + alpha log p)``
with ``d`` concurrent trials.

Elements are ``(score, uid)`` pairs -- ``uid`` a per-PE counter tagged
with the rank -- so the total order is unique (Section 2's tie-breaking
convention).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.ordering import TOP
from ..common.validation import check_rank_range
from ..machine import Machine
from ..selection.flexible import ams_select_gen
from ..selection.sorted_select import ms_select_with_cuts_gen
from ..trees import Treap

__all__ = ["BulkParallelPQ", "DeleteMinResult"]


@dataclass(frozen=True)
class DeleteMinResult:
    """Outcome of a ``deleteMin*`` call.

    ``batches[i]`` holds the extracted elements of PE ``i`` in ascending
    order; they remain on their PE (the paper's owner-computes
    convention -- redistribution, if the application needs it, is a
    separate step, cf. Section 9).
    """

    batches: tuple[tuple, ...]
    k: int
    threshold: object
    rounds: int


def _as_scores(scores) -> np.ndarray:
    """One PE's insertion batch as a fresh float64 array (the caller
    keeps theirs).  NaN has no place in a total order -- in a sorted
    column it would silently misplace every later binary search -- so it
    is refused here, before anything is buffered or charged."""
    if not isinstance(scores, (np.ndarray, list, tuple)):
        scores = list(scores)
    batch = np.array(scores, dtype=np.float64)
    if batch.ndim != 1:
        raise ValueError(f"scores must be a flat sequence, got shape {batch.shape}")
    if np.isnan(batch).any():
        raise ValueError("scores must not be NaN")
    return batch


# ----------------------------------------------------------------------
# Resident worker callbacks (module-level so real backends can ship them)
# ----------------------------------------------------------------------

def _make_tree(rank: int) -> tuple:
    """Per-PE resident state: one (initially empty) tree."""
    return (Treap(), None)


def _insert_step(rank: int, tree: Treap, scores, first_uid):
    """Flush this PE's buffered insertions into its resident tree.

    ``scores`` arrives as a binary float array (cheap on the wire) with
    uids reconstructed from ``first_uid`` -- buffered insertions number
    their uids contiguously per PE.  Every query kernel below calls it
    first, so a query carries the flush in its own command.
    """
    if scores is not None:
        tree.insert_batch(scores, rank, int(first_uid))
    return None


def _peek_step(rank: int, tree: Treap, scores, first_uid):
    _insert_step(rank, tree, scores, first_uid)
    local = tree.min() if len(tree) else TOP
    best = yield ("allreduce", local, "min")
    return local, best


def _delete_min_kernel(
    rank: int, tree: Treap, scores, first_uid, k: int, p: int, addr
):
    """``deleteMin`` as ONE SPMD step: flush, exact multisequence
    selection on the resident trees (Theorem 5's ``O(alpha log^2 kp)``
    recursion runs entirely in-worker), tie-grant, tree split, batch
    extraction.  The replicated pivot stream is derived in place from
    ``addr``."""
    _insert_step(rank, tree, scores, first_uid)
    log: list = []
    value, cut, _ = yield from ms_select_with_cuts_gen(
        rank, p, tree, k, addr.shared(), log
    )
    batch = tuple(tree.split_at_rank(int(cut)))
    log.append(("ops", max(1.0, cut * tree.access_cost(k))))
    return {
        "batch": batch,
        "value": value,
        "log": log,
    }


def _delete_flex_kernel(
    rank: int, tree: Treap, scores, first_uid, k_lo: int, k_hi: int, p: int,
    addr,
):
    """``deleteMin*`` with flexible batch size, resident: flush, then
    ``amsSelect``'s estimator rounds draw from this PE's
    counter-addressed stream (``addr.local(rank)``) and the shared
    stream only if the exact fallback fires."""
    _insert_step(rank, tree, scores, first_uid)
    log: list = []
    value, k_hat, cut, rounds, _ = yield from ams_select_gen(
        rank, p, tree, k_lo, k_hi, addr.local(rank), addr.shared(), log
    )
    batch = tuple(tree.split_at_rank(int(cut)))
    log.append(("ops", max(1.0, cut * tree.access_cost(k_hat))))
    return {
        "batch": batch,
        "value": value,
        "k": k_hat,
        "rounds": rounds,
        "log": log,
    }


class BulkParallelPQ:
    """Distributed bulk priority queue over ``machine.p`` worker-resident
    trees."""

    def __init__(self, machine: Machine):
        self.machine = machine
        refs, _, _ = machine.backend.map_resident(
            _make_tree, [], n_out=1, args=[()] * machine.p
        )
        self._ref = refs[0]
        self._uid = [0] * machine.p
        self._sizes = [0] * machine.p  # driver-tracked (resident + pending)
        # per PE: float64 arrays, one per buffered insert, in uid order
        self._pending: list[list[np.ndarray]] = [[] for _ in range(machine.p)]

    # ------------------------------------------------------------------
    # Insertion: local, communication-free (buffered driver-side and
    # inserted by the next tree query's own kernel)
    # ------------------------------------------------------------------
    def insert(self, per_pe_scores) -> None:
        """``insert*``: bulk-insert scores, each batch into its own PE.

        ``per_pe_scores[i]`` is an iterable of priorities generated on PE
        ``i``.  No communication is charged -- that is the point of the
        data structure.
        """
        if len(per_pe_scores) != self.machine.p:
            raise ValueError(
                f"need one insertion batch per PE (p={self.machine.p}, "
                f"got {len(per_pe_scores)})"
            )
        # validate every batch before buffering any: a refused insert*
        # leaves the queue as it was
        batches = [_as_scores(scores) for scores in per_pe_scores]
        for i, batch in enumerate(batches):
            self._buffer(i, batch)

    def insert_local(self, rank: int, scores) -> list[tuple[int, int]]:
        """Insert elements on a single PE (e.g. children in B&B).

        ``scores`` is any iterable of floats; ``+-inf`` are ordinary
        scores, NaN raises ``ValueError`` (nothing is inserted).
        Returns the assigned uids ``(rank, counter)`` so applications can
        attach satellite data in per-PE side tables.
        """
        batch = _as_scores(scores)
        first = self._buffer(rank, batch)
        return list(zip([rank] * batch.size, range(first, first + batch.size)))

    def _buffer(self, rank: int, batch: np.ndarray) -> int:
        """Buffer one PE's validated insertions and charge their modeled
        cost; returns the first uid counter of the batch."""
        m = batch.size
        first = self._uid[rank]
        if m:
            n = self._sizes[rank]
            # the paper's search tree: log2(size) ops per inserted key
            sizes = np.arange(n + 1, n + m + 1)
            self.machine.charge_ops_one(
                rank, float(np.log2(np.maximum(sizes, 2)).sum())
            )
            self._pending[rank].append(batch)
            self._uid[rank] = first + m
            self._sizes[rank] = n + m
        return first

    def _take_pending(self) -> list[tuple]:
        """Empty the insertion buffer into per-PE ``(scores, first_uid)``
        args (``(None, 0)`` where a PE buffered nothing), which the next
        command's kernel inserts before it does anything else.

        A batch takes one draw address of its own, before the address
        of the query that carries it: the flush draws nothing, but the
        address stream -- hence every later pivot and the modeled cost
        -- stays the one the golden tables pin."""
        machine = self.machine
        if any(self._pending):
            machine.draw_addr()
        args = []
        for i in range(machine.p):
            parts = self._pending[i]
            if parts:
                batch = parts[0] if len(parts) == 1 else np.concatenate(parts)
                args.append((batch, self._uid[i] - batch.size))
            else:
                args.append((None, 0))
        self._pending = [[] for _ in range(machine.p)]
        return args

    def _flush(self) -> None:
        """Insert the buffered batches on their own (one command)."""
        if any(self._pending):
            self.machine.backend.run_spmd(
                _insert_step, [self._ref], args=self._take_pending()
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def total_size(self) -> int:
        """Global element count (one all-reduction)."""
        return int(self.machine.allreduce(list(self._sizes), op="sum")[0])

    def peek_min(self):
        """Globally smallest score without removing it (one reduction,
        yielded from the resident lookup's step, which flushes first)."""
        _, out = self.machine.backend.run_spmd(
            _peek_step, [self._ref], args=self._take_pending()
        )
        self.machine._meter_allreduce([local for local, _ in out])
        v = out[0][1]
        if v is TOP:
            raise IndexError("peek_min on empty queue")
        return v[0]

    def local_sizes(self) -> list[int]:
        return list(self._sizes)

    @property
    def trees(self) -> list[Treap]:
        """Driver-side view of the resident trees (live objects on the
        in-process backend, fetched copies on real backends; tests and
        debugging only -- the algorithms never move the trees)."""
        self._flush()
        return list(self.machine.backend.get_chunks(self._ref))

    # ------------------------------------------------------------------
    # deleteMin*
    # ------------------------------------------------------------------
    def delete_min(self, k: int) -> DeleteMinResult:
        """Remove exactly the ``k`` globally smallest elements.

        Runs exact multisequence selection (``O(alpha log^2 kp)``,
        Theorem 5) on the resident trees and splits each tree at its cut
        rank -- one SPMD worker command end to end.
        """
        machine = self.machine
        p = machine.p
        # the total is a one-word all-reduction of the local sizes: the
        # driver tracks those, so charge it without a worker round trip
        total = sum(self._sizes)
        machine._meter_allreduce(words=1)
        if not 1 <= k <= total:
            raise ValueError(f"k must satisfy 1 <= k <= {total}, got {k}")
        flush = self._take_pending()
        addr = machine.draw_addr()
        _, vals = machine.backend.run_spmd(
            _delete_min_kernel, [self._ref],
            args=[(*flush[i], k, p, addr) for i in range(p)],
        )
        machine.replay_charges([v["log"] for v in vals])
        return self._finish(vals, k, vals[0]["value"], rounds=0)

    def delete_min_flexible(self, k_lo: int, k_hi: int) -> DeleteMinResult:
        """Remove the k̂ smallest elements for some ``k̂ in [k_lo, k_hi]``.

        Uses ``amsSelect``; with ``k_hi - k_lo = Omega(k_hi)`` this runs
        in ``O(alpha log kp)`` expected (Theorem 5's flexible variant).
        """
        check_rank_range(k_lo, k_hi, sum(self._sizes))  # fail driver-side
        machine = self.machine
        p = machine.p
        flush = self._take_pending()
        addr = machine.draw_addr()
        _, vals = machine.backend.run_spmd(
            _delete_flex_kernel, [self._ref],
            args=[(*flush[i], k_lo, k_hi, p, addr) for i in range(p)],
        )
        machine.replay_charges([v["log"] for v in vals])
        return self._finish(vals, vals[0]["k"], vals[0]["value"], vals[0]["rounds"])

    def _finish(self, vals, k: int, threshold, rounds: int) -> DeleteMinResult:
        batches = tuple(v["batch"] for v in vals)
        for i, batch in enumerate(batches):
            self._sizes[i] -= len(batch)
        return DeleteMinResult(batches, k, threshold, rounds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BulkParallelPQ(p={self.machine.p}, sizes={self.local_sizes()})"
