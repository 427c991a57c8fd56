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
next query's command as per-PE riders; ``peek_min`` and each
``deleteMin*`` are a single generator SPMD step
(:meth:`Machine.run_command`) that first inserts the batch into its tree,
then runs the whole multisequence-selection recursion -- pivot draws,
rank counts, tie granting and the final tree split -- next to the
trees.  The selection is handed the driver-tracked global size (the
one-word all-reduction that learns it heads the charge log), so an
exact ``deleteMin`` pays one ``allreduce_exscan`` opening the search,
two collectives per pivot round (the pivot's reduction, one fused
count-and-prefix ``allreduce_exscan``) and the base case's allgather
if it runs; the cuts need none of their own.  All randomness (pivot
and estimator draws) is counter-addressed
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

def _make_tree(rank: int, p: int, source, take, log: list):
    """Per-PE resident state: one (initially empty) tree."""
    return None, None, Treap()


def _flushed(rank: int, source) -> Treap:
    """This PE's resident tree, its buffered insertions flushed in.

    ``source`` is ``(tree, (scores, first_uid))``: ``scores`` arrives as
    a binary float array (cheap on the wire) with uids reconstructed
    from ``first_uid`` -- buffered insertions number their uids
    contiguously per PE.  Every query kernel below calls it first, so a
    query carries the flush in its own command.
    """
    tree, (scores, first_uid) = source
    if scores is not None:
        tree.insert_batch(scores, rank, int(first_uid))
    return tree


def _insert_step(rank: int, p: int, source, take, log: list):
    _flushed(rank, source)
    return None, None


def _peek_step(rank: int, p: int, source, take, log: list):
    tree = _flushed(rank, source)
    local = tree.min() if len(tree) else TOP
    best = yield ("allreduce", local, "min")
    return best, None


def _delete_min_kernel(rank: int, p: int, source, take, log: list, k: int, n: int):
    """``deleteMin`` as ONE SPMD step: flush, exact multisequence
    selection on the resident trees (Theorem 5's ``O(alpha log^2 kp)``
    recursion runs entirely in-worker, two collectives a round), the
    tie grant its last round already paid for, tree split, batch
    extraction.  ``n`` is the driver-tracked global size (flush
    included; its all-reduction heads the log); the replicated pivot
    stream is derived in place from the command's draw address.
    Returns the threshold and this PE's batch."""
    tree = _flushed(rank, source)
    log.append(("allreduce", 1))
    value, cut, _ = yield from ms_select_with_cuts_gen(rank, p, tree, k, n, take(), log)
    batch = tuple(tree.split_at_rank(int(cut)))
    log.append(("ops", max(1.0, cut * tree.access_cost(k))))
    return value, batch


def _delete_flex_kernel(rank: int, p: int, source, take, log: list, k_lo: int,
                        k_hi: int, n: int):
    """``deleteMin*`` with flexible batch size, resident: flush, then
    ``amsSelect`` over the ``n`` driver-tracked elements (their
    all-reduction heads the log); its estimator rounds draw from this
    PE's stream of the command's draw address and the shared stream
    only if the exact fallback fires.  Returns ``(threshold, k_hat,
    rounds)`` and this PE's batch."""
    tree = _flushed(rank, source)
    log.append(("allreduce", 1))
    value, k_hat, cut, rounds, _ = yield from ams_select_gen(
        rank, p, tree, k_lo, k_hi, n, take(), log)
    batch = tuple(tree.split_at_rank(int(cut)))
    log.append(("ops", max(1.0, cut * tree.access_cost(k_hat))))
    return (value, k_hat, rounds), batch


class BulkParallelPQ:
    """Distributed bulk priority queue over ``machine.p`` worker-resident
    trees."""

    def __init__(self, machine: Machine):
        self.machine = machine
        _, _, self._ref = machine.run_command(_make_tree, n_addrs=0, keep=True)
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
            ops = np.zeros(self.machine.p)
            ops[rank] = np.log2(np.maximum(sizes, 2)).sum()
            self.machine.charge_ops(ops)
            self._pending[rank].append(batch)
            self._uid[rank] = first + m
            self._sizes[rank] = n + m
        return first

    def _take_pending(self) -> tuple:
        """Empty the insertion buffer into the next command's source:
        the trees and per PE ``(scores, first_uid)`` (``(None, 0)`` where
        a PE buffered nothing), which the kernel inserts before it does
        anything else.

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
        return self._ref, args

    def _flush(self) -> None:
        """Insert the buffered batches on their own (one command)."""
        if any(self._pending):
            self.machine.run_command(_insert_step, self._take_pending(), n_addrs=0)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def total_size(self) -> int:
        """Global element count: one all-reduction of the driver-tracked sizes."""
        self.machine.replay_charges([[("allreduce", 1)]] * self.machine.p)
        return int(sum(self._sizes))

    def peek_min(self):
        """Globally smallest score without removing it (one reduction,
        yielded from the resident lookup's step, which flushes first)."""
        v, _ = self.machine.run_command(_peek_step, self._take_pending(), n_addrs=0)
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
        rank -- one SPMD worker command end to end.  The global size is
        the driver's (its all-reduction heads the charge log), so the
        command pays one ``allreduce_exscan`` to open the search and two
        collectives per pivot round; the cuts cost none.
        """
        total = int(sum(self._sizes))  # the size all-reduction heads the log
        if not 1 <= k <= total:
            self.total_size()  # a refusal still paid for learning the total
            raise ValueError(f"k must satisfy 1 <= k <= {total}, got {k}")
        value, batches = self.machine.run_command(
            _delete_min_kernel, self._take_pending(), (k, total))
        return self._finish(batches, k, value, rounds=0)

    def delete_min_flexible(self, k_lo: int, k_hi: int) -> DeleteMinResult:
        """Remove the k̂ smallest elements for some ``k̂ in [k_lo, k_hi]``.

        Uses ``amsSelect``; with ``k_hi - k_lo = Omega(k_hi)`` this runs
        in ``O(alpha log kp)`` expected (Theorem 5's flexible variant).
        The global size is the driver's, its all-reduction heading the
        charge log, as for :meth:`delete_min`.
        """
        total = int(sum(self._sizes))
        check_rank_range(k_lo, k_hi, total)  # fail driver-side
        (value, k_hat, rounds), batches = self.machine.run_command(
            _delete_flex_kernel, self._take_pending(), (k_lo, k_hi, total))
        return self._finish(batches, k_hat, value, rounds)

    def _finish(self, batches: list, k: int, threshold, rounds: int) -> DeleteMinResult:
        for i, batch in enumerate(batches):
            self._sizes[i] -= len(batch)
        return DeleteMinResult(tuple(batches), k, threshold, rounds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BulkParallelPQ(p={self.machine.p}, sizes={self.local_sizes()})"
