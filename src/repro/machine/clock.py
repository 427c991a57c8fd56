"""Per-PE simulated clocks.

Each PE carries a local clock (seconds of modeled time).  Local work
advances a single PE's clock; a collective synchronizes all participants
to ``max(clock) + collective_time``; a point-to-point message advances
both endpoints to ``max(sender, receiver) + alpha + beta * words``.

The makespan -- ``clock.max()`` after the algorithm finished -- is the
modeled parallel running time that the weak-scaling benchmarks report in
place of the paper's wall-clock measurements.  Because straggler effects
propagate through the ``max`` at every synchronization point, load
imbalance shows up in the makespan exactly as it would on a real
machine.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SimClock"]


class SimClock:
    """Vector of per-PE clocks with charging primitives."""

    def __init__(self, p: int):
        if p < 1:
            raise ValueError(f"need at least one PE, got p={p}")
        self.p = p
        self.t = np.zeros(p, dtype=np.float64)
        #: cumulative time spent in local computation, per PE
        self.work_time = np.zeros(p, dtype=np.float64)
        #: cumulative time attributed to communication (incl. waiting)
        self.comm_time = np.zeros(p, dtype=np.float64)

    # ------------------------------------------------------------------
    def charge_local(self, seconds) -> None:
        """Advance clocks by per-PE local-work durations.

        ``seconds`` may be a scalar (applied to every PE) or an array of
        length ``p``.
        """
        dt = np.asarray(seconds, dtype=np.float64)
        if dt.ndim and dt.shape != (self.p,):
            dt = np.broadcast_to(dt, (self.p,))  # rejects a wrong length
        if (dt < 0).any():
            raise ValueError("negative local work duration")
        self.t += dt
        self.work_time += dt

    def charge_local_rows(self, rows) -> None:
        """Advance clocks by a ``(J, p)`` array of local-work rows.

        Bit-identical to ``J`` :meth:`charge_local` calls, one per row in
        order: ``np.add.accumulate`` down ``[t; rows]`` performs the same
        sequential adds.  A negative entry raises before any clock moves.
        """
        dt = np.asarray(rows, dtype=np.float64)
        if dt.ndim != 2 or dt.shape[1] != self.p:
            raise ValueError(
                f"local work rows must have shape (J, {self.p}), got {dt.shape}"
            )
        if (dt < 0).any():
            raise ValueError("negative local work duration")
        self.t[:] = np.add.accumulate(np.vstack([self.t, dt]))[-1]
        self.work_time[:] = np.add.accumulate(np.vstack([self.work_time, dt]))[-1]

    # ------------------------------------------------------------------
    def sync_collective(self, seconds: float, ranks=None) -> float:
        """Synchronize ``ranks`` (default: all) at ``max(t) + seconds``.

        Returns the new common clock value.  The waiting time of early
        arrivers plus the collective's own duration is attributed to
        communication time.
        """
        if seconds < 0:
            raise ValueError("negative collective duration")
        if ranks is None:
            start = float(self.t.max())
            end = start + seconds
            self.comm_time += end - self.t
            self.t[:] = end
        else:
            ranks = np.asarray(ranks, dtype=np.intp)
            start = float(self.t[ranks].max())
            end = start + seconds
            self.comm_time[ranks] += end - self.t[ranks]
            self.t[ranks] = end
        return end

    def charge_p2p(self, src: int, dst: int, seconds: float) -> float:
        """One message between two PEs; both end at the same time."""
        if seconds < 0:
            raise ValueError("negative message duration")
        start = max(self.t[src], self.t[dst])
        end = start + seconds
        self.comm_time[src] += end - self.t[src]
        self.comm_time[dst] += end - self.t[dst]
        self.t[src] = end
        self.t[dst] = end
        return end

    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Modeled parallel running time so far."""
        return float(self.t.max())

    @property
    def imbalance(self) -> float:
        """max/mean ratio of per-PE busy time (1.0 == perfectly balanced)."""
        busy = self.work_time
        mean = float(busy.mean())
        if mean == 0.0:
            return 1.0
        return float(busy.max()) / mean

    def reset(self) -> None:
        self.t[:] = 0.0
        self.work_time[:] = 0.0
        self.comm_time[:] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(p={self.p}, makespan={self.makespan:.3e}s)"
