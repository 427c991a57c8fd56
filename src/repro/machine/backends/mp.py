"""Multiprocessing launcher: one forked worker process per PE.

This module is deliberately thin.  The wire protocol (protocol-5
out-of-band framing, scatter-gather ``writev``/``readv``, partial-read
reassembly) lives in :mod:`repro.machine.backends.transport`; the
worker command loop, resident chunk store, exchange schedules and the
driver-side dispatch live in :mod:`repro.machine.backends.runtime`.
What remains here is the *launch wiring* specific to a single host:

* fork one daemon process per PE (always the ``fork`` start method:
  callbacks shipped by value resolve their globals in the worker's
  copy of their module, which only a forked worker has as the driver
  left it);
* one :class:`~repro.machine.backends.transport.PipeChannel` inbox per
  worker plus a shared results channel -- pipes with a cross-process
  write lock, since every peer writes into every inbox;
* the shared-memory bulk lane (:mod:`repro.machine.backends.shm`):
  buffers at or above the threshold are copied once into pooled
  ``multiprocessing.shared_memory`` blocks, only ``(name, offset,
  nbytes, flag_offset)`` descriptors cross the pipe, and receivers
  decode the blocks zero-copy in place (per-block release flags tell
  the owner when a block is dead).  Recycling and the close-time
  segment reaping are supervised here because only this launcher has a
  shm lane (``supports_shm``); the ``tcp`` launcher runs the identical
  runtime with the lane absent.

Every PE of the machine is backed by a long-lived OS process.  Two
kinds of state live in the workers: **transient collective payloads**
(each PE's contribution travels to its worker, the workers exchange
among themselves, each returns its own result) and **resident chunks**
(:class:`~repro.machine.dist_array.DistArray` data pinned behind
:class:`~repro.machine.backends.base.ChunkRef` handles, operated on by
``run_spmd`` steps next to the data).

Combination orders replicate the in-process reference
(:func:`~repro.machine.backends.base.spmd_collective`) exactly --
reductions gather all contributions and combine
them in binomial-tree order, scans combine in rank order -- so every
value collective (and with it all the package's pipelines) is
bit-identical to the simulated run, including floating-point
reductions.

Caveats
-------
* Payloads and callable reduction ops must be picklable; the named ops
  (``"sum"``, ``"min"``, ``"max"``) always are.  SPMD callbacks
  (``map_chunks`` / ``map_values`` / ``run_spmd`` /
  ``DistArray.generate``) may be any plain Python function: what pickle
  cannot name -- a lambda, a closure, a nested ``def`` -- is shipped by
  value (code object, defaults, the closure cells' *contents*; globals
  resolve in the worker's copy of the defining module, which a forked
  worker inherits and any other worker must be able to import, under
  the same Python version).  Captured state is therefore copied to each
  PE, never shared with the driver.  Only a callback that cannot be
  rebuilt that way (a cell holding a lock, a socket, a generator
  object; a function whose module is gone) falls back to driver-side
  execution: every input chunk is fetched, the callback runs ``p``
  times serially, the outputs are uploaded.
* Worker pools are cleaned up by ``close()`` (idempotent), by
  ``Machine``'s context manager, and by an ``atexit`` guard that
  terminates any pool leaked by a crashed driver.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable

from .runtime import RuntimeBackend, WorkerLinks, worker_loop
from .shm import ShmPool, env_threshold, new_token, pool_family, reap_segments
from .transport import PipeChannel

__all__ = ["MultiprocessingBackend"]

#: "caller gave no value" marker for the shm-threshold override
_UNSET = object()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

class _PipeLinks(WorkerLinks):
    """Pipe binding of one worker: every peer's inbox is reachable
    directly (the channel ends are inherited across the fork), results
    ride a channel shared by the whole pool."""

    def __init__(self, rank, p, inboxes, results, pool, parent_pid,
                 faults=None):
        super().__init__(rank, p, pool, parent_pid, faults=faults)
        self._inboxes = inboxes
        self._results = results

    def send(self, dst: int, item, drain: Callable | None = None) -> None:
        self._inboxes[dst].put(item, drain=drain, pool=self.pool,
                               counters=self.counters)

    def send_result(self, item, drain: Callable | None = None,
                    pool: bool = True) -> None:
        self._results.put(item, drain=drain,
                          pool=self.pool if pool else None,
                          counters=self.counters)

    def recv(self, timeout: float | None = None):
        return self._inboxes[self.rank].get(timeout=timeout, pool=self.pool)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()

    # -- fault-injection hooks -----------------------------------------
    def sever(self, peer: int) -> None:
        # drop our inherited write end of the peer's inbox pipe; the
        # peer only sees EOF once every other holder closes too, so on
        # mp a sever starves the next exchange with that peer (the
        # driver's "hung" detector picks it up)
        self._inboxes[peer].close_writer()

    def send_result_truncated(self, item) -> None:
        from ..faults import truncated_frame_bytes
        from .transport import write_views

        raw = truncated_frame_bytes(item)
        with self._results._wlock:
            write_views(self._results._writer.fileno(), [memoryview(raw)])


def _worker_main(rank, p, inboxes, results, parent_pid, shm_family=None,
                 shm_threshold=None, faults=None):
    """Entry point of one PE worker (module-level for spawn support):
    build the pipe links + shm pool, then run the shared command loop."""
    pool = (
        ShmPool(shm_family, f"w{rank}", shm_threshold)
        if shm_family is not None else None
    )
    worker_loop(_PipeLinks(rank, p, inboxes, results, pool, parent_pid,
                           faults=faults))


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------

class MultiprocessingBackend(RuntimeBackend):
    """One OS process per PE; collectives move real pickled messages and
    DistArray chunks stay resident in the workers."""

    name = "mp"
    is_real = True
    supports_oob_pickle = True

    def __init__(
        self,
        p: int,
        *,
        shm_threshold: int | None | object = _UNSET,
        command_timeout: float | None = None,
        faults=None,
    ):
        super().__init__(p, command_timeout=command_timeout, faults=faults)
        self._ctx = multiprocessing.get_context("fork")
        self._workers: list = []
        # -- zero-copy payload lane ------------------------------------
        if shm_threshold is _UNSET:
            shm_threshold = env_threshold()
        if shm_threshold is not None and shm_threshold <= 0:
            shm_threshold = None  # "0 disables", like REPRO_SHM_THRESHOLD
        self._shm_threshold = shm_threshold
        self._shm_family = pool_family(new_token())
        self._pool = ShmPool(self._shm_family, "d", shm_threshold)

    @property
    def supports_shm(self) -> bool:
        return self._pool.enabled

    @property
    def shm_threshold(self) -> int | None:
        return self._shm_threshold

    # ------------------------------------------------------------------
    # Pool lifecycle (RuntimeBackend hooks)
    # ------------------------------------------------------------------
    def _start_pool(self) -> None:
        # start the resource tracker BEFORE forking, so every worker
        # inherits the one live tracker process: shared-memory
        # registrations then deduplicate in a single cache and the
        # owner's unlink clears them (a worker that lazily spawned its
        # own tracker would "clean up" the driver's live segments at
        # worker exit)
        try:
            from multiprocessing import resource_tracker
            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - non-POSIX fallback
            pass
        self._inboxes = [PipeChannel(self._ctx) for _ in range(self.p)]
        self._results = PipeChannel(self._ctx)
        self._workers = [
            self._ctx.Process(
                target=_worker_main,
                args=(rank, self.p, self._inboxes, self._results, os.getpid(),
                      self._shm_family, self._shm_threshold,
                      self.faults.for_rank(rank) if self.faults else None),
                daemon=True,
                name=f"repro-pe-{rank}",
            )
            for rank in range(self.p)
        ]
        for w in self._workers:
            w.start()

    def _join_workers(self) -> None:
        for w in self._workers:
            w.join(timeout=5.0)

    def _teardown(self) -> None:
        for w in self._workers:
            if w.is_alive():  # pragma: no cover - cleanup path
                w.terminate()
                w.join(timeout=1.0)
        for q in self._inboxes:
            q.close()
            q.cancel_join_thread()
        if self._results is not None:
            self._results.close()
            self._results.cancel_join_thread()
        # segment lifecycle backstop: unlink the driver pool's
        # segments and reap any a killed worker left behind, so no
        # shared memory outlives the backend
        self._pool.close()
        reap_segments(self._shm_family)

    def _teardown_idle(self) -> None:
        self._pool.close()

    def _reset_for_restart(self) -> None:
        # recovery restarts the whole pool (the pipe mesh is inherited
        # at fork, so a single respawned rank could not rejoin it); a
        # fresh shm family keeps old reaped segments from colliding
        super()._reset_for_restart()
        self._workers = []
        self._shm_family = pool_family(new_token())
        self._pool = ShmPool(self._shm_family, "d", self._shm_threshold)

    def _dead_workers(self) -> list[str]:
        return [w.name for w in self._workers if not w.is_alive()]

    def _dead_ranks(self) -> list[int]:
        return [r for r, w in enumerate(self._workers) if not w.is_alive()]
