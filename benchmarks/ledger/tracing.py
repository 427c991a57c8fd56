"""Driver-side spans, recorded from outside the program.

Nothing under ``src/`` knows about tracing: :meth:`Tracer.installed`
substitutes the public driver-side entry points (as class or module
attributes) with wrappers that record a span, and puts the originals
back on exit.  Spans stay in memory; :meth:`Tracer.write_chrome` dumps
them as Chrome trace-event JSON when the benchmark ends.

What happens inside the workers (dequeue, kernel, collective wait) is
not visible from here; the isolated probes in ``layers.py`` cover it
until the program grows spans of its own.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict

__all__ = ["COMMAND_SPANS", "Span", "Tracer"]

RUNTIME = "machine.backends.runtime"
COMM = "machine.comm"
HOST = "host"

#: runtime spans that each stand for one backend command issued
COMMAND_SPANS = frozenset({
    "submit_spmd", "submit_map_resident", "put_chunks", "get_chunks",
    "broadcast", "reduce", "allreduce", "scan", "allreduce_exscan",
    "reduce_allgather", "gather", "allgather", "scatter", "alltoall",
    "p2p", "map",
})

_BACKEND_CALLS = ("run_spmd", "map_resident") + tuple(sorted(COMMAND_SPANS))

_MACHINE_CALLS = (
    # cost charging: charge-log replay and local work.  (The direct
    # meters are private; their time stays in the enclosing span.)
    "replay_charges", "charge_ops", "charge_ops_one",
    # list-of-p collectives (each charges, then calls the backend)
    "broadcast", "reduce", "allreduce", "scan", "exscan", "allreduce_exscan",
    "gather", "allgather", "reduce_allgather", "scatter", "alltoall",
    "aggregate_exchange", "reduce_tree", "send",
)

_MISSING = object()


class Span(tuple):
    """``(id, parent, op, layer, name, tid, t0, t1)``."""

    __slots__ = ()
    id = property(lambda s: s[0])
    parent = property(lambda s: s[1])
    op = property(lambda s: s[2])
    layer = property(lambda s: s[3])
    name = property(lambda s: s[4])
    tid = property(lambda s: s[5])
    t0 = property(lambda s: s[6])
    t1 = property(lambda s: s[7])
    dur = property(lambda s: s[7] - s[6])


def _targets() -> list[tuple[object, str, str]]:
    """``(owner, attribute, layer)`` of every wrapped entry point."""
    from repro import aggregation, frequent, redistribution, selection
    from repro.machine import Machine
    from repro.machine.backends.base import PendingValues
    from repro.machine.backends.runtime import RuntimeBackend
    from repro.pqueue import BulkParallelPQ
    from repro.serve import QueryEngine

    out = [(RuntimeBackend, name, RUNTIME) for name in _BACKEND_CALLS]
    out.append((PendingValues, "wait", RUNTIME))
    out += [(Machine, name, COMM) for name in _MACHINE_CALLS]
    out += [
        (selection, "multi_select", "selection"),
        (selection, "ams_select", "selection"),
        (frequent, "top_k_frequent_pac", "frequent"),
        (frequent, "top_k_frequent_ec", "frequent"),
        (frequent, "top_k_frequent_exact", "frequent"),
        (aggregation, "top_k_sums_ec", "aggregation"),
        (redistribution, "redistribute", "redistribution"),
        (BulkParallelPQ, "insert", "pqueue"),
        (BulkParallelPQ, "peek_min", "pqueue"),
        (BulkParallelPQ, "delete_min", "pqueue"),
        (BulkParallelPQ, "delete_min_flexible", "pqueue"),
        (QueryEngine, "submit", "serve"),
    ]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        #: operation the driver thread is in (0 = outside any)
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording -----------------------------------------------------
    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(Span((sid, parent, self.op, layer, name,
                                    threading.get_ident(), t0, t1)))

    @contextlib.contextmanager
    def operation(self, op: int):
        """Root span of one timed operation; child spans share ``op``."""
        self.op = op
        try:
            with self.span(HOST, "op"):
                yield
        finally:
            self.op = 0

    def _wrap(self, fn, layer: str, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Substitute the entry points; restore them on exit.  A target
        the program no longer has is skipped: its time then stays in the
        enclosing span, and a later change need not edit this file."""
        saved = []
        try:
            for owner, attr, layer in _targets():
                if not hasattr(owner, attr):
                    continue
                saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
                setattr(owner, attr, self._wrap(getattr(owner, attr), layer, attr))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def self_ms(self) -> dict[str, float]:
        """Per layer: total span time minus the time their direct child
        spans cover (children run on the parent's thread, inside it)."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            child_time[s.parent] += s.dur
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.layer] += (s.dur - child_time.get(s.id, 0.0)) * 1e3
        return dict(out)

    def total_ms(self, layer: str, names=None) -> float:
        return sum(s.dur for s in self.spans
                   if s.layer == layer and (names is None or s.name in names)) * 1e3

    def count(self, layer: str, names) -> int:
        return sum(1 for s in self.spans if s.layer == layer and s.name in names)

    # -- export --------------------------------------------------------
    def write_chrome(self, path) -> None:
        events = [
            {"name": s.name, "cat": s.layer, "ph": "X", "pid": 1, "tid": s.tid,
             "ts": s.t0 * 1e6, "dur": s.dur * 1e6,
             "args": {"op": s.op, "id": s.id, "parent": s.parent}}
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
