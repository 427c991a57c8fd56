"""Concurrent query serving over one resident worker pool.

``repro serve`` turns a :class:`~repro.machine.Machine` (with its
DistArray chunks pinned resident in a real backend's workers) into a
long-lived query server:

* :class:`~repro.serve.engine.QueryEngine` owns the machine on a
  dedicated engine thread and **fuses** compatible queries that arrive
  within a short admission window into a single SPMD command sequence
  -- rank queries (``select`` / ``quantile`` / ``topk``) on the same
  dataset become ONE :func:`~repro.selection.multi_select` call, the
  query-level generalization of its segment-level fusion;
* :mod:`~repro.serve.server` wraps the engine in an asyncio JSON-lines
  TCP front-end, so any number of clients multiplex onto the one
  worker pool;
* :mod:`~repro.serve.client` is the matching blocking client;
* ``python -m repro.serve.smoke`` drives a full concurrent round trip
  (used by CI).

The engine thread is the only place the machine is touched, so the
backend sees one command at a time, in one well-ordered issue stream,
even under concurrent clients.
"""

from .client import ServeClient
from .engine import OverloadedError, QueryEngine, QueryError, default_datasets

__all__ = ["OverloadedError", "QueryEngine", "QueryError", "ServeClient",
           "default_datasets"]
