"""Simulated distributed-memory machine substrate.

The paper's algorithms are analysed in a single-ported, full-duplex
message-passing model where a message of ``m`` words costs
``alpha + beta * m``.  This subpackage provides that machine in
simulation:

* :class:`~repro.machine.cost.CostParams` -- the alpha-beta constants and
  analytic collective costs,
* :class:`~repro.machine.comm.Machine` -- ``p`` PEs, RNG streams,
  simulated clocks, communication metering and the collective operations,
* :mod:`~repro.machine.backends` -- pluggable execution backends for the
  collectives' data plane (``"sim"`` in-process, ``"mp"`` one worker
  process per PE),
* :class:`~repro.machine.dist_array.DistArray` -- per-PE NumPy chunks,
* :class:`~repro.machine.metrics.CommMetrics` -- bottleneck-volume
  accounting (the paper's key communication-efficiency metric).
"""

from .backends import (
    Backend,
    ChunkRef,
    MultiprocessingBackend,
    SimBackend,
    WorkerFailure,
    available_backends,
    make_backend,
    register_backend,
)
from .clock import SimClock
from .comm import Machine, MachineReport, PhaseStats, charged
from .cost import FREE_COMMUNICATION, CollectiveCost, CostParams, log2_ceil
from .dist_array import DistArray
from .faults import FaultPlan
from .metrics import CommMetrics, MetricsSnapshot, payload_words

__all__ = [
    "Backend",
    "ChunkRef",
    "CollectiveCost",
    "CommMetrics",
    "CostParams",
    "DistArray",
    "FREE_COMMUNICATION",
    "FaultPlan",
    "Machine",
    "MachineReport",
    "MetricsSnapshot",
    "MultiprocessingBackend",
    "PhaseStats",
    "SimBackend",
    "SimClock",
    "WorkerFailure",
    "available_backends",
    "charged",
    "log2_ceil",
    "make_backend",
    "payload_words",
    "register_backend",
]
