"""Pluggable execution backends for the machine layer.

See :mod:`repro.machine.backends.base` for the protocol.  Real backends
are layered: a *transport* (:mod:`.transport`: framing over pipes or
sockets), the shared *worker runtime* (:mod:`.runtime`: command loop,
resident chunks, exchange schedules, driver dispatch), and thin
*launchers* (:mod:`.mp`, :mod:`.tcp`).  Select a backend by name when
building a machine::

    >>> from repro.machine import Machine
    >>> m = Machine(p=4, backend="sim")      # modeled, in-process (default)
    >>> m = Machine(p=4, backend="mp")       # one worker process per PE
    >>> m = Machine(p=4, backend="tcp")      # socket workers (multi-host capable)

or pass a :class:`Backend` instance for full control.  New backends
(e.g. async or MPI transports) register by name via
:func:`register_backend`.
"""

from __future__ import annotations

from typing import Callable

from .base import Backend, ChunkRef, LockstepError, PendingValues, PureStep
from .mp import MultiprocessingBackend
from .runtime import WorkerFailure
from .sim import SimBackend
from .tcp import TcpBackend

__all__ = [
    "Backend",
    "ChunkRef",
    "LockstepError",
    "PendingValues",
    "PureStep",
    "SimBackend",
    "MultiprocessingBackend",
    "TcpBackend",
    "WorkerFailure",
    "available_backends",
    "make_backend",
    "register_backend",
]

_REGISTRY: dict[str, Callable[[int], Backend]] = {
    SimBackend.name: SimBackend,
    MultiprocessingBackend.name: MultiprocessingBackend,
    TcpBackend.name: TcpBackend,
}


def register_backend(name: str, factory: Callable[[int], Backend]) -> None:
    """Register ``factory(p) -> Backend`` under ``name`` (overwrites)."""
    _REGISTRY[name] = factory


def available_backends() -> list[str]:
    """Names accepted by ``Machine(backend=...)``."""
    return sorted(_REGISTRY)


def make_backend(
    spec, p: int, command_timeout: float | None = None, faults=None,
) -> Backend:
    """Resolve a backend spec: a name, a ``Backend`` instance, or None.

    Instances are checked for a matching PE count; names are looked up
    in the registry (``None`` means the default ``"sim"``).

    ``command_timeout`` is the per-command deadline before a
    non-answering pool raises :class:`WorkerFailure`; ``faults``
    installs a deterministic :class:`~repro.machine.faults.FaultPlan`
    (or spec string).  Only factories whose ``is_real`` is true get
    them; any other factory -- notably ``sim``, which has no processes
    to lose -- is called with ``p`` alone.  Every backend checks SPMD
    lockstep (see :class:`LockstepError`); there is nothing to switch
    on.
    """
    if spec is None:
        spec = SimBackend.name
    if isinstance(spec, Backend):
        if spec.p != p:
            raise ValueError(
                f"backend was built for p={spec.p}, machine has p={p}"
            )
        if command_timeout is not None and hasattr(spec, "command_timeout"):
            spec.command_timeout = float(command_timeout)
        return spec
    try:
        factory = _REGISTRY[spec]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown backend {spec!r}; available: {available_backends()}"
        ) from None
    if not getattr(factory, "is_real", False):
        return factory(p)
    return factory(p, command_timeout=command_timeout, faults=faults)
