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
    spec, p: int, verify: bool = False,
    command_timeout: float | None = None, faults=None,
) -> Backend:
    """Resolve a backend spec: a name, a ``Backend`` instance, or None.

    Instances are checked for a matching PE count; names are looked up
    in the registry (``None`` means the default ``"sim"``).

    ``verify=True`` asks the backend to assert SPMD lockstep (every PE
    issuing the identical collective sequence, see
    :class:`LockstepError`).  ``command_timeout`` is the per-command
    deadline before a non-answering pool raises :class:`WorkerFailure`;
    ``faults`` installs a deterministic
    :class:`~repro.machine.faults.FaultPlan` (or spec string).
    Backends whose factory does not take one
    of these keywords -- notably ``sim``, which has no processes to
    lose -- are built without it.
    """
    if spec is None:
        spec = SimBackend.name
    if isinstance(spec, Backend):
        if spec.p != p:
            raise ValueError(
                f"backend was built for p={spec.p}, machine has p={p}"
            )
        if verify and hasattr(spec, "verify"):
            spec.verify = True
        if command_timeout is not None and hasattr(spec, "command_timeout"):
            spec.command_timeout = float(command_timeout)
        return spec
    try:
        factory = _REGISTRY[spec]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown backend {spec!r}; available: {available_backends()}"
        ) from None
    kwargs: dict = {}
    if verify:
        kwargs["verify"] = True
    if command_timeout is not None:
        kwargs["command_timeout"] = float(command_timeout)
    if faults is not None:
        kwargs["faults"] = faults
    while True:
        try:
            return factory(p, **kwargs)
        except TypeError:
            # factory predates a knob: drop the optional ones in turn
            # (sim-style backends take none of them -- they verify and
            # serialize by construction and have no processes to lose)
            for knob in ("faults", "command_timeout", "verify"):
                if knob in kwargs:
                    del kwargs[knob]
                    break
            else:
                raise
