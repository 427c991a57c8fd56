"""The in-process simulated data plane (the default backend).

Everything is inherited: :class:`~repro.machine.backends.base.Backend`
resolves collectives through the reference table
(:func:`~repro.machine.backends.base.spmd_collective` -- reductions in
binomial-tree order, prefix combines in linear rank order, so
floating-point rounding is reproducible and matches what the modeled
tree schedule would produce), keeps resident chunks in a driver-side
store and drives SPMD steps in lockstep in the driver process.

Because nothing leaves the process, results may alias the inputs (a
broadcast returns ``[value] * p``); callers must treat returned objects
as read-only, exactly as :mod:`repro.machine.comm` documents.
"""

from __future__ import annotations

from .base import Backend

__all__ = ["SimBackend"]


class SimBackend(Backend):
    """Zero-copy in-process execution; all time is modeled, not real."""

    name = "sim"
    is_real = False
