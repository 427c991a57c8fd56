"""List-of-p spellings of :meth:`Machine.collective`, for tests.

Each function takes per-PE values (or the one holder's value), builds
the request every rank would yield and returns what the collective
returns, unpacked the way a caller reads it (a send's payload at its
destination, the two halves of a fused kind).  They hold no logic of
their own beyond that: charging, checking and the data plane are the
machine's.
"""

from __future__ import annotations

__all__ = [
    "allreduce_exscan", "alltoall", "barrier", "broadcast", "exscan",
    "gather", "reduce", "reduce_allgather", "scan", "scatter", "send",
]

_GATHER = {"tree": "gather", "direct": "gather_direct"}
_ALLTOALL = {"direct": "alltoall", "hypercube": "alltoall_hc"}


def _from(m, kind: str, holder, payload, *params) -> list:
    """Requests where only ``holder`` contributes a payload (an
    out-of-range holder is left for the machine to refuse)."""
    requests = [(kind, None, *params)] * m.p
    if isinstance(holder, int) and 0 <= holder < m.p:
        requests[holder] = (kind, payload, *params)
    return requests


def broadcast(m, value, root: int = 0) -> list:
    return m.collective("broadcast", _from(m, "broadcast", root, value, root))


def reduce(m, values, op="sum", root: int = 0) -> list:
    return m.collective("reduce", [("reduce", v, op, root) for v in values])


def scan(m, values, op="sum") -> list:
    return m.collective("scan", [("scan", v, op) for v in values])


def exscan(m, values, op="sum", initial=0) -> list:
    return [initial] + scan(m, values, op)[:-1]


def allreduce_exscan(m, values, op="sum", initial=0) -> tuple[list, list]:
    pairs = m.collective(
        "allreduce_exscan", [("allreduce_exscan", v, op, initial) for v in values])
    return [t for t, _ in pairs], [pre for _, pre in pairs]


def gather(m, values, root: int = 0, mode: str = "tree") -> list:
    if mode not in _GATHER:
        raise ValueError(f"unknown gather mode {mode!r}")
    return m.collective(_GATHER[mode], [("gather", v, root) for v in values])


def reduce_allgather(m, values, payloads, op="sum") -> tuple[list, list]:
    if len(values) != len(payloads):
        raise ValueError("reduce_allgather expects one contribution per PE")
    pairs = m.collective("reduce_allgather", [
        ("reduce_allgather", v, op, w) for v, w in zip(values, payloads)])
    return [t for t, _ in pairs], [g for _, g in pairs]


def scatter(m, pieces, root: int = 0) -> list:
    return m.collective("scatter", _from(m, "scatter", root, pieces, root))


def alltoall(m, matrix, mode: str = "direct") -> list:
    if mode not in _ALLTOALL:
        raise ValueError(f"unknown alltoall mode {mode!r}")
    return m.collective(_ALLTOALL[mode], [("alltoall", row) for row in matrix])


def send(m, src: int, dst: int, payload):
    """``payload`` from ``src`` as ``dst`` receives it."""
    out = m.collective("p2p", _from(m, "p2p", src, payload, src, dst))
    return out[dst]


def barrier(m) -> None:
    m.collective("barrier", [("barrier",)] * m.p)
