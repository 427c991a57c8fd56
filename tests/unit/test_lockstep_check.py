"""Unit: the lockstep check every backend runs on every SPMD command.

``_collective_signature`` reduces one yielded collective to what every
rank must agree on -- its kind plus the reduction op and the root /
endpoints -- and leaves the per-rank payload out.  ``_check_lockstep``
compares the ranks' traces of signatures and names the first diverging
rank and collective.  The sim data plane runs that comparison at every
collective, so a planted swap of any shape field raises there before
the exchange executes.
"""

import pytest

from repro.machine import Machine
from repro.machine.backends import LockstepError
from repro.machine.backends.base import _check_lockstep, _collective_signature


def _longest(a, b):
    return a if len(a) >= len(b) else b


def _shortest(a, b):
    return a if len(a) <= len(b) else b


# (request, the same collective with another rank's payload, signature)
SIGNATURES = {
    "broadcast": (("broadcast", 7, 2), ("broadcast", None, 2), ("broadcast", 2)),
    "reduce": (("reduce", 1.0, "sum", 0), ("reduce", 9.5, "sum", 0),
               ("reduce", "sum", 0)),
    "allreduce": (("allreduce", 1.0, "max"), ("allreduce", -3.0, "max"),
                  ("allreduce", "max")),
    "allreduce-callable": (("allreduce", "ab", _longest),
                           ("allreduce", "xyz", _longest),
                           ("allreduce", "_longest")),
    "scan": (("scan", 3, "sum"), ("scan", 4, "sum"), ("scan", "sum")),
    "allreduce_exscan": (("allreduce_exscan", 1.0, "sum", 0.0),
                         ("allreduce_exscan", 5.0, "sum", 9.0),
                         ("allreduce_exscan", "sum")),
    "reduce_allgather": (("reduce_allgather", 1, "sum", [1, 2]),
                         ("reduce_allgather", 2, "sum", None),
                         ("reduce_allgather", "sum")),
    "gather": (("gather", "a", 1), ("gather", "bc", 1), ("gather", 1)),
    "allgather": (("allgather", 1), ("allgather", (2, 3)), ("allgather",)),
    "scatter": (("scatter", [1, 2, 3], 0), ("scatter", None, 0), ("scatter", 0)),
    "alltoall": (("alltoall", [1, 2, 3]), ("alltoall", [4, 5, 6]), ("alltoall",)),
    "sendrecv": (("sendrecv", [None, 1, None], [2]),
                 ("sendrecv", [1, None, 4], [0, 1]), ("sendrecv",)),
    "p2p": (("p2p", "v", 0, 2), ("p2p", None, 0, 2), ("p2p", 0, 2)),
}


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_signature_keeps_the_shape_and_drops_the_payload(name):
    mine, theirs, want = SIGNATURES[name]
    assert _collective_signature(mine) == want
    # a payload, a fused kind's fourth slot or a sender set is personal
    assert _collective_signature(theirs) == want


A, B, C = ("allreduce", "sum"), ("allgather",), ("gather", 0)


def test_equal_traces_pass():
    _check_lockstep([(A, B)], "command seq 1")
    _check_lockstep([(A, B)] * 5, "command seq 1")
    _check_lockstep([(), (), ()], "command seq 1")


def test_every_diverging_rank_is_listed_and_the_first_is_described():
    with pytest.raises(LockstepError) as exc:
        _check_lockstep([(A, B), (A, C), (A, B), (C,)], "command seq 12")
    assert str(exc.value) == (
        "SPMD lockstep violation in command seq 12: rank(s) [1, 3] "
        "diverged from rank 0; first divergence at collective #1: rank 1 "
        f"issued {C} where rank 0 issued {B}"
    )


def test_a_rank_that_returned_early_is_named():
    with pytest.raises(LockstepError) as exc:
        _check_lockstep([(A, B), (A,)], "command seq 3")
    assert str(exc.value).endswith(
        f"collective #1: rank 1 issued <kernel returned> where rank 0 issued {B}"
    )


def test_rank_zero_returning_early_is_a_divergence_of_the_others():
    with pytest.raises(LockstepError) as exc:
        _check_lockstep([(A,), (A, B), (A, B)], "command seq 4")
    msg = str(exc.value)
    assert "rank(s) [1, 2] diverged" in msg
    assert msg.endswith(f"rank 1 issued {B} where rank 0 issued <kernel returned>")


def test_the_command_is_named():
    with pytest.raises(LockstepError, match="in an in-process SPMD step:"):
        _check_lockstep([(A,), (B,)], "an in-process SPMD step")


def _planted(rank, first, second):
    yield first
    yield second


# (rank 0 and 2's second collective, rank 1's): one shape field swapped
SWAPS = {
    "broadcast-root": (("broadcast", 1, 0), ("broadcast", 1, 2)),
    "reduce-op": (("reduce", 1.0, "sum", 0), ("reduce", 1.0, "max", 0)),
    "reduce-root": (("reduce", 1.0, "sum", 0), ("reduce", 1.0, "sum", 1)),
    "allreduce-op": (("allreduce", 1.0, "sum"), ("allreduce", 1.0, "min")),
    "allreduce-callable": (("allreduce", "ab", _longest),
                           ("allreduce", "ab", _shortest)),
    "scan-op": (("scan", 1.0, "sum"), ("scan", 1.0, "max")),
    "allreduce_exscan-op": (("allreduce_exscan", 1.0, "sum", 0.0),
                            ("allreduce_exscan", 1.0, "max", 0.0)),
    "reduce_allgather-op": (("reduce_allgather", 1.0, "sum", 1),
                            ("reduce_allgather", 1.0, "max", 1)),
    "gather-root": (("gather", 1.0, 0), ("gather", 1.0, 2)),
    "scatter-root": (("scatter", [1, 2, 3], 0), ("scatter", [1, 2, 3], 1)),
    "p2p-src": (("p2p", 1, 0, 2), ("p2p", 1, 1, 2)),
    "p2p-dst": (("p2p", 1, 0, 2), ("p2p", 1, 0, 1)),
    "allgather-alltoall": (("allgather", [1, 2, 3]), ("alltoall", [1, 2, 3])),
    "sendrecv-alltoall": (("sendrecv", [None] * 3, []), ("alltoall", [None] * 3)),
}


@pytest.mark.parametrize("name", sorted(SWAPS))
def test_sim_catches_a_swapped_shape_before_the_exchange(name):
    good, bad = SWAPS[name]
    first = ("allreduce", 1.0, "sum")
    args = [(first, good), (first, bad), (first, good)]
    with Machine(p=3, seed=3) as m:
        with pytest.raises(LockstepError) as exc:
            m.backend.run_spmd(_planted, [], args=args)
        assert str(exc.value).endswith(
            f"rank(s) [1] diverged from rank 0; first divergence at "
            f"collective #1: rank 1 issued {_collective_signature(bad)} "
            f"where rank 0 issued {_collective_signature(good)}"
        )
