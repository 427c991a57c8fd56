"""Unit tests: the one collective table.

Every collective kind exists once per side -- ``spmd_collective`` is the
in-process reference, ``_run_collective`` the worker schedule -- and is
reachable three ways: list-of-p through :meth:`Machine.collective`
(spelled by ``tests/support/listp.py``), yielded from an SPMD kernel,
and the reference called directly.  For every kind, p
in {1, 2, 3, 5, 8} and every root / sender-receiver pair the three must
agree on sim, mp and tcp (every backend checking lockstep), and on real
backends each costs every rank exactly the messages recorded at 8ec87bb
in ``tests/support/collective_msgs.json`` (``PYTHONPATH=src:. python
tests/unit/test_collective_table.py`` from the repository root rewrites
it through the list-of-p calls alone; do that only from the parent of a
change that means to move a schedule).
"""

import json
from collections import deque
from pathlib import Path

import pytest

from repro.machine import Machine
from repro.machine.backends import LockstepError
from repro.machine.backends.base import spmd_collective
from repro.machine.backends.runtime import Comm, WorkerLinks, _execute

from tests.support import listp

MSGS_PATH = Path(__file__).parents[1] / "support" / "collective_msgs.json"
PS = (1, 2, 3, 5, 8)
ROOTED = ("broadcast", "reduce", "gather", "scatter")
KINDS = ROOTED + (
    "allreduce", "scan", "allreduce_exscan", "reduce_allgather",
    "allgather", "alltoall", "p2p", "sendrecv",
)
#: what the worker's command loop dispatched on before the table was one
REMOVED_COMMANDS = (
    "mapres", "map", "bcast", "reduce", "allreduce", "scan",
    "allreduce_exscan", "reduce_allgather", "gather", "allgather",
    "scatter", "alltoall", "p2p",
)


def _yield_step(rank, *request):
    """The whole table as a kernel: yield the request, return the answer."""
    return (yield request)


def _mixed_step(rank, first, rest):
    return (yield first if rank == 0 else rest)  # repro-lint: disable=RL001 -- deliberately divergent fixture


def _vals(p):
    # float sums: a changed combination order shows in the last bits
    return [0.1 * (i + 1) for i in range(p)]


def _targets(kind, p):
    if kind in ROOTED:
        return [(root,) for root in range(p)]
    if kind == "p2p":
        return [(src, dst) for src in range(p) for dst in range(p)]
    return [()]


def _requests(kind, p, target):
    """Rank i's yield for ``kind``; the payloads `_via_machine` passes."""
    v = _vals(p)
    if kind == "broadcast":
        (root,) = target
        return [(kind, v[root] if i == root else None, root) for i in range(p)]
    if kind == "reduce":
        return [(kind, v[i], "sum", target[0]) for i in range(p)]
    if kind in ("allreduce", "scan"):
        return [(kind, v[i], "sum") for i in range(p)]
    if kind == "allreduce_exscan":
        return [(kind, v[i], "sum", 0.0) for i in range(p)]
    if kind == "reduce_allgather":
        return [(kind, v[i], "sum", [i, i + 1]) for i in range(p)]
    if kind == "gather":
        return [(kind, v[i], target[0]) for i in range(p)]
    if kind == "allgather":
        return [(kind, v[i]) for i in range(p)]
    if kind == "scatter":
        (root,) = target
        pieces = [10 * j for j in range(p)]
        return [(kind, pieces if i == root else None, root) for i in range(p)]
    if kind == "alltoall":
        return [(kind, [(i, j) for j in range(p)]) for i in range(p)]
    if kind == "p2p":
        src, dst = target
        return [(kind, ("msg", src) if i == src else None, src, dst)
                for i in range(p)]
    # sendrecv: a ring, every rank hears from its left neighbour
    return [
        (kind,
         [(i, j) if j == (i + 1) % p and j != i else None for j in range(p)],
         [(i - 1) % p] if p > 1 else [])
        for i in range(p)
    ]


def _via_machine(m, kind, target):
    """The same collective spelled list-of-p, as per-rank results (None
    for ``sendrecv``, which has no list-of-p form)."""
    p = m.p
    reqs = _requests(kind, p, target)
    payloads = [r[1] for r in reqs]
    if kind == "broadcast":
        return listp.broadcast(m, payloads[target[0]], root=target[0])
    if kind == "reduce":
        return listp.reduce(m, payloads, op="sum", root=target[0])
    if kind == "allreduce":
        return m.allreduce(payloads, op="sum")
    if kind == "scan":
        return listp.scan(m, payloads, op="sum")
    if kind == "allreduce_exscan":
        return list(zip(*listp.allreduce_exscan(m, payloads, op="sum", initial=0.0)))
    if kind == "reduce_allgather":
        return list(zip(*listp.reduce_allgather(m, 
            payloads, [r[3] for r in reqs], op="sum")))
    if kind == "gather":
        return listp.gather(m, payloads, root=target[0])
    if kind == "allgather":
        return m.allgather(payloads)
    if kind == "scatter":
        return listp.scatter(m, payloads[target[0]], root=target[0])
    if kind == "alltoall":
        return listp.alltoall(m, payloads)
    if kind == "p2p":
        src, dst = target
        out = [None] * p
        out[dst] = listp.send(m, src, dst, payloads[src])
        return out
    return None


def _via_kernel(m, kind, target):
    return m.backend.run_spmd(
        _yield_step, [], args=_requests(kind, m.p, target))[1]


def _msgs(m, call):
    before = m.backend.worker_message_counts()
    out = call()
    after = m.backend.worker_message_counts()
    return out, [a - b for a, b in zip(after, before)]


def _key(kind, p, target):
    return "/".join([kind, str(p), *map(str, target)])


MACHINES = [
    pytest.param((backend, p), id=f"{backend}-p{p}")
    for backend in ("sim", "mp", "tcp") for p in PS
]


@pytest.fixture(scope="module", params=MACHINES)
def machine(request):
    backend, p = request.param
    with Machine(p=p, seed=1, backend=backend) as m:
        yield m


@pytest.fixture(scope="module")
def recorded_msgs():
    return json.loads(MSGS_PATH.read_text())


@pytest.mark.parametrize("kind", KINDS)
def test_three_spellings_agree(machine, recorded_msgs, kind):
    m = machine
    for target in _targets(kind, m.p):
        reference = spmd_collective(kind, _requests(kind, m.p, target))
        listed, listed_msgs = _msgs(m, lambda: _via_machine(m, kind, target))
        yielded, yielded_msgs = _msgs(m, lambda: _via_kernel(m, kind, target))
        assert yielded == reference, target
        if listed is not None:
            assert listed == reference, target
        if m.backend.is_real:
            want = recorded_msgs[_key(kind, m.p, target)]
            assert yielded_msgs == want, target
            if listed is not None:
                assert listed_msgs == want, target


# ----------------------------------------------------------------------
# Lockstep: a kind swap is caught for the new kinds too
# ----------------------------------------------------------------------

@pytest.mark.parametrize("first,rest", [
    (("broadcast", 1.0, 0), ("scan", 1.0, "sum")),
    (("gather", 1.0, 0), ("reduce", 1.0, "sum", 0)),
    (("reduce_allgather", 1.0, "sum", [1]), ("allgather", 1.0)),
    (("scatter", [1, 2, 3], 0), ("p2p", 1.0, 0, 1)),
])
def test_mixed_kinds_raise_on_sim(first, rest):
    with Machine(p=3, seed=1) as m:
        with pytest.raises(LockstepError, match="diverged"):
            m.backend.run_spmd(_mixed_step, [], args=[(first, rest)] * 3)


# swaps that share a wire pattern would complete silently unless the
# driver compared the ranks' traces
@pytest.mark.parametrize("first,rest", [
    (("scan", 1.0, "sum"), ("allreduce", 1.0, "sum")),
    (("gather", 1.0, 0), ("reduce", 1.0, "sum", 0)),
])
def test_mixed_kinds_raise_on_mp(first, rest):
    with Machine(p=3, seed=1, backend="mp") as m:
        with pytest.raises(LockstepError, match="rank 1 issued"):
            m.backend.run_spmd(_mixed_step, [], args=[(first, rest)] * 3)
        assert m.allreduce([1, 2, 3]) == [6, 6, 6]  # the pool survives


# ----------------------------------------------------------------------
# The worker runs four command kinds
# ----------------------------------------------------------------------

@pytest.mark.parametrize("command", REMOVED_COMMANDS)
def test_worker_refuses_every_other_command(command):
    comm = Comm(WorkerLinks(0, 1), deque(), {})
    with pytest.raises(ValueError, match="unknown backend command"):
        _execute(comm, (command, "sum", 0, (), None), 1.0, {})


def test_refused_command_leaves_the_pool_usable():
    with Machine(p=2, seed=1, backend="mp") as m:
        with pytest.raises(RuntimeError, match="unknown backend command"):
            m.backend._run(("allreduce", "sum"), [1, 2])
        assert m.allreduce([1, 2]) == [3, 3]


# ----------------------------------------------------------------------
# Validation comes before charging and before anything is sent
# ----------------------------------------------------------------------

def _state(m):
    return m.report(), getattr(m.backend, "_seq", None)


@pytest.fixture(scope="module", params=["sim", "mp"])
def pair(request):
    with Machine(p=2, seed=1, backend=request.param) as m:
        m.allreduce([1, 2])  # start the pool
        yield m


@pytest.mark.parametrize("root", [-1, 2, 5])
@pytest.mark.parametrize("call", [
    lambda m, root: listp.broadcast(m, 1, root=root),
    lambda m, root: listp.reduce(m, [1, 2], root=root),
    lambda m, root: listp.gather(m, [1, 2], root=root),
    lambda m, root: listp.gather(m, [1, 2], root=root, mode="direct"),
    lambda m, root: listp.scatter(m, [1, 2], root=root),
], ids=["broadcast", "reduce", "gather", "gather-direct", "scatter"])
def test_root_out_of_range_is_rejected(pair, call, root):
    before = _state(pair)
    with pytest.raises(ValueError, match=rf"root {root}\b.*p=2"):
        call(pair, root)
    assert _state(pair) == before
    assert pair.allreduce([1, 2]) == [3, 3]


@pytest.mark.parametrize("call", [
    lambda m: m.allreduce([1, 2], op="bogus"),
    lambda m: listp.reduce(m, [1, 2], op="bogus"),
    lambda m: listp.scan(m, [1, 2], op="bogus"),
    lambda m: listp.exscan(m, [1, 2], op="bogus"),
    lambda m: listp.allreduce_exscan(m, [1, 2], op="bogus"),
    lambda m: listp.reduce_allgather(m, [1, 2], [3, 4], op="bogus"),
    lambda m: listp.gather(m, [1, 2], mode="x"),
    lambda m: listp.alltoall(m, [[1, 2], [3, 4]], mode="x"),
], ids=["allreduce", "reduce", "scan", "exscan", "allreduce_exscan",
        "reduce_allgather", "gather-mode", "alltoall-mode"])
def test_rejected_call_charges_and_sends_nothing(pair, call):
    before = _state(pair)
    with pytest.raises(ValueError, match="unknown"):
        call(pair)
    assert _state(pair) == before


def test_unpicklable_op_is_rejected_before_a_seq_is_consumed():
    """A burnt seq would stall the ack frontier: the op is probed before
    anything is charged or numbered, and the pool carries on."""
    with Machine(p=2, seed=1, backend="mp") as m:
        m.allreduce([1, 2])
        before = _state(m)
        with pytest.raises(TypeError, match="not picklable"):
            m.allreduce([1, 2], op=lambda a, b: a + b)
        assert _state(m) == before
        assert m.allreduce([1, 2]) == [3, 3]
        assert m.backend._acked == m.backend._seq
    with Machine(p=2, seed=1) as sim:  # nothing to cross in process
        assert sim.allreduce([1, 2], op=lambda a, b: a + b) == [3, 3]


if __name__ == "__main__":
    table = {}
    for p in PS:
        with Machine(p=p, seed=1, backend="mp") as m:
            m.allreduce(list(range(p)))  # start the pool
            for kind in KINDS:
                call = _via_kernel if kind == "sendrecv" else _via_machine
                for target in _targets(kind, p):
                    _, table[_key(kind, p, target)] = _msgs(
                        m, lambda: call(m, kind, target))
    rows = [f" {json.dumps(k)}: {json.dumps(table[k])}" for k in sorted(table)]
    MSGS_PATH.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"recorded {len(table)} rows at {MSGS_PATH}")
