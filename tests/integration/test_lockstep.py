"""Integration: every backend catches rank-divergent SPMD kernels.

The dangerous divergence classes are a *kind swap* and an *op swap*:
allgather, allreduce and allreduce_exscan all ride the same tree
exchange inside the worker runtime, so a kernel that yields different
kinds or reduction ops on different ranks completes silently with wrong
data instead of deadlocking.  On a default ``Machine`` the driver must
instead raise a :class:`LockstepError` naming the command and the
diverging rank -- on both real transports and on sim, which also
catches a root swap -- while lockstep kernels run unperturbed with
bit-identical results.

Kernels live at module level here; a lambda or closure is shipped by
value and traced just the same
(``tests/unit/test_resident_chunks.py::TestClosureCallbacks``).  Only a
callback that cannot be rebuilt in a worker runs driver-side, where the
in-process lockstep check applies instead.
"""

import numpy as np
import pytest

from repro.machine import Machine
from repro.machine.backends import LockstepError
from repro.machine.backends.base import _collective_signature

GRID = [
    pytest.param("mp", 4, id="mp-p4"),
    pytest.param("mp", 3, id="mp-p3"),
    pytest.param("tcp", 4, id="tcp-p4"),
]


def lockstep_kernel(rank, chunk):
    total = yield ("allreduce", float(chunk.sum()), "sum")
    sizes = yield ("allgather", int(chunk.size))
    return (chunk, (total, tuple(sizes)))


def kind_swapped_kernel(rank, chunk):
    # rank 1 swaps allreduce for allgather: same arity, same wire
    # pattern, silently-wrong results without verification
    s = float(chunk.sum())
    if rank == 1:  # repro-lint: disable=RL001 -- deliberately divergent fixture
        total = yield ("allreduce", s, "sum")
    else:
        total = yield ("allgather", s)
    return (chunk, total)


def op_swapped_kernel(rank, chunk):
    op = "max" if rank == 1 else "sum"  # repro-lint: disable=RL001 -- deliberately divergent fixture
    total = yield ("allreduce", float(chunk.sum()), op)
    return (chunk, total)


def root_swapped_kernel(rank, chunk):
    root = 1 if rank == 1 else 0  # repro-lint: disable=RL001 -- deliberately divergent fixture
    got = yield ("gather", float(chunk.sum()), root)
    return (chunk, got)


def early_return_kernel(rank, chunk):
    yield ("allreduce", 1.0, "sum")
    if rank != 2:  # repro-lint: disable=RL001 -- deliberately divergent fixture
        yield ("allgather", 1)
    return (chunk, None)


def _chunks(p):
    return [np.arange(5, dtype=np.int64) + r for r in range(p)]


@pytest.mark.parametrize("backend,p", GRID)
def test_divergent_kernel_raises_with_diagnostic(backend, p):
    if p < 2:
        pytest.skip("divergence needs a second rank")
    with Machine(p=p, seed=3, backend=backend) as m:
        ref = m.backend.put_chunks(_chunks(p))
        with pytest.raises(LockstepError) as exc:
            m.backend.run_spmd(kind_swapped_kernel, [ref], n_out=1)
        msg = str(exc.value)
        assert "seq" in msg  # names the command
        assert "rank(s) [1]" in msg  # names the diverging rank
        assert "allreduce" in msg and "allgather" in msg
        # the pool survives the diagnostic: the divergent exchange
        # completed on the wire, so the next command runs normally
        _, values = m.backend.run_spmd(lockstep_kernel, [ref], n_out=1)
        assert all(v == values[0] for v in values)


@pytest.mark.parametrize("backend,p", GRID)
def test_op_divergence_is_caught_too(backend, p):
    if p < 2:
        pytest.skip("divergence needs a second rank")
    with Machine(p=p, seed=3, backend=backend) as m:
        ref = m.backend.put_chunks(_chunks(p))
        with pytest.raises(LockstepError, match="rank 1 issued"):
            m.backend.run_spmd(op_swapped_kernel, [ref], n_out=1)
        _, values = m.backend.run_spmd(lockstep_kernel, [ref], n_out=1)
        assert all(v == values[0] for v in values)


@pytest.mark.parametrize("backend,p", GRID)
def test_lockstep_kernel_unperturbed(backend, p):
    """The check must not change results: compare against sim."""
    with Machine(p=p, seed=3) as sim:
        ref = sim.backend.put_chunks(_chunks(p))
        _, expected = sim.backend.run_spmd(lockstep_kernel, [ref], n_out=1)
    with Machine(p=p, seed=3, backend=backend) as m:
        ref = m.backend.put_chunks(_chunks(p))
        out_refs, values = m.backend.run_spmd(lockstep_kernel, [ref], n_out=1)
        assert values == expected
        # output chunks were stored although the results carry traces
        chunks = m.backend.get_chunks(out_refs[0])
        for r, c in enumerate(chunks):
            np.testing.assert_array_equal(c, _chunks(p)[r])


@pytest.mark.parametrize("kernel,diagnostic", [
    (kind_swapped_kernel, "rank(s) [1] diverged from rank 0; first "
     "divergence at collective #0: rank 1 issued ('allreduce', 'sum')"),
    (op_swapped_kernel, "collective #0: rank 1 issued ('allreduce', 'max')"),
    (root_swapped_kernel, "collective #0: rank 1 issued ('gather', 1)"),
    (early_return_kernel, "rank(s) [2] diverged from rank 0; first "
     "divergence at collective #1: rank 2 issued <kernel returned>"),
])
def test_sim_raises_at_the_diverging_collective(kernel, diagnostic):
    """The sim data plane sees every rank's yield and compares their
    signatures -- kind, op and root -- at each collective."""
    with Machine(p=4, seed=3) as m:
        ref = m.backend.put_chunks(_chunks(4))
        with pytest.raises(LockstepError, match="diverged") as exc:
            m.backend.run_spmd(kernel, [ref], n_out=1)
        assert diagnostic in str(exc.value)


@pytest.mark.parametrize("backend", ["mp", "tcp"])
def test_sendrecv_sender_sets_are_rank_personal(backend):
    """A sparse exchange names different senders on different ranks;
    that is its shape, not a divergence."""
    from repro.machine import DistArray
    from repro.redistribution import redistribute

    with Machine(p=4, seed=3, backend=backend) as m:
        sizes = [100, 10, 5, 300]
        data = DistArray(m, [np.arange(n) for n in sizes], resident=True)
        out, _ = redistribute(m, data)
        assert int(out.sizes().max()) <= -(-sum(sizes) // 4)


def one_collective(rank, req):
    return (yield req)


# op swaps keep the wire pattern of the exchange, so they complete on
# the real transports; only the traces tell them apart
OP_SWAPS = {
    "reduce": (("reduce", 2.0, "sum", 0), ("reduce", 2.0, "max", 0)),
    "allreduce": (("allreduce", 2.0, "sum"), ("allreduce", 2.0, "min")),
    "scan": (("scan", 2.0, "sum"), ("scan", 2.0, "max")),
    "allreduce_exscan": (("allreduce_exscan", 2.0, "sum", 0.0),
                         ("allreduce_exscan", 2.0, "max", 0.0)),
    "reduce_allgather": (("reduce_allgather", 2.0, "sum", 1),
                         ("reduce_allgather", 2.0, "max", 1)),
}


@pytest.fixture(scope="module", params=["mp", "tcp"])
def pool(request):
    with Machine(p=3, seed=3, backend=request.param, command_timeout=30) as m:
        yield m


@pytest.mark.parametrize("kind", sorted(OP_SWAPS))
def test_op_swap_of_every_reducing_kind_is_caught(pool, kind):
    good, bad = OP_SWAPS[kind]
    with pytest.raises(LockstepError) as exc:
        pool.backend.run_spmd(one_collective, [], args=[(good,), (bad,), (good,)])
    msg = str(exc.value)
    assert "seq" in msg and "rank(s) [1]" in msg
    assert msg.endswith(
        f"collective #0: rank 1 issued {_collective_signature(bad)} "
        f"where rank 0 issued {_collective_signature(good)}"
    )
    # the same collective in lockstep runs normally on the same pool
    values = pool.backend.run_spmd(one_collective, [], args=[(good,)] * 3)[1]
    with Machine(p=3, seed=3) as sim:
        assert values == sim.backend.run_spmd(one_collective, [], args=[(good,)] * 3)[1]


def _resident(m):
    ref = m.backend.put_chunks(_chunks(m.p))
    out_refs, values = m.backend.run_spmd(lockstep_kernel, [ref], n_out=1)
    return out_refs[0], values


@pytest.mark.parametrize("backend", ["mp", "tcp"])
def test_recovery_replay_is_checked(backend, monkeypatch):
    """A recovery replays the lineage of the live refs; every replayed
    command's traces go through the same check as the first run."""
    from repro.machine import FaultPlan, WorkerFailure
    from repro.machine.backends import runtime

    with Machine(p=2, seed=3, backend=backend) as scratch:
        _resident(scratch)
        kill_seq = scratch.backend._seq + 1  # the allreduce below
    with Machine(p=2, seed=3, backend=backend, command_timeout=10,
                 faults=FaultPlan().kill(1, seq=kill_seq)) as m:
        out, values = _resident(m)
        with pytest.raises(WorkerFailure):
            m.allreduce([1.0, 1.0])
        checked = []
        check = runtime._check_lockstep

        def spy(traces, where):
            checked.append((where, m.backend._recovering))
            return check(traces, where)

        monkeypatch.setattr(runtime, "_check_lockstep", spy)
        m.recover()
        assert checked and all(recovering for _, recovering in checked)
        for r, c in enumerate(m.backend.get_chunks(out)):
            np.testing.assert_array_equal(c, _chunks(2)[r])
        assert m.backend.run_spmd(lockstep_kernel, [out], n_out=1)[1] == values
