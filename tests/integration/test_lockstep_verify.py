"""Integration: verify=True catches rank-divergent SPMD kernels.

The dangerous divergence class is a *kind swap*: allgather, allreduce
and allreduce_exscan all ride the same tree exchange inside the worker
runtime, so a kernel that yields different kinds on different ranks
completes silently with wrong data instead of deadlocking.  With
``Machine(..., verify=True)`` the driver must instead raise a
:class:`LockstepError` naming the command and the diverging rank -- on
both real transports -- while lockstep kernels run unperturbed with
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


def _chunks(p):
    return [np.arange(5, dtype=np.int64) + r for r in range(p)]


@pytest.mark.parametrize("backend,p", GRID)
def test_divergent_kernel_raises_with_diagnostic(backend, p):
    if p < 2:
        pytest.skip("divergence needs a second rank")
    with Machine(p=p, seed=3, backend=backend, verify=True) as m:
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
    with Machine(p=p, seed=3, backend=backend, verify=True) as m:
        ref = m.backend.put_chunks(_chunks(p))
        with pytest.raises(LockstepError, match="rank 1 issued"):
            m.backend.run_spmd(op_swapped_kernel, [ref], n_out=1)


@pytest.mark.parametrize("backend,p", GRID)
def test_lockstep_kernel_unperturbed(backend, p):
    """verify=True must not change results: compare against sim."""
    with Machine(p=p, seed=3) as sim:
        ref = sim.backend.put_chunks(_chunks(p))
        _, expected = sim.backend.run_spmd(lockstep_kernel, [ref], n_out=1)
    with Machine(p=p, seed=3, backend=backend, verify=True) as m:
        ref = m.backend.put_chunks(_chunks(p))
        out_refs, values = m.backend.run_spmd(lockstep_kernel, [ref], n_out=1)
        assert values == expected
        # output chunks were stored despite the verify wrapper
        chunks = m.backend.get_chunks(out_refs[0])
        for r, c in enumerate(chunks):
            np.testing.assert_array_equal(c, _chunks(p)[r])


def test_sim_raises_lockstep_error_by_construction():
    """The sim data plane needs no verify flag: it sees every rank's
    yield and raises the same exception type."""
    with Machine(p=4, seed=3) as m:
        ref = m.backend.put_chunks(_chunks(4))
        with pytest.raises(LockstepError, match="diverged"):
            m.backend.run_spmd(kind_swapped_kernel, [ref], n_out=1)


def test_verify_off_by_default():
    with Machine(p=2, seed=3, backend="mp") as m:
        assert m.backend.verify is False
    with Machine(p=2, seed=3, backend="mp", verify=True) as m:
        assert m.backend.verify is True


@pytest.mark.parametrize("backend", ["mp", "tcp"])
def test_sendrecv_sender_sets_are_rank_personal(backend):
    """A sparse exchange names different senders on different ranks;
    that is its shape, not a divergence (verify=True used to reject
    every redistribution)."""
    from repro.machine import DistArray
    from repro.redistribution import redistribute

    with Machine(p=4, seed=3, backend=backend, verify=True) as m:
        sizes = [100, 10, 5, 300]
        data = DistArray(m, [np.arange(n) for n in sizes], resident=True)
        out, _ = redistribute(m, data)
        assert int(out.sizes().max()) <= -(-sum(sizes) // 4)
