"""Unit: one derivation and one meter table charge both dialects.

``comm.METERS`` holds the alpha-beta model of every charge-log kind,
and ``comm._ENTRIES`` derives one rank's entry from its request and
result.  For every kind a kernel yields, the list-of-p call and a
one-yield kernel sent through ``Machine.run_command`` -- whose runner
appends the derived entry to the kernel's log -- must charge the same:
the ``report()`` tuple and the per-kind metrics (``by_kind``,
``calls``) equal bit for bit, and the results equal, at p in {1, 2, 3,
5, 8}, on clocks staggered so that every synchronization has
stragglers; on mp and tcp workers a call's results and charges equal
sim's.  A ``yield charged(request, *entries)`` whose kinds
``comm.CHARGED_AS`` does not declare for the request's kind raises on
every backend, and the declared pairs are pinned here.  The other kinds are logged by
kernels alone (local work, and schedules of several messages a kernel
declares): the replay differential
(``tests/property/test_replay_differential.py``) holds ``ops``,
``dht_round`` and ``tree_hop``, the ``redistribute`` golden rows
``rounds``.  The linter's list of accepted kinds is the table's keys.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine import Machine, charged
from repro.machine.backends import LockstepError
from repro.machine.comm import _ENTRIES, _REQUEST_KIND, CHARGED_AS, METERS
from tools.repro_lint.checks import ACCEPTED_CHARGE_KINDS

PS = (1, 2, 3, 5, 8)

#: kinds only a kernel logs: there is no request to derive them from
CHARGE_ONLY = {"ops", "dht_round", "tree_hop", "rounds"}


def _vec(r: int) -> np.ndarray:
    """Rank ``r``'s payload: 1-3 words, so sizes differ across ranks."""
    return np.arange(r % 3 + 1, dtype=np.float64) + r


def _held(p: int, kind: str, holder: int, payload, *params) -> list:
    requests = [(kind, None, *params)] * p
    requests[holder] = (kind, payload, *params)
    return requests


#: kind -> requests at p
REQUESTS = {
    "allreduce": lambda p: [("allreduce", _vec(0) + r, "sum") for r in range(p)],
    "scan": lambda p: [("scan", _vec(0) * r, "max") for r in range(p)],
    "allreduce_exscan": lambda p: [
        ("allreduce_exscan", np.array([r, 1.0]), "sum", np.zeros(2)) for r in range(p)],
    "broadcast": lambda p: _held(p, "broadcast", p - 1, _vec(4), p - 1),
    "reduce": lambda p: [("reduce", _vec(0) + r, "sum", p // 2) for r in range(p)],
    "gather": lambda p: [("gather", _vec(r), p - 1) for r in range(p)],
    "gather_direct": lambda p: [("gather", _vec(r), p // 2) for r in range(p)],
    "scatter": lambda p: _held(p, "scatter", p // 2, [_vec(j) for j in range(p)], p // 2),
    "allgather": lambda p: [("allgather", _vec(r)) for r in range(p)],
    "reduce_allgather": lambda p: [
        ("reduce_allgather", float(r), "sum", _vec(r)) for r in range(p)],
    "alltoall": lambda p: [
        ("alltoall", [None if (i + j) % 3 == 0 else _vec(i + j) for j in range(p)])
        for i in range(p)],
    "alltoall_hc": lambda p: [("alltoall", [_vec(i * j) for j in range(p)]) for i in range(p)],
    "p2p": lambda p: _held(p, "p2p", 0, _vec(5), 0, p - 1),
    "barrier": lambda p: [("barrier",)] * p,
}


#: the table kinds a kernel yields bare: ``gather_direct`` and
#: ``alltoall_hc`` charge gather / alltoall requests on another schedule
#: (only a list-of-p call names them), and a barrier moves nothing
YIELDED = sorted(set(_ENTRIES) - set(_REQUEST_KIND) - {"barrier"})


def _one_yield(rank, p, request, take, log):
    """A ``run_command`` kernel: yield this rank's request and return
    its result; the runner logs the entry it derives."""
    return None, (yield request)


def _yielded(m: Machine, requests) -> list:
    return m.run_command(_one_yield, list(requests), n_addrs=0)[1]


def _staggered(p: int) -> Machine:
    m = Machine(p, seed=7)
    m.charge_ops(np.arange(p) * 1000.0)  # stragglers at every sync
    return m


def _model(m: Machine) -> tuple:
    r = m.report()
    return ((r.makespan, r.work_time, r.comm_time, r.bottleneck_words,
             r.bottleneck_startups, r.total_traffic, r.imbalance),
            dict(m.metrics.by_kind), dict(m.metrics.calls),
            m.clock.t.tolist())


def _plain(x):
    """Results with arrays as lists, so two dialects compare with ``==``."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def test_the_table_is_the_lint_list():
    assert set(METERS) == ACCEPTED_CHARGE_KINDS


def test_every_kind_is_a_collective_or_logged_by_kernels_alone():
    assert set(_ENTRIES) <= set(METERS)
    assert set(METERS) - set(_ENTRIES) == CHARGE_ONLY
    assert set(REQUESTS) == set(_ENTRIES)


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("kind", YIELDED)
def test_a_yield_charges_what_the_collective_charges(kind, p):
    requests = REQUESTS[kind](p)
    direct, kernel = _staggered(p), _staggered(p)
    got = direct.collective(kind, requests)
    results = _yielded(kernel, requests)
    assert _model(direct) == _model(kernel)
    assert _plain(got) == _plain(results)


@pytest.fixture(scope="module", params=["mp", "tcp"])
def twins(request):
    with Machine(3, seed=7, backend=request.param) as real:
        yield Machine(3, seed=7), real


@pytest.mark.parametrize("kind", sorted(REQUESTS))
def test_mp_equals_sim(twins, kind):
    sim, real = twins
    requests = REQUESTS[kind](3)
    assert _plain(real.collective(kind, requests)) == _plain(sim.collective(kind, requests))
    assert _model(real) == _model(sim)


@pytest.mark.parametrize("kind", YIELDED)
def test_a_yield_on_workers_charges_what_the_collective_charges_on_sim(twins, kind):
    sim, real = twins
    requests = REQUESTS[kind](3)
    assert _plain(_yielded(real, requests)) == _plain(sim.collective(kind, requests))
    assert _model(real) == _model(sim)


def test_the_declared_differences_are_pinned():
    """A new deliberate difference between what runs and what the
    model charges is a new pair here."""
    assert {kind: sorted(models) for kind, models in CHARGED_AS.items()} == {
        "allgather": ["allgather", "gather"],
        "allreduce": ["allreduce"],
        "alltoall": ["alltoall"],
        "sendrecv": ["allreduce", "alltoall", "dht_round", "gather_direct", "p2p",
                     "rounds", "scan", "tree_hop"],
    }
    assert set().union(*CHARGED_AS.values()) <= set(METERS)


def _declared(rank, p, value, take, log, entry):
    return None, (yield charged(("allgather", value), entry))


def _bare_sendrecv(rank, p, value, take, log):
    return None, (yield ("sendrecv", [value] * p, tuple(range(p))))


@pytest.mark.parametrize("backend", ["sim", "mp", "tcp"])
def test_a_declared_charge_replaces_the_derived_one_and_must_be_listed(backend):
    with Machine(3, seed=7, backend=backend) as m, Machine(3, seed=7) as gather:
        assert _plain(m.run_command(_declared, [1.0, 2.0, 3.0], (("gather", 1, 0),),
                                    n_addrs=0)[1]) == [[1.0, 2.0, 3.0]] * 3
        gather.collective("gather", [("gather", 1.0, 0)] * 3)
        assert _model(m) == _model(gather)
        for kernel, args, match in (
                (_declared, (("scan", 1),), "not a difference CHARGED_AS declares"),
                (_bare_sendrecv, (), "no charge derives from a 'sendrecv' request")):
            with pytest.raises((ValueError, RuntimeError), match=match):
                m.run_command(kernel, [1.0, 2.0, 3.0], args, n_addrs=0)
            assert _model(m) == _model(gather)  # charged nothing


@pytest.mark.parametrize("kind", sorted(REQUESTS))
def test_a_refused_collective_charges_nothing(kind):
    m = Machine(3, seed=7)
    before = _model(m)
    requests = REQUESTS[kind](3)
    with pytest.raises(ValueError):
        m.collective(kind, requests[:2])
    with pytest.raises(ValueError):
        m.collective(kind, [("nope", None)] * 3)
    assert _model(m) == before


def test_unknown_kind_is_refused():
    with pytest.raises(ValueError, match="unknown collective kind"):
        Machine(2).collective("exscan", [("exscan", 1, "sum")] * 2)


def test_diverging_roots_are_refused_before_charging():
    m = Machine(3, seed=7)
    before = _model(m)
    with pytest.raises(LockstepError):
        m.collective("gather", [("gather", 1, 0), ("gather", 1, 1), ("gather", 1, 0)])
    assert _model(m) == before


def test_the_two_shims_are_collective_calls():
    a, b = Machine(4, seed=7), Machine(4, seed=7)
    assert a.allreduce([1, 2, 3, 4], "max") == b.collective(
        "allreduce", [("allreduce", v, "max") for v in (1, 2, 3, 4)])
    assert a.allgather([1, 2, 3, 4]) == b.collective(
        "allgather", [("allgather", v) for v in (1, 2, 3, 4)])
    assert _model(a) == _model(b)
