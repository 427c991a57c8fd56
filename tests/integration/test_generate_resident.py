"""Integration: ``DistArray.generate`` and ``DistKeyValue.generate`` run
where the data lives.

On a real backend generation is ONE ``spmd`` command: every worker
draws its own chunk from a snapshot of ``machine.rngs[rank]`` and the
driver installs the advanced generator states, so chunks, sizes, dtype
and every later draw from the input streams equal the sim twin's.  The
driver records the command as the ref's whole lineage instead of the
data: no ``_store`` entry, nothing fetched at ``close()``, the data
regenerated by ``recover()`` and by a read after close.  Pairs
are checked in the workers; a bad one raises the constructor's message.
"""

import gc
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import (
    DistKeyValue,
    exact_sums_oracle,
    top_k_sums_ec,
    top_k_sums_pac,
)
from repro.aggregation.sum_topk import _global_mass
from repro.common import zipf_sample
from repro.machine import DistArray, FaultPlan, Machine, WorkerFailure

REAL = ["mp", "tcp"]
DTYPES = {
    "int64": lambda g, n: g.integers(-(1 << 40), 1 << 40, size=n, dtype=np.int64),
    "int32": lambda g, n: g.integers(0, 1 << 20, size=n, dtype=np.int32),
    "float64": lambda g, n: g.random(n),
}


def _script(machine, plan):
    """Run one generated scenario: ``plan`` is a list of ``(dtype name,
    per-PE sizes, per-PE direct draws after the call)``."""
    arrays, draws = [], []
    for kind, sizes, extra in plan:
        make = DTYPES[kind]
        arrays.append(DistArray.generate(
            machine, lambda rank, g: make(g, sizes[rank])))
        draws.append([machine.rngs[i].random(extra[i]).tolist()
                      for i in range(machine.p)])
    states = [g.bit_generator.state for g in machine.rngs]
    return arrays, draws, states


def _assert_same_arrays(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert list(a.sizes()) == list(b.sizes())
        for x, y in zip(a.chunks, b.chunks):
            assert x.dtype == y.dtype
            np.testing.assert_array_equal(x, y)


@st.composite
def _plans(draw):
    p = draw(st.sampled_from([1, 2, 3, 4]))
    calls = draw(st.integers(2, 3))
    per_pe = st.lists(st.integers(0, 40), min_size=p, max_size=p)
    extra = st.lists(st.integers(0, 3), min_size=p, max_size=p)
    plan = [(draw(st.sampled_from(sorted(DTYPES))), draw(per_pe), draw(extra))
            for _ in range(calls)]
    return p, draw(st.integers(0, 2**31)), plan


@settings(max_examples=12, deadline=None)
@given(_plans())
def test_generated_data_and_streams_equal_sim(case):
    p, seed, plan = case
    with Machine(p=p, seed=seed) as sim:
        want, want_draws, want_states = _script(sim, plan)
    for backend in REAL:
        with Machine(p=p, seed=seed, backend=backend) as m:
            got, draws, states = _script(m, plan)
            for a in got:
                assert a._ref.id not in m.backend._store
            _assert_same_arrays(got, want)
        assert draws == want_draws
        assert states == want_states


@pytest.mark.parametrize("backend", REAL)
def test_two_dimensional_chunk_is_refused_like_sim(backend):
    def bad(rank, g):
        return g.random((2, 3)) if rank == 1 else g.random(4)

    with Machine(p=3, seed=4) as sim:
        with pytest.raises(ValueError) as want:
            DistArray.generate(sim, bad)
    assert "chunk 1 " in str(want.value)
    with Machine(p=3, seed=4, backend=backend) as m:
        m.allreduce([1, 2, 3])
        resident = [s["resident"] for s in m.backend._run(("stats",), [None] * 3)]
        # (no ``as``: a kept traceback keeps the frame's out ref alive)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            DistArray.generate(m, bad)
        gc.collect()
        m.allreduce([1, 2, 3])  # frees ride the next command's envelope
        after = [s["resident"] for s in m.backend._run(("stats",), [None] * 3)]
        assert after == resident
        m.backend._prune()
        assert not m.backend._lineage and not m.backend._pure
        ok = DistArray.generate(m, lambda rank, g: g.random(4))
        assert ok.global_size == 12


@pytest.mark.parametrize("backend", REAL)
def test_callback_that_raises_on_one_rank_is_a_structured_error(backend):
    def boom(rank, g):
        if rank == 1:
            raise KeyError("no data for this PE")
        return g.random(3)

    with Machine(p=2, seed=4, backend=backend, command_timeout=20) as m:
        with pytest.raises(RuntimeError, match="worker 1 failed.*no data for this PE"):
            DistArray.generate(m, boom)
        assert not m.backend.broken
        assert m.allreduce([1, 2]) == [3, 3]


def test_serve_datasets_on_mp_equal_the_sim_rebuild():
    from repro.serve import default_datasets

    with Machine(p=3, seed=2016) as sim:
        want = default_datasets(sim, 1000)
        with Machine(p=3, seed=2016, backend="mp") as m:
            got = default_datasets(m, 1000)
            assert not m.backend._store
            _assert_same_arrays(got.values(), want.values())


# ----------------------------------------------------------------------
# Lineage: recovery and lifecycle
# ----------------------------------------------------------------------

def _two_arrays(machine):
    a = DistArray.generate(machine, lambda r, g: g.integers(0, 99, size=50 + r))
    b = DistArray.generate(machine, lambda r, g: g.random(30))
    draws = [g.random() for g in machine.rngs]
    return a, b, draws


@pytest.mark.parametrize("backend", REAL)
def test_recovery_regenerates_from_snapshots(backend):
    """The lineage of A must hold the generator states A started from:
    recorded live, the replay after B (and after the direct draws) would
    regenerate A from wherever the streams stand now."""
    with Machine(p=2, seed=99) as sim:
        want_a, want_b, want_draws = _two_arrays(sim)
    machine = Machine(
        p=2, seed=99, backend=backend,
        faults=FaultPlan().kill(1, seq=3), command_timeout=15,
    )
    try:
        a, b, draws = _two_arrays(machine)  # seqs 1 and 2
        assert draws == want_draws
        generations = [e for e in machine.backend._lineage if e[0] == "spmd"]
        assert len(generations) == 2
        with pytest.raises(WorkerFailure):
            machine.allreduce([1.0, 2.0])  # seq 3 dies
            machine.allreduce([1.0, 2.0])
        machine.recover()
        assert machine.backend.recoveries == 1
        assert not machine.backend._store
        _assert_same_arrays([a, b], [want_a, want_b])
        assert machine.allreduce([1.0, 2.0]) == [3.0, 3.0]
    finally:
        machine.close()


@pytest.mark.parametrize("backend", REAL)
def test_close_fetches_nothing_and_reads_after_close_regenerate(backend):
    with Machine(p=2, seed=8) as sim:
        want = _two_arrays(sim)[:2]
    with Machine(p=2, seed=8, backend=backend) as m:
        got = _two_arrays(m)[:2]
        doubled = got[0].map_chunks(lambda r, c: c * 2)
        sends, seq = m.backend.driver_sends, m.backend._seq
    # close sent ``stop`` (one seq, outside driver_sends) and nothing else
    assert m.backend.driver_sends == sends
    assert m.backend._seq == seq + 1
    assert not m.backend._store
    # the worker-computed array, read after close, replays its lineage
    np.testing.assert_array_equal(doubled.concat(), 2 * want[0].concat())
    _assert_same_arrays(got, want)


# ----------------------------------------------------------------------
# DistKeyValue.generate: pairs born in the workers
# ----------------------------------------------------------------------

def _make_pairs(sizes):
    return lambda rank, g: (zipf_sample(g, sizes[rank], universe=64, s=1.1),
                            g.exponential(10.0, size=sizes[rank]))


def _model(machine):
    r = machine.report()
    return (r.makespan, r.work_time, r.comm_time, r.bottleneck_words,
            r.bottleneck_startups, r.total_traffic, r.imbalance)


def _sum_script(machine, sizes):
    """Generate pairs, then everything the driver learns from them."""
    kv = DistKeyValue.generate(machine, _make_pairs(sizes))
    states = [g.bit_generator.state for g in machine.rngs]
    machine.reset()
    mass = _global_mass(machine, kv)
    pac = top_k_sums_pac(machine, kv, 3, eps=0.1, delta=1e-2)
    ec = top_k_sums_ec(machine, kv, 3, eps=0.1, delta=1e-2)
    return kv, (states, mass, pac, ec, _model(machine), machine._rng_seq)


def _assert_same_pairs(got, want):
    assert got.global_size == want.global_size
    for a, b in ((got.keys, want.keys), (got.values, want.values)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.dtype == y.dtype
            np.testing.assert_array_equal(x, y)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([1, 2, 3, 4]).flatmap(
    lambda p: st.lists(st.integers(0, 60), min_size=p, max_size=p)),
    st.integers(0, 2**31))
def test_generated_pairs_and_sums_equal_sim(sizes, seed):
    p = len(sizes)
    with Machine(p=p, seed=seed) as sim:
        want_kv, want = _sum_script(sim, sizes)
    for backend in REAL:
        with Machine(p=p, seed=seed, backend=backend) as m:
            kv, got = _sum_script(m, sizes)
            # the pipelines cache an aggregation table in the pairs'
            # state: its lineage is the birth plus every command on it
            assert kv._ref.id not in m.backend._pure
            m.backend._prune()  # the pipelines' tables are gone
            birth, *reads = m.backend._lineage
            assert birth[3] == (kv._ref.id,)
            assert all(kv._ref.id in e[5] for e in reads)
            assert kv._ref.id not in m.backend._store
            assert kv._pairs is None  # nothing fetched by the pipelines
            _assert_same_pairs(kv, want_kv)
        assert got == want


@pytest.mark.parametrize("backend", REAL)
@pytest.mark.parametrize("bad_rank, bad", [
    (1, lambda k, v: (k, np.where(np.arange(v.size) == 2, np.nan, v))),
    (2, lambda k, v: (k + 0.5, v)),
    (1, lambda k, v: (np.array(list("abcde")), v)),  # no int64 cast exists
    (0, lambda k, v: (k, v[:-1])),
])
def test_a_bad_chunk_is_refused_with_the_constructors_message(backend, bad_rank, bad):
    def make(rank, g):
        pair = (g.integers(0, 9, size=5), g.random(5))
        return bad(*pair) if rank == bad_rank else pair

    with Machine(p=3, seed=6) as sim:
        with pytest.raises(ValueError) as want:
            DistKeyValue.generate(sim, make)
        want_states = [g.bit_generator.state for g in sim.rngs]
    with Machine(p=3, seed=6, backend=backend) as m:
        m.allreduce([1, 2, 3])
        resident = [s["resident"] for s in m.backend._run(("stats",), [None] * 3)]
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            DistKeyValue.generate(m, make)
        assert [g.bit_generator.state for g in m.rngs] == want_states
        gc.collect()
        m.allreduce([1, 2, 3])  # frees ride the next command's envelope
        after = [s["resident"] for s in m.backend._run(("stats",), [None] * 3)]
        assert after == resident
        m.backend._prune()
        assert not m.backend._lineage and not m.backend._pure
        ok = DistKeyValue.generate(m, _make_pairs([4, 0, 2]))
        assert ok.global_size == 6


@pytest.mark.parametrize("backend", REAL)
def test_recovery_regenerates_pairs_without_the_journal(backend):
    with Machine(p=2, seed=31) as sim:
        want_kv = DistKeyValue.generate(sim, _make_pairs([40, 25]))
        sim.reset()
        want = top_k_sums_ec(sim, want_kv, 3, eps=0.1, delta=1e-2)
        want_model = _model(sim)
    machine = Machine(p=2, seed=31, backend=backend,
                      faults=FaultPlan().kill(1, seq=2), command_timeout=15)
    try:
        kv = DistKeyValue.generate(machine, _make_pairs([40, 25]))  # seq 1
        with pytest.raises(WorkerFailure):
            machine.allreduce([1.0, 2.0])  # seq 2 dies
            machine.allreduce([1.0, 2.0])
        machine.recover()
        assert machine.backend.recoveries == 1
        assert kv._ref.id not in machine.backend._store
        machine.reset()
        assert top_k_sums_ec(machine, kv, 3, eps=0.1, delta=1e-2) == want
        assert _model(machine) == want_model
        _assert_same_pairs(kv, want_kv)
    finally:
        machine.close()


@pytest.mark.parametrize("backend", REAL)
def test_pairs_read_after_close_regenerate(backend):
    with Machine(p=3, seed=32) as sim:
        want = DistKeyValue.generate(sim, _make_pairs([7, 0, 9]))
    with Machine(p=3, seed=32, backend=backend) as m:
        got = DistKeyValue.generate(m, _make_pairs([7, 0, 9]))
        sends = m.backend.driver_sends
    assert m.backend.driver_sends == sends  # close fetched nothing
    _assert_same_pairs(got, want)
    assert exact_sums_oracle(got) == exact_sums_oracle(want)


def test_recipes_of_dropped_arrays_are_pruned():
    with Machine(p=2, seed=8, backend="mp") as m:
        keep = DistArray.generate(m, lambda r, g: g.random(2))
        for _ in range(10_000):
            DistArray.generate(m, lambda r, g: g.random(2))
        assert m.backend._pure == {keep._ref.id}
        assert len(m.backend._lineage) <= 256  # pruned as it grows
        m.backend._prune()
        assert [e[3] for e in m.backend._lineage] == [(keep._ref.id,)]
        assert len(m.backend._fn_blobs) <= m.backend._BLOB_CACHE
