"""Integration: the serve engine's index of answered order statistics.

Each :class:`QueryEngine` dataset keeps a driver-side
:class:`~repro.serve.rank_index.RankIndex` of the values its rank
queries found, with their exact counts: a rank a recorded value holds
is answered with no command, and any other rank recurses only inside
the window between its nearest recorded neighbours.  These tests run
interleaved ``select`` / ``quantile`` / ``topk`` queries, repeats among
them, over adversarial datasets -- all-equal, small-universe Zipf,
int64 extremes, uint64 above ``2**63``, +-inf, NaN -- on sim, mp and
tcp, and hold

* every answer to numpy and every modeled cost to sim's,
* every recorded exact count to ``np.searchsorted`` on the sorted data,
* a repeated query to no command -- NaN answers too, since every rank
  above one that holds NaN holds NaN: ``report()``, ``driver_sends``
  and ``_rng_seq`` stay as they were,
* the index through a killed batch: what follows answers and costs as
  a run without the failure,
* the index's cap under a stream of distinct ranks.
"""

import math

import numpy as np
import pytest

from repro.common import zipf_sample
from repro.machine import DistArray, FaultPlan, Machine, WorkerFailure
from repro.serve import QueryEngine, rank_index

P = 2
N = 3000


def _datasets() -> dict:
    rng = np.random.default_rng(8)
    floats = rng.standard_normal(N)
    with_nan = floats.copy()
    with_nan[rng.choice(N, 40, replace=False)] = np.nan
    with_nan[rng.choice(N, 30, replace=False)] = np.inf
    with_nan[rng.choice(N, 30, replace=False)] = -np.inf
    infs = floats.copy()
    infs[: N // 5] = np.inf
    infs[N // 5: N // 3] = -np.inf
    i64 = rng.integers(-5, 5, N)
    i64[: N // 4] = -(2**63)
    i64[N // 4: N // 2] = 2**63 - 1
    u64 = np.uint64(2**63) + rng.integers(0, 7, N).astype(np.uint64)
    u64[: N // 6] = 2**64 - 1
    data = {
        "equal": np.full(N, 7.25),
        "zipf": zipf_sample(rng, N, universe=12, s=1.3),
        "int64": i64,
        "uint64": u64,
        "inf": rng.permutation(infs),
        "nan": with_nan,
    }
    return {name: rng.permutation(a) for name, a in data.items()}


def _queries() -> list:
    """Interleaved rank queries with repeats (each dataset gets them
    all): ends, tie runs, top-k prefixes in both orders, quantiles
    that land on an earlier select's rank."""
    return [
        {"op": "topk", "k": 32}, {"op": "select", "k": N // 2},
        {"op": "topk", "k": 16}, {"op": "quantile", "q": 0.5},
        {"op": "select", "k": 1}, {"op": "select", "k": N},
        {"op": "select", "k": 700}, {"op": "quantile", "q": 0.1},
        {"op": "topk", "k": 40}, {"op": "select", "k": 1000},
        {"op": "select", "k": 650}, {"op": "quantile", "q": 0.9},
        {"op": "select", "k": N - 41}, {"op": "topk", "k": 32},
        {"op": "select", "k": 700}, {"op": "quantile", "q": 0.25},
        {"op": "select", "k": 33}, {"op": "topk", "k": 1},
        {"op": "select", "k": 2000}, {"op": "quantile", "q": 0.1},
    ]


def _want(q, ordered):
    if q["op"] == "select":
        return ordered[q["k"] - 1]
    if q["op"] == "quantile":
        return ordered[max(1, math.ceil(q["q"] * N)) - 1]
    return list(ordered[-q["k"]:][::-1])


def _same(got, want) -> bool:
    if isinstance(want, list):
        return len(got) == len(want) and all(map(_same, got, want))
    return got == want or (got != got and want != want)


def _model(machine):
    r = machine.report()
    return (r.makespan, r.work_time, r.comm_time, r.bottleneck_words,
            r.bottleneck_startups, r.total_traffic, r.imbalance)


def _sends(machine) -> int:
    return getattr(machine.backend, "driver_sends", 0)


def _engine(backend: str, data: dict, **kw) -> QueryEngine:
    machine = Machine(p=P, seed=31, backend=backend, **kw)
    return QueryEngine(
        machine, {name: DistArray.from_global(machine, a) for name, a in data.items()},
        batch_window=0)


def _run(engine, name, queries) -> list:
    """``(answer, model)`` per query, each query alone on a reset clock."""
    out = []
    for q in queries:
        engine.machine.reset()
        out.append((engine.query(**q, dataset=name), _model(engine.machine)))
    return out


@pytest.fixture(scope="module")
def sim_runs():
    data = _datasets()
    engine = _engine("sim", data)
    try:
        return {name: _run(engine, name, _queries()) for name in data}
    finally:
        engine.close()


@pytest.mark.parametrize("backend", ["sim", "mp", "tcp"])
def test_answers_counts_and_free_repeats(backend, sim_runs):
    data = _datasets()
    engine = _engine(backend, data)
    machine = engine.machine
    try:
        for name, values in data.items():
            ordered = np.sort(values)
            runs = _run(engine, name, _queries())
            for q, (got, _) in zip(_queries(), runs):
                assert _same(got, _want(q, ordered)), (name, q, got)
            assert [m for _, m in runs] == [m for _, m in sim_runs[name]], name

            index = engine._index[name]
            assert 0 < len(index) <= rank_index.MAX_ENTRIES
            for value, n_less, n_leq in index.entries():
                if n_less is not None:
                    assert n_less == np.searchsorted(ordered, value, "left")
                if n_leq is not None:
                    assert n_leq == np.searchsorted(ordered, value, "right")

            # every query again, NaN answers included: all answered
            # from the index
            repeats = [(q, got) for q, (got, _) in zip(_queries(), runs)]
            machine.reset()
            report, sends = machine.report(), _sends(machine)
            seq, stats = machine._rng_seq, dict(engine.stats)
            for q, got in repeats:
                assert _same(engine.query(**q, dataset=name), got), (name, q)
            assert machine.report() == report
            assert _sends(machine) == sends
            assert machine._rng_seq == seq
            assert engine.stats["fused_commands"] == stats["fused_commands"]
            targets = sum(q["k"] if q["op"] == "topk" else 1 for q, _ in repeats)
            assert engine.stats["index_answers"] - stats["index_answers"] == targets
    finally:
        engine.close()


def test_a_repeated_topk_prefix_is_free():
    """``topk 16`` after ``topk 32`` needs no command: the larger
    block's answers hold every rank of the smaller one."""
    data = {"v": np.random.default_rng(3).random(N)}
    engine = _engine("sim", data)
    try:
        engine.query(op="topk", k=32, dataset="v")
        engine.machine.reset()
        seq = engine.machine._rng_seq
        got = engine.query(op="topk", k=16, dataset="v")
        assert got == list(np.sort(data["v"])[-16:][::-1])
        assert engine.machine._rng_seq == seq
        assert engine.machine.report().bottleneck_startups == 0
        assert engine.stats["index_answers"] == 16
        assert engine.stats["fused_commands"] == 1
    finally:
        engine.close()


def test_the_cap_holds_under_a_stream_of_distinct_ranks(monkeypatch):
    monkeypatch.setattr(rank_index, "MAX_ENTRIES", 8)
    data = {"v": np.random.default_rng(4).random(N)}
    ordered = np.sort(data["v"])
    engine = _engine("sim", data)
    try:
        for k in range(1, N, 97):
            assert engine.query(op="select", k=k, dataset="v") == ordered[k - 1]
            assert len(engine._index["v"]) <= 8
        assert len(engine._index["v"]) == 8
    finally:
        engine.close()


def test_the_index_survives_a_killed_batch():
    """A worker killed inside a rank query's command fails that query
    and recovers the pool; the index is driver data over immutable
    datasets, so every later query answers and costs what it does in a
    run that never saw the failed query."""
    data = {"v": np.random.default_rng(5).standard_normal(N)}
    ordered = np.sort(data["v"])
    before = [{"op": "select", "k": 1500}, {"op": "topk", "k": 8},
              {"op": "quantile", "q": 0.2}]
    killed = {"op": "select", "k": 2200}
    after = [{"op": "select", "k": 2300}, {"op": "select", "k": 1500},
             {"op": "topk", "k": 40}, killed, {"op": "quantile", "q": 0.7}]

    scratch = _engine("mp", data)
    try:
        _run(scratch, "v", before)
        kill_seq = scratch.machine.backend._seq + 1  # the killed query's
    finally:
        scratch.close()

    oracle = _engine("sim", data)
    faulty = _engine("mp", data, faults=FaultPlan().kill(1, seq=kill_seq),
                     command_timeout=10)
    try:
        assert _run(faulty, "v", before) == _run(oracle, "v", before)
        with pytest.raises(WorkerFailure):
            faulty.query(**killed, dataset="v")
        oracle.machine.draw_addr()  # the failed call allocated one address
        runs = _run(faulty, "v", after)
        assert faulty.stats["worker_failures"] == 1
        assert faulty.stats["rebuilds"] == 1
        assert runs == _run(oracle, "v", after)
        for q, (got, _) in zip(after, runs):
            assert _same(got, _want(q, ordered)), q
        assert faulty._index["v"].entries() == oracle._index["v"].entries()
        assert faulty.machine._rng_seq == oracle.machine._rng_seq
    finally:
        faulty.close()
        oracle.close()


def test_a_failed_command_fails_only_the_queries_it_had_to_answer(monkeypatch):
    """In a batch whose command fails, a query the index answers in
    full still gets its answer."""
    from repro import selection

    data = {"v": np.random.default_rng(6).random(N)}
    ordered = np.sort(data["v"])
    machine = Machine(p=P, seed=31)
    engine = QueryEngine(machine, {"v": DistArray.from_global(machine, data["v"])},
                         batch_window=0.2)
    try:
        assert engine.query(op="select", k=100, dataset="v") == ordered[99]

        def broken(*args, **kw):
            raise RuntimeError("injected")

        monkeypatch.setattr(selection, "multi_select_windows", broken)
        free = engine.submit({"op": "select", "k": 100, "dataset": "v"})
        new = engine.submit({"op": "select", "k": 200, "dataset": "v"})
        assert free.result(timeout=60) == ordered[99]
        with pytest.raises(RuntimeError, match="injected"):
            new.result(timeout=60)
        assert engine.stats["batches"] == 2
    finally:
        engine.close()
