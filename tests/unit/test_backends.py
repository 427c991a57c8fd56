"""Unit tests: the pluggable execution-backend layer.

The contract under test: for every collective, the real
``multiprocessing`` backend produces bit-identical results to the
simulated backend (same combination orders), while the control plane
(modeled cost, metering) charges identically on both.
"""

import os
import threading

import numpy as np
import pytest

from repro.cli import build_parser
from tests.support.dht_runner import exchange, tree_merge
from repro.machine import (
    Machine,
    MultiprocessingBackend,
    SimBackend,
    available_backends,
    make_backend,
)
from repro.machine.backends import TcpBackend

from tests.support import listp

PS = [1, 2, 4]


def _pair(p, seed=42):
    """A (sim, mp) machine pair with identical seeds."""
    sim = Machine(p=p, seed=seed)
    real = Machine(p=p, seed=seed, backend="mp")
    return sim, real


def _assert_same(a, b):
    """Deep equality across the payload types the machine ships."""
    assert type(a) is type(b) or (a is None) == (b is None)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    elif isinstance(a, dict):
        assert list(a.keys()) == list(b.keys())
        for k in a:
            _assert_same(a[k], b[k])
    else:
        assert a == b


class TestRegistry:
    def test_available(self):
        assert {"sim", "mp"} <= set(available_backends())

    def test_default_is_sim(self):
        m = Machine(p=2)
        assert isinstance(m.backend, SimBackend)
        assert m.backend.name == "sim"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            Machine(p=2, backend="smoke-signals")

    def test_instance_accepted(self):
        be = SimBackend(3)
        assert Machine(p=3, backend=be).backend is be

    def test_instance_p_mismatch_rejected(self):
        with pytest.raises(ValueError, match="built for p=2"):
            Machine(p=4, backend=SimBackend(2))

    def test_make_backend_none_is_sim(self):
        assert isinstance(make_backend(None, 2), SimBackend)

    def test_retired_kernels_keyword_rejected(self):
        # every backend runs the one numpy body of each kernel: there is
        # no mode to pick, and the keyword is not silently dropped
        with pytest.raises(TypeError, match="kernels"):
            Machine(p=2, backend="mp", kernels="python")
        with pytest.raises(TypeError, match="kernels"):
            make_backend("mp", 2, kernels="python")
        assert not hasattr(SimBackend(2), "supports_native_kernels")

    def test_retired_pipeline_depth_rejected(self, capsys):
        # one command in flight on every backend: there is no depth to
        # pick, and the keyword is not silently dropped
        for build in (
            lambda: Machine(p=2, backend="mp", pipeline_depth=4),
            lambda: make_backend("mp", 2, pipeline_depth=4),
            lambda: MultiprocessingBackend(2, pipeline_depth=4),
            lambda: TcpBackend(2, pipeline_depth=4),
        ):
            with pytest.raises(TypeError, match="pipeline_depth"):
                build()
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--pipeline-depth", "4"])
        assert exc.value.code == 2
        assert "--pipeline-depth" in capsys.readouterr().err

    def test_workers_are_always_forked(self):
        # by-value callbacks resolve their globals in the worker's copy
        # of their module: the launchers pin fork and take no start
        # method (the default differs between Python versions)
        for cls in (MultiprocessingBackend, TcpBackend):
            with pytest.raises(TypeError, match="start_method"):
                cls(2, start_method="spawn")
            backend = cls(2)
            try:
                assert backend._ctx.get_start_method() == "fork"
            finally:
                backend.close()

    def test_retired_journal_and_rebuild_rejected(self, capsys):
        # lineage is always recorded and the next command after a
        # failure recovers: there is no journal to switch on and no
        # rebuild factory to hand the serve engine
        from repro.serve import QueryEngine

        for build in (
            lambda: Machine(p=2, backend="mp", journal=True),
            lambda: make_backend("mp", 2, journal=True),
            lambda: MultiprocessingBackend(2, journal=True),
            lambda: TcpBackend(2, journal=True),
        ):
            with pytest.raises(TypeError, match="journal"):
                build()
        with pytest.raises(TypeError, match="rebuild"):
            QueryEngine(Machine(p=2), {}, rebuild=lambda: None)
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--journal"])
        assert exc.value.code == 2
        assert "--journal" in capsys.readouterr().err

    def test_retired_verify_rejected(self):
        # every backend checks lockstep on every command: there is no
        # check to switch on, and the keyword is not silently dropped
        for build in (
            lambda: Machine(p=2, backend="mp", verify=True),
            lambda: make_backend("mp", 2, verify=True),
            lambda: MultiprocessingBackend(2, verify=True),
            lambda: TcpBackend(2, verify=True),
        ):
            with pytest.raises(TypeError, match="verify"):
                build()

    @pytest.mark.parametrize("backend", ["mp", "tcp"])
    @pytest.mark.parametrize("faults", [42, ["kill@r1:s3"]], ids=["int", "list"])
    def test_wrong_typed_faults_rejected_at_construction(self, backend, faults):
        for build in (
            lambda: Machine(p=2, backend=backend, faults=faults),
            lambda: make_backend(backend, 2, faults=faults),
        ):
            with pytest.raises(TypeError, match="faults"):
                build()

    def test_make_backend_passes_knobs_to_real_factories_only(self):
        from repro.machine.backends import _REGISTRY, register_backend
        from repro.machine.faults import FaultPlan

        calls = []

        def real_factory(p, command_timeout=None, faults=None):
            calls.append((command_timeout, faults))
            raise TypeError("a bug inside the factory")

        real_factory.is_real = True
        register_backend("broken-real", real_factory)
        register_backend("plain", lambda p: SimBackend(p))
        try:
            plan = FaultPlan().kill(1, seq=3)
            # the factory's own TypeError surfaces; no retry drops a knob
            with pytest.raises(TypeError, match="a bug inside the factory"):
                make_backend("broken-real", 2, command_timeout=5, faults=plan)
            assert calls == [(5, plan)]
            # a factory that is not real gets p alone
            be = make_backend("plain", 2, command_timeout=5, faults=plan)
            assert isinstance(be, SimBackend) and be.p == 2
        finally:
            _REGISTRY.pop("broken-real")
            _REGISTRY.pop("plain")


@pytest.mark.parametrize("p", PS)
class TestCollectiveParity:
    """Every collective: mp result == sim result, bit for bit."""

    def test_allreduce_ops(self, p):
        sim, real = _pair(p)
        vals = [np.array([i + 1, 2 * i], dtype=np.int64) for i in range(p)]
        with real:
            for op in ("sum", "min", "max"):
                _assert_same(sim.allreduce(vals, op=op), real.allreduce(vals, op=op))

    def test_allreduce_float_rounding_matches(self, p):
        sim, real = _pair(p)
        vals = [0.1 * (i + 1) for i in range(p)]
        with real:
            _assert_same(sim.allreduce(vals, op="sum"), real.allreduce(vals, op="sum"))

    def test_reduce(self, p):
        sim, real = _pair(p)
        vals = [float(i) for i in range(p)]
        with real:
            _assert_same(listp.reduce(sim, vals, root=p - 1), listp.reduce(real, vals, root=p - 1))

    def test_broadcast(self, p):
        sim, real = _pair(p)
        payload = np.arange(5)
        with real:
            _assert_same(listp.broadcast(sim, payload, root=0), listp.broadcast(real, payload, root=0))

    def test_scan_exscan(self, p):
        sim, real = _pair(p)
        vals = [i + 1 for i in range(p)]
        with real:
            _assert_same(listp.scan(sim, vals), listp.scan(real, vals))
            _assert_same(listp.exscan(sim, vals), listp.exscan(real, vals))

    def test_allreduce_exscan_fused(self, p):
        sim, real = _pair(p)
        vals = [np.array([i, 2 * i], dtype=np.int64) for i in range(p)]
        init = np.zeros(2, dtype=np.int64)
        with real:
            st, sp = listp.allreduce_exscan(sim, vals, initial=init)
            rt, rp = listp.allreduce_exscan(real, vals, initial=init)
        _assert_same(st, rt)
        _assert_same(sp, rp)

    def test_gather_and_allgather(self, p):
        sim, real = _pair(p)
        vals = [np.full(i + 1, i) for i in range(p)]
        with real:
            _assert_same(listp.gather(sim, vals, root=0), listp.gather(real, vals, root=0))
            _assert_same(sim.allgather(vals), real.allgather(vals))

    def test_scatter(self, p):
        sim, real = _pair(p)
        pieces = [np.arange(i + 2) for i in range(p)]
        with real:
            _assert_same(listp.scatter(sim, pieces, root=0), listp.scatter(real, pieces, root=0))

    def test_alltoall(self, p):
        sim, real = _pair(p)
        matrix = [
            [np.array([i, j]) if i != j else None for j in range(p)] for i in range(p)
        ]
        with real:
            _assert_same(listp.alltoall(sim, matrix), listp.alltoall(real, matrix))

    def test_send(self, p):
        sim, real = _pair(p)
        payload = {"k": np.arange(3)}
        with real:
            _assert_same(
                listp.send(sim, 0, p - 1, payload), listp.send(real, 0, p - 1, payload)
            )

    def test_hash_table_exchange(self, p):
        sim, real = _pair(p)
        tables = [(np.arange(10 * i, 10 * i + 4), np.arange(1, 5)) for i in range(p)]
        with real:
            _assert_same(
                exchange(sim, tables, width=1.5),
                exchange(real, tables, width=1.5),
            )
        assert sim.clock.makespan == real.clock.makespan
        assert sim.metrics.bottleneck_words == real.metrics.bottleneck_words
        assert sim.metrics.total_traffic == real.metrics.total_traffic

    def test_tree_merge(self, p):
        sim, real = _pair(p)
        dicts = [{i: 1, 99: 1} for i in range(p)]
        with real:
            _assert_same(tree_merge(sim, dicts), tree_merge(real, dicts))
        assert sim.clock.makespan == real.clock.makespan
        assert sim.metrics.total_traffic == real.metrics.total_traffic

    def test_control_plane_charges_identically(self, p):
        """Modeled cost/metering must not depend on the backend."""
        sim, real = _pair(p)
        vals = [np.arange(4) for _ in range(p)]
        with real:
            for m in (sim, real):
                m.allreduce(vals, op="sum")
                m.allgather(vals)
                listp.allreduce_exscan(m, [1] * p)
        assert sim.clock.makespan == real.clock.makespan
        assert sim.metrics.bottleneck_words == real.metrics.bottleneck_words
        assert sim.metrics.bottleneck_startups == real.metrics.bottleneck_startups

    def test_wall_time_only_tracked_for_real_backend(self, p):
        sim, real = _pair(p)
        vals = [1] * p
        with real:
            sim.allreduce(vals)
            real.allreduce(vals)
            assert sim.report().backend == "sim"
            assert real.report().backend == "mp"
            assert sim.backend.wall_time == 0.0
            assert real.backend.wall_time > 0.0


class TestMpLifecycle:
    def test_close_is_idempotent(self):
        m = Machine(p=2, backend="mp")
        m.allreduce([1, 2])
        m.close()
        m.close()

    def test_use_after_close_rejected(self):
        m = Machine(p=2, backend="mp")
        m.allreduce([1, 2])
        m.close()
        with pytest.raises(RuntimeError, match="closed"):
            m.allreduce([1, 2])

    def test_many_collectives_one_pool(self):
        """Sequence-number protocol survives a long mixed workload."""
        with Machine(p=4, seed=3, backend="mp") as m:
            for i in range(10):
                assert m.allreduce([i] * 4)[0] == 4 * i
                assert listp.scan(m, [1] * 4) == [1, 2, 3, 4]
                assert listp.broadcast(m, i, root=i % 4)[0] == i

    def test_worker_error_is_surfaced(self):
        with Machine(p=2, backend="mp") as m:
            with pytest.raises(RuntimeError, match="worker"):
                # min of unorderable payloads explodes inside the workers
                m.allreduce([{1: 1}, {2: 2}], op="min")


class TestBackendMap:
    def test_sim_map(self):
        m = Machine(p=3)
        out = m.backend.run_spmd(
            lambda i, x: x + i, [], args=[(10,), (20,), (30,)])[1]
        assert out == [10, 21, 32]

    def test_mp_map_picklable(self):
        with Machine(p=3, backend="mp") as m:
            out = m.backend.run_spmd(
                _double, [], args=[(np.arange(n),) for n in (2, 3, 4)])[1]
        for i, c in enumerate(out):
            np.testing.assert_array_equal(c, 2 * np.arange(i + 2))

    def test_mp_map_closure_runs_in_workers(self):
        local = 5
        with Machine(p=2, backend="mp") as m:
            out = m.backend.run_spmd(
                lambda i, x: (os.getpid(), x + local), [],
                args=[(1,), (2,)])[1]
        assert [v for _, v in out] == [6, 7]
        assert os.getpid() not in {pid for pid, _ in out}

    def test_mp_map_unpicklable_falls_back(self):
        local = threading.Lock()  # a cell no worker can be handed
        with Machine(p=2, backend="mp") as m:
            out = m.backend.run_spmd(
                lambda i, x: (os.getpid(), x + local.locked()), [],
                args=[(1,), (2,)])[1]
        assert out == [(os.getpid(), 1), (os.getpid(), 2)]

    def test_dist_array_sort_local_on_mp(self):
        from repro.machine import DistArray

        with Machine(p=2, seed=0, backend="mp") as m:
            da = DistArray(m, [np.array([3, 1, 2]), np.array([9, 7, 8])])
            out = da.sort_local()
        np.testing.assert_array_equal(out.chunks[0], [1, 2, 3])
        np.testing.assert_array_equal(out.chunks[1], [7, 8, 9])


def _double(rank, chunk):
    return 2 * chunk


class TestMultiprocessingBackendDirect:
    def test_repr_and_protocol_attrs(self):
        be = MultiprocessingBackend(2)
        assert be.is_real and be.name == "mp"
        be.close()
