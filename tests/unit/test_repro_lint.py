"""Golden fixtures for the repro-lint checks (RL001 -- RL013).

Every check has at least one firing case, one non-firing case, and one
suppression case, so a behavior change in any check breaks a fixture
here before it silently stops protecting the tree.  The framework
itself (suppressions, config, mini-TOML fallback, CLI exit codes) is
covered at the bottom.
"""

import ast
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tools.repro_lint import Config, all_checks, lint_source
from tools.repro_lint.checks import ACCEPTED_CHARGE_KINDS, SPMD_YIELD_KINDS
from tools.repro_lint.core import _parse_mini_toml, load_config, main

REPO = Path(__file__).resolve().parents[2]


def lint(src: str, path: str = "fx.py", config: Config | None = None):
    return lint_source(textwrap.dedent(src), path=path, config=config)


def hits(src: str, check_id: str, **kw):
    """Unsuppressed findings of one check on a fixture."""
    return [
        f for f in lint(src, **kw) if f.check == check_id and not f.suppressed
    ]


# ----------------------------------------------------------------------
# RL001 -- rank-divergent collective sequences
# ----------------------------------------------------------------------

class TestRL001:
    def test_fires_on_rank_guarded_yield(self):
        found = hits(
            """
            def _kernel(rank, chunk):
                if rank == 0:
                    total = yield ("allreduce", 1.0, "sum")
                return chunk
            """,
            "RL001",
        )
        assert len(found) == 1
        assert "'allreduce'" in found[0].message

    def test_fires_on_rank_guarded_declared_yield(self):
        # a request whose charge the kernel declares is still a collective
        found = hits(
            """
            def _kernel(rank, p, row, log):
                if rank == 0:
                    got = yield charged(("sendrecv", row, (1,)), ("tree_hop", 0, 1, "x"))
                return row
            """,
            "RL001",
        )
        assert len(found) == 1
        assert "'sendrecv'" in found[0].message

    def test_fires_on_derived_rank_taint(self):
        found = hits(
            """
            def _kernel(rank, chunk):
                me = rank * 2
                while me > 0:
                    yield ("allgather", me)
                    me -= 1
                return chunk
            """,
            "RL001",
        )
        assert len(found) == 1

    def test_fires_on_exscan_prefix_guard(self):
        # the prefix half of allreduce_exscan is rank-personal
        found = hits(
            """
            def _kernel(rank, chunk):
                total, prefix = yield ("allreduce_exscan", 1, "sum", 0)
                if prefix > 2:
                    yield ("allgather", prefix)
                return total
            """,
            "RL001",
        )
        assert len(found) == 1

    def test_clean_on_replicated_guard(self):
        # allreduce results are identical on every rank: branching on
        # them keeps the collective sequence lockstep
        assert not hits(
            """
            def _kernel(rank, chunk):
                total = yield ("allreduce", float(chunk.sum()), "sum")
                if total > 0:
                    extra = yield ("allgather", 1)
                return total
            """,
            "RL001",
        )

    @pytest.mark.parametrize("request_", [
        '("broadcast", chunk, 0)',
        '("reduce_allgather", 1.0, "sum", chunk)',
    ])
    def test_clean_on_guard_from_a_replicated_new_kind(self, request_):
        assert not hits(
            f"""
            def _kernel(rank, chunk):
                got = yield {request_}
                if got:
                    yield ("allgather", 1)
            """,
            "RL001",
        )

    @pytest.mark.parametrize("request_", [
        '("reduce", 1.0, "sum", 0)',
        '("gather", chunk, 0)',
        '("scatter", chunk, 0)',
        '("scan", 1.0, "sum")',
        '("p2p", chunk, 0, 1)',
    ])
    def test_fires_on_guard_from_a_rank_personal_new_kind(self, request_):
        found = hits(
            f"""
            def _kernel(rank, chunk):
                got = yield {request_}
                if got:
                    yield ("allgather", 1)
            """,
            "RL001",
        )
        assert len(found) == 1

    def test_yield_kinds_pinned_to_the_collective_table(self):
        """The hardcoded kind set must match both halves of the table --
        the worker schedules and the in-process reference -- so a kind
        added to one of them without teaching the linter fails here."""
        for path, name in [
            ("src/repro/machine/backends/runtime.py", "_run_collective"),
            ("src/repro/machine/backends/base.py", "spmd_collective"),
        ]:
            tree = ast.parse((REPO / path).read_text(encoding="utf-8"))
            table = next(
                n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef) and n.name == name
            )
            dispatched = {
                c.value
                for n in ast.walk(table)
                if isinstance(n, ast.Compare)
                and isinstance(n.left, ast.Name) and n.left.id == "kind"
                for c in ast.walk(n.comparators[0])
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            }
            assert dispatched == SPMD_YIELD_KINDS, path

    def test_clean_on_unconditional_yields(self):
        assert not hits(
            """
            def _kernel(rank, chunk):
                for _ in range(3):
                    yield ("allgather", int(chunk.size))
                return chunk
            """,
            "RL001",
        )

    # -- ``yield from`` composition: a delegation is a collective site,
    # and its result is whatever the callee returns

    _LEVEL_HALVES = """
        def _sample(rank, segs, addr):
            mine = addr.local(rank)
            gathered = yield ("allgather", segs)
            return mine, gathered

        def _count(rank, inter):
            totals = yield ("allreduce", len(inter), "sum")
            return [inter] * totals, totals
    """

    def test_fires_on_rank_guarded_delegation(self):
        found = hits(
            self._LEVEL_HALVES + """
        def _kernel(rank, chunk, addr):
            if rank == 0:
                yield from _sample(rank, chunk, addr)
            return chunk
            """,
            "RL001",
        )
        assert len(found) == 1
        assert "yield from _sample" in found[0].message

    def test_fires_on_rank_personal_element_of_delegated_result(self):
        # _sample's first return element derives from rank: looping on
        # it diverges, looping on the second (gathered) would not
        found = hits(
            self._LEVEL_HALVES + """
        def _kernel(rank, chunk, addr):
            mine, gathered = yield from _sample(rank, chunk, addr)
            while mine:
                segs, totals = yield from _count(rank, gathered)
                mine -= 1
            return totals
            """,
            "RL001",
        )
        assert len(found) == 1
        assert "yield from _count" in found[0].message

    def test_fires_on_guarded_delegation_to_unseen_callee(self):
        # an imported sub-generator cannot be inspected: assumed SPMD,
        # and its result assumed rank-personal
        found = hits(
            """
            from elsewhere import sub_gen

            def _kernel(rank, chunk):
                size = yield from sub_gen(chunk)
                if size:
                    yield from sub_gen(chunk)
                return chunk
            """,
            "RL001",
        )
        assert len(found) == 1

    def test_clean_on_level_loop_over_delegated_halves(self):
        # the shape of multi_select's whole-recursion kernel: the loop
        # guard derives from replicated collective results only
        assert not hits(
            self._LEVEL_HALVES + """
        def _kernel(rank, chunk, addr):
            segs = [chunk]
            records = []
            while segs:
                mine, gathered = yield from _sample(rank, segs, addr)
                segs, totals = yield from _count(rank, gathered)
                records.append((mine, totals))
            return records
            """,
            "RL001",
        )

    def test_clean_on_rank_guarded_plain_generator(self):
        # delegating to a generator that issues no collective is not a
        # collective site
        assert not hits(
            """
            def _walk(items):
                for x in items:
                    yield x

            def _kernel(rank, chunk):
                total = yield ("allreduce", 1, "sum")
                if rank == 0:
                    yield from _walk(chunk)
                return total
            """,
            "RL001",
        )

    def test_sees_the_real_multi_select_composition(self):
        src = (REPO / "src/repro/selection/multi_select.py").read_text()
        assert "    while segs:\n" in src
        assert not [f for f in lint_source(src, path="ms.py")
                    if f.check == "RL001"]
        broken = src.replace("    while segs:\n", "    while segs[rank:]:\n")
        found = [f for f in lint_source(broken, path="ms.py")
                 if f.check == "RL001"]
        assert len(found) == 2  # both delegated halves of the level
        assert all("yield from _ms_" in f.message for f in found)

    def test_suppression(self):
        found = [
            f
            for f in lint(
                """
                def _kernel(rank, chunk):
                    if rank == 0:
                        # repro-lint: disable=RL001 -- intentionally divergent test kernel
                        yield ("allgather", 1)
                    return chunk
                """
            )
            if f.check == "RL001"
        ]
        assert len(found) == 1
        assert found[0].suppressed
        assert "intentionally divergent" in found[0].suppress_reason


# ----------------------------------------------------------------------
# RL002 -- unordered iteration feeding collectives / charge logs
# ----------------------------------------------------------------------

class TestRL002:
    def test_fires_on_dict_keys_into_payload(self):
        found = hits(
            """
            def _kernel(rank, chunk):
                d = {"b": 1, "a": 2}
                vals = list(d.keys())
                res = yield ("allgather", vals)
                return res
            """,
            "RL002",
        )
        assert len(found) == 1

    def test_fires_on_a_set_spliced_into_a_declared_payload(self):
        found = hits(
            """
            def _kernel(rank, chunk, n):
                res = yield charged(("allgather", {3, 1, 2}), ("gather", n, 0))
                return res
            """,
            "RL002",
        )
        assert len(found) == 1

    def test_fires_on_set_loop_into_charge_log(self):
        found = hits(
            """
            def run(machine, log):
                for x in set([3, 1, 2]):
                    log.append(("ops", x))
            """,
            "RL002",
        )
        assert len(found) == 1

    def test_fires_on_set_comprehension_into_collective_call(self):
        found = hits(
            """
            def run(machine, items):
                payload = [x for x in {i % 7 for i in items}]
                return machine.allgather(payload)
            """,
            "RL002",
        )
        assert len(found) == 1

    def test_fires_on_unordered_iteration_into_delegated_kernel(self):
        # the arguments of a ``yield from`` become the sub-kernel's
        # collective payloads
        found = hits(
            """
            def _share(rank, vals):
                res = yield ("allgather", vals)
                return res

            def _kernel(rank, chunk):
                d = {"b": 1, "a": 2}
                vals = list(d.keys())
                yield from _share(rank, vals)
                return chunk
            """,
            "RL002",
        )
        assert len(found) == 1

    @pytest.mark.parametrize("name", ["run_command"])
    def test_fires_on_dict_view_into_hash_table_call(self, name):
        # run_command carries a per-PE source list into one command,
        # whether spelled f(machine, ...) or machine.f(...), alone or
        # riding beside a kept table's ref
        for call in (f"{name}(machine, tables)", f"machine.{name}(tables)",
                     f"{name}(machine, (ref, tables))"):
            found = hits(
                f"""
                def run(machine, counts, ref):
                    tables = [list(d.items()) for d in counts]
                    return {call}
                """,
                "RL002",
            )
            assert len(found) == 1, call
        assert not hits(
            f"""
            def run(machine, counts):
                tables = [sorted(d.items()) for d in counts]
                return {name}(machine, tables)
            """,
            "RL002",
        )

    def test_clean_when_sorted(self):
        assert not hits(
            """
            def _kernel(rank, chunk):
                d = {"b": 1, "a": 2}
                vals = sorted(d.keys())
                res = yield ("allgather", vals)
                return res
            """,
            "RL002",
        )

    def test_clean_on_order_free_consumption(self):
        # len()/membership/sum() do not observe iteration order
        assert not hits(
            """
            def _kernel(rank, chunk):
                d = {"b": 1, "a": 2}
                n = len(d.keys())
                ok = 3 in set([1, 2, 3])
                res = yield ("allgather", (n, ok))
                return res
            """,
            "RL002",
        )

    def test_clean_when_not_reaching_a_sink(self):
        assert not hits(
            """
            def helper(d):
                return list(d.keys())
            """,
            "RL002",
        )

    def test_suppression(self):
        found = [
            f
            for f in lint(
                """
                def _kernel(rank, chunk):
                    d = {"b": 1}
                    # repro-lint: disable=RL002 -- single-entry dict, order moot
                    vals = list(d.keys())
                    res = yield ("allgather", vals)
                    return res
                """
            )
            if f.check == "RL002"
        ]
        assert len(found) == 1
        assert found[0].suppressed


# ----------------------------------------------------------------------
# RL003 -- global RNG inside worker kernels
# ----------------------------------------------------------------------

class TestRL003:
    def test_fires_on_np_random_in_kernel(self):
        found = hits(
            """
            import numpy as np

            def _kernel(rank, chunk):
                noise = np.random.random(3)
                res = yield ("allgather", 1)
                return noise
            """,
            "RL003",
        )
        assert len(found) == 1
        assert "np.random.random" in found[0].message

    def test_fires_on_stdlib_random_in_resident_callback(self):
        found = hits(
            """
            import random

            def resident(rank, chunk):
                random.shuffle(chunk)
                return chunk
            """,
            "RL003",
        )
        assert len(found) == 1

    def test_fires_on_from_import(self):
        found = hits(
            """
            from numpy.random import default_rng

            def _kernel(rank, chunk):
                rng = default_rng()
                yield ("allgather", 1)
                return rng
            """,
            "RL003",
        )
        assert len(found) == 1

    def test_clean_on_counter_addressed_draws(self):
        # deriving a generator from the shipped draw address is the
        # sanctioned pattern (machine/ctrrng.py)
        assert not hits(
            """
            import numpy as np

            def _kernel(rank, chunk, addr):
                rng = addr.local(rank)
                draw = rng.integers(0, 10)
                yield ("allgather", int(draw))
                return draw
            """,
            "RL003",
        )

    def test_clean_outside_kernels(self):
        # driver-side code may seed however it likes
        assert not hits(
            """
            import numpy as np

            def make_inputs(n):
                return np.random.default_rng(0).integers(0, 100, n)
            """,
            "RL003",
        )

    def test_suppression(self):
        found = [
            f
            for f in lint(
                """
                import numpy as np

                def _kernel(rank, chunk):
                    noise = np.random.random(3)  # repro-lint: disable=RL003 -- fixture exercising nondeterminism
                    yield ("allgather", 1)
                    return noise
                """
            )
            if f.check == "RL003"
        ]
        assert len(found) == 1
        assert found[0].suppressed


# ----------------------------------------------------------------------
# RL004 -- unknown charge-log entry kinds
# ----------------------------------------------------------------------

class TestRL004:
    def test_fires_on_unknown_kind(self):
        found = hits(
            """
            def _kernel(rank, chunk, log):
                log.append(("flops", 12))
                yield ("allgather", 1)
                return chunk
            """,
            "RL004",
        )
        assert len(found) == 1
        assert "'flops'" in found[0].message

    def test_clean_on_accepted_kinds(self):
        body = "\n".join(
            f'    log.append(("{kind}", 1.0, 0))'
            for kind in sorted(ACCEPTED_CHARGE_KINDS)
        )
        assert not hits(f"def f(log):\n{body}\n", "RL004")

    def test_clean_on_non_log_append(self):
        assert not hits(
            """
            def f(rows):
                rows.append(("flops", 12))
            """,
            "RL004",
        )

    def test_fires_on_an_unknown_declared_kind(self):
        found = hits(
            """
            def _kernel(rank, row, log):
                got = yield charged(("sendrecv", row, ()), ("hop", 1), ("p2p", 1, 0, 1, "x"))
                return got
            """,
            "RL004",
        )
        assert len(found) == 1
        assert "'hop'" in found[0].message

    def test_suppression(self):
        found = [
            f
            for f in lint(
                """
                def f(charge_log):
                    charge_log.append(("custom", 1))  # repro-lint: disable=RL004 -- consumed by a local replayer
                """
            )
            if f.check == "RL004"
        ]
        assert len(found) == 1
        assert found[0].suppressed

    def test_accepted_kinds_pinned_to_replay_charges(self):
        """The hardcoded accept-set must match the meter table that
        Machine.replay_charges dispatches through -- this fixture fails
        when someone adds a charge kind to comm.py without teaching the
        linter."""
        src = (REPO / "src/repro/machine/comm.py").read_text(encoding="utf-8")
        table = next(
            n.value
            for n in ast.walk(ast.parse(src))
            if isinstance(n, ast.AnnAssign)
            and isinstance(n.target, ast.Name)
            and n.target.id == "METERS"
        )
        assert {k.value for k in table.keys} == ACCEPTED_CHARGE_KINDS


# ----------------------------------------------------------------------
# RL005 -- transport buffers stored beyond the command round
# ----------------------------------------------------------------------

class TestRL005:
    def test_fires_on_self_storing_a_view(self):
        found = hits(
            """
            class Decoder:
                def decode(self, buf):
                    view = memoryview(buf)
                    self.cache = view[8:]
            """,
            "RL005",
        )
        assert len(found) == 1

    def test_fires_on_appending_view_to_instance_state(self):
        found = hits(
            """
            import numpy as np

            class Decoder:
                def decode(self, buf):
                    arr = np.frombuffer(buf, dtype=np.uint8)
                    self.frames.append(arr)
            """,
            "RL005",
        )
        assert len(found) == 1

    def test_clean_when_copied_out(self):
        assert not hits(
            """
            import numpy as np

            class Decoder:
                def decode(self, buf):
                    view = memoryview(buf)
                    self.cache = bytes(view)
                    self.arr = np.array(np.frombuffer(buf, dtype=np.uint8))
            """,
            "RL005",
        )

    def test_clean_within_round(self):
        # a view that stays local to the call is the whole point of the
        # zero-copy lane
        assert not hits(
            """
            import numpy as np

            def decode(buf):
                view = memoryview(buf)
                return np.frombuffer(view, dtype=np.int64).sum()
            """,
            "RL005",
        )

    def test_suppression(self):
        found = [
            f
            for f in lint(
                """
                class Decoder:
                    def decode(self, buf):
                        view = memoryview(buf)
                        # repro-lint: disable=RL005 -- segment pinned for the pool's lifetime
                        self.cache = view
                """
            )
            if f.check == "RL005"
        ]
        assert len(found) == 1
        assert found[0].suppressed


# ----------------------------------------------------------------------
# RL006 -- capability flags not consulted
# ----------------------------------------------------------------------

class TestRL006:
    def test_fires_on_unguarded_pool_use(self):
        found = hits(
            """
            class Shipper:
                def ship(self, payload):
                    return self._pool.share(payload)
            """,
            "RL006",
        )
        assert len(found) == 1
        assert "_pool" in found[0].message

    def test_fires_on_raw_shared_memory(self):
        found = hits(
            """
            from multiprocessing.shared_memory import SharedMemory

            def attach(name):
                return SharedMemory(name=name)
            """,
            "RL006",
        )
        assert len(found) == 1

    def test_clean_when_capability_checked(self):
        assert not hits(
            """
            class Shipper:
                def ship(self, backend, payload):
                    if backend.supports_shm:
                        return self._pool.share(payload)
                    return payload
            """,
            "RL006",
        )

    def test_per_check_path_exclusion(self):
        cfg = Config(per_check_exclude={"RL006": ["src/x/backends/*"]})
        assert not hits(
            """
            class Shipper:
                def ship(self, payload):
                    return self._pool.share(payload)
            """,
            "RL006",
            path="src/x/backends/mp.py",
            config=cfg,
        )

    def test_suppression(self):
        found = [
            f
            for f in lint(
                """
                class Shipper:
                    def ship(self, payload):
                        # repro-lint: disable=RL006 -- mp-only helper, pool always present
                        return self._pool.share(payload)
                """
            )
            if f.check == "RL006"
        ]
        assert len(found) == 1
        assert found[0].suppressed


# ----------------------------------------------------------------------
# RL008 -- unbounded blocking get()/recv()
# ----------------------------------------------------------------------

class TestRL008:
    def test_fires_on_zero_arg_queue_get(self):
        found = hits(
            """
            def worker_loop(results):
                while True:
                    item = results.get()
            """,
            "RL008",
        )
        assert len(found) == 1
        assert "timeout" in found[0].message

    def test_fires_on_zero_arg_pipe_recv(self):
        found = hits(
            """
            def pump(conn):
                return conn.recv()
            """,
            "RL008",
        )
        assert len(found) == 1
        assert "byte count" in found[0].message

    def test_clean_on_bounded_waits(self):
        assert not hits(
            """
            def pump(q, sock, conn, d):
                a = q.get(timeout=1.0)
                b = q.get(True, 5.0)
                c = q.get_nowait()
                e = sock.recv(65536)
                f = d.get("key")
                g = d.get("key", None)
                return a, b, c, e, f, g
            """,
            "RL008",
        )

    def test_clean_on_comm_recv_with_peer(self):
        # the runtime Comm.recv(src, tag) carries arguments and is
        # internally deadline-bounded
        assert not hits(
            """
            def _kernel(rank, chunk, comm):
                return comm.recv((rank + 1) % 2, tag=7)
            """,
            "RL008",
        )

    def test_suppression(self):
        found = [
            f
            for f in lint(
                """
                def drain(q):
                    # repro-lint: disable=RL008 -- producer lifetime bounds this wait
                    return q.get()
                """
            )
            if f.check == "RL008"
        ]
        assert len(found) == 1
        assert found[0].suppressed


# ----------------------------------------------------------------------
# RL009 -- stateful RNG construction in kernels / raw Philox use
# ----------------------------------------------------------------------

class TestRL009:
    def test_fires_on_default_rng_in_kernel(self):
        found = hits(
            """
            import numpy as np

            def _kernel(rank, chunk):
                rng = np.random.default_rng(rank)
                return chunk[rng.integers(0, chunk.size)]
            """,
            "RL009",
        )
        assert len(found) == 1
        assert "default_rng" in found[0].message
        assert "DrawAddress" in found[0].message

    def test_fires_on_generator_construction_in_kernel(self):
        # wrapping hand-carried state was the pre-ctrrng idiom; in a
        # kernel it now reads as a counter-reuse hazard
        found = hits(
            """
            import numpy as np

            def _kernel(rank, chunk, state):
                rng = np.random.Generator(np.random.PCG64(state))
                yield ("allgather", 1)
                return rng.integers(0, 10)
            """,
            "RL009",
        )
        assert len(found) == 1
        assert "Generator" in found[0].message

    def test_fires_on_raw_philox_anywhere(self):
        # module-wide, not just kernels: driver-side hand-keyed Philox
        # can collide with the sanctioned address space
        found = hits(
            """
            import numpy as np

            def make_stream(seed):
                return np.random.Generator(np.random.Philox(key=seed))
            """,
            "RL009",
        )
        assert len(found) == 1
        assert "ctrrng" in found[0].message

    def test_fires_on_philox_from_import_alias(self):
        found = hits(
            """
            from numpy.random import Philox as PX

            def make_stream(seed):
                return PX(key=seed)
            """,
            "RL009",
        )
        assert len(found) == 1

    def test_clean_on_draw_address_use(self):
        assert not hits(
            """
            import numpy as np

            def _kernel(rank, chunk, addr):
                rng = addr.local(rank, draw=1)
                shared = addr.shared()
                yield ("allgather", int(shared.integers(0, 4)))
                return chunk[rng.integers(0, chunk.size)]
            """,
            "RL009",
        )

    def test_clean_on_driver_side_default_rng(self):
        # input/data generation outside kernels may seed however it likes
        assert not hits(
            """
            import numpy as np

            def make_inputs(n):
                return np.random.default_rng(0).integers(0, 100, n)
            """,
            "RL009",
        )

    def test_suppression(self):
        # mirrors the one sanctioned construction site in ctrrng.py
        found = [
            f
            for f in lint(
                """
                import numpy as np

                def philox_generator(seed, key, counter):
                    bg = np.random.Philox(key=key, counter=counter)  # repro-lint: disable=RL009 -- the one sanctioned Philox construction site
                    return np.random.Generator(bg)
                """
            )
            if f.check == "RL009"
        ]
        assert len(found) == 1
        assert found[0].suppressed
        assert "sanctioned" in found[0].suppress_reason

    def test_ctrrng_module_is_waived_not_silent(self):
        """The real construction site carries an inline suppression: the
        finding still appears in the report (marked), it just never
        gates."""
        src = (REPO / "src/repro/machine/ctrrng.py").read_text(encoding="utf-8")
        found = [
            f
            for f in lint_source(src, path="src/repro/machine/ctrrng.py")
            if f.check == "RL009"
        ]
        assert len(found) == 1
        assert found[0].suppressed

    def test_fires_on_raw_philox_inside_the_kernels_package(self):
        # a kernel draws from the generator it is handed; keying its own
        # Philox stream is the same collision hazard there as anywhere
        found = hits(
            """
            import numpy as np

            def weighted_counts(rng, values, v_avg, seed):
                own = np.random.Generator(np.random.Philox(key=seed))
                return np.floor(values / v_avg) + own.random(values.size)
            """,
            "RL009",
            path="src/repro/kernels/sampling.py",
        )
        assert len(found) == 1
        assert "ctrrng" in found[0].message

    @pytest.mark.parametrize("module", sorted(
        p.name for p in (REPO / "src/repro/kernels").glob("*.py")
    ))
    def test_kernels_package_needs_no_waiver(self, module):
        """Every kernel draws from the caller's generator: no module of
        the package has a finding, waived or not."""
        path = f"src/repro/kernels/{module}"
        src = (REPO / path).read_text(encoding="utf-8")
        assert lint_source(src, path=path) == []


# ----------------------------------------------------------------------
# RL011 -- charging around the charge log
# ----------------------------------------------------------------------

class TestRL011:
    def test_fires_on_every_way_around_the_log(self):
        found = hits(
            """
            def charge(machine, plan):
                machine._meter_allreduce(words=1)
                machine._charge(cost)
                machine._collective("scan", [1, 2], "sum")
                machine.clock.sync_collective(1e-6)
                machine.metrics.charge("batcher_merge", 4.0)
                for t in plan:
                    machine.metrics.record_p2p(t.src, t.dst, t.count)
                self.machine.metrics.record_schedule([(0, 1, 2.0)], "x")
            """,
            "RL011",
        )
        assert [f.line for f in found] == [3, 4, 5, 6, 7, 9, 10]
        assert "._meter_allreduce()" in found[0].message

    def test_clean_on_the_charge_log(self):
        assert not hits(
            """
            def charge(machine, plan, ops):
                machine.replay_charges([[("allreduce", 1)]] * machine.p)
                machine.collective("scan", [("scan", 1, "sum")] * machine.p)
                machine.charge_ops(ops)
                words = machine.metrics.bottleneck_words
                t = machine.clock.makespan
                machine.metrics.by_kind.get("allreduce")
                return machine.report(), words, t
            """,
            "RL011",
        )

    def test_clean_inside_the_machine_package(self):
        src = """
            def _p2p(m, col):
                m.metrics.record_p2p(0, 1, 2.0, "p2p")
                m.clock.charge_p2p(0, 1, 1e-6)
            """
        assert not hits(src, "RL011", path="src/repro/machine/comm.py")
        assert len(hits(src, "RL011", path="src/repro/pqueue/bulk_pq.py")) == 2

    def test_suppression(self):
        found = [
            f
            for f in lint(
                """
                def f(machine):
                    machine.clock.reset()  # repro-lint: disable=RL011 -- a test double
                """
            )
            if f.check == "RL011"
        ]
        assert len(found) == 1
        assert found[0].suppressed


# ----------------------------------------------------------------------
# RL012 -- commands around the one command path
# ----------------------------------------------------------------------

class TestRL012:
    SRC = """
        def send(machine, data, backend):
            machine.backend.run_spmd(_kernel, [data._ensure_ref()])
            refs, _ = self.machine.backend.submit_spmd(_kernel, [], n_out=1)
            refs, _, _ = machine.backend.map_resident(_make, [], n_out=1)
            backend.run_spmd(_kernel, [])
        """

    def test_fires_outside_the_machine_package(self):
        found = hits(self.SRC, "RL012", path="src/repro/pqueue/bulk_pq.py")
        assert [f.line for f in found] == [3, 4, 5, 6]
        assert ".backend.run_spmd()" in found[0].message
        assert "Machine.run_command" in found[0].message

    def test_silent_inside_the_machine_package(self):
        assert not hits(self.SRC, "RL012", path="src/repro/machine/comm.py")
        assert not hits(self.SRC, "RL012", path="src/repro/machine/dist_array.py")

    def test_clean_on_the_command_path(self):
        assert not hits(
            """
            def send(machine, data, worker):
                machine.run_command(_kernel, data._ensure_ref(), (1,))
                machine.backend.get_chunks(ref)
                worker.run_spmd(_kernel, [])
            """,
            "RL012",
            path="src/repro/selection/unsorted.py",
        )

    def test_suppression(self):
        found = [
            f
            for f in lint(
                """
                def f(machine):
                    machine.backend.run_spmd(k, [])  # repro-lint: disable=RL012 -- a probe
                """,
                path="src/repro/bench/experiments.py",
            )
            if f.check == "RL012"
        ]
        assert len(found) == 1
        assert found[0].suppressed


# ----------------------------------------------------------------------
# RL013 -- a hand-written entry beside the yield it charges
# ----------------------------------------------------------------------

class TestRL013:
    SRC = """
        def _kernel(rank, p, chunk, take, log):
            log.append(("ops", chunk.size))
            total = yield ("allreduce", chunk.size, "sum")
            log.append(("allreduce", 1))
            log.extend([("ops", 1.0)])
            log.append(("allgather", 1))
            got = yield charged(("allgather", chunk), ("gather", chunk.size, 0))
            log.extend(plan)
            return got
        """

    def test_fires_beside_a_yield_outside_the_machine_package(self):
        found = hits(self.SRC, "RL013", path="src/repro/selection/unsorted.py")
        assert [f.line for f in found] == [5, 7, 9]
        assert "charged(request" in found[0].message

    def test_silent_inside_the_machine_package(self):
        assert not hits(self.SRC, "RL013", path="src/repro/machine/comm.py")

    def test_clean_on_ops_heads_and_declarations(self):
        assert not hits(
            """
            def _cmd(rank, p, chunk, take, log):
                log.append(("allreduce", 1))  # a size the driver tracks
                value = yield from select_kth_gen(rank, p, chunk, take, log)
                if value:
                    total = yield ("allreduce", value, "sum")
                log.append(("broadcast", 1, 0))
                log.append(("ops", 1.0))
                got = yield charged(("sendrecv", [None] * p, ()), ("tree_hop", 0, 0, "x"))
                log.append(("ops", 2.0))
                return got
            """,
            "RL013",
            path="src/repro/frequent/dht.py",
        )

    def test_suppression(self):
        found = [
            f
            for f in lint(
                """
                def _kernel(rank, log):
                    x = yield ("allgather", rank)
                    log.append(("allgather", 1))  # repro-lint: disable=RL013 -- a test double
                """,
                path="src/repro/frequent/dht.py",
            )
            if f.check == "RL013"
        ]
        assert len(found) == 1
        assert found[0].suppressed


# ----------------------------------------------------------------------
# Framework: suppressions, config, CLI
# ----------------------------------------------------------------------

class TestFramework:
    def test_all_checks_registered(self):
        assert set(all_checks()) >= {
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL008",
            "RL009", "RL011", "RL012", "RL013",
        }
        # RL007 linted around the driver's dependency tracker, which
        # went with pipelined issue: a command completes before the next
        assert "RL007" not in all_checks()

    def test_syntax_error_reported_as_rl000(self):
        found = lint("def broken(:\n")
        assert [f.check for f in found] == ["RL000"]
        assert not found[0].suppressed

    def test_disable_file(self):
        found = lint(
            """
            # repro-lint: disable-file=RL004 -- synthetic charge kinds throughout
            def f(log):
                log.append(("custom_a", 1))
                log.append(("custom_b", 2))
            """
        )
        rl4 = [f for f in found if f.check == "RL004"]
        assert len(rl4) == 2
        assert all(f.suppressed for f in rl4)
        assert "synthetic" in rl4[0].suppress_reason

    def test_disable_all_on_line(self):
        found = lint(
            """
            def f(log):
                log.append(("custom", 1))  # repro-lint: disable=all -- demo
            """
        )
        assert all(f.suppressed for f in found)

    def test_config_disable_turns_check_off(self):
        cfg = Config(disable={"RL004"})
        found = lint(
            """
            def f(log):
                log.append(("custom", 1))
            """,
            config=cfg,
        )
        assert not [f for f in found if f.check == "RL004"]

    def test_config_enable_is_an_allowlist(self):
        cfg = Config(enable={"RL001"})
        found = lint(
            """
            def f(log):
                log.append(("custom", 1))
            """,
            config=cfg,
        )
        assert not found

    def test_mini_toml_matches_repo_config(self):
        """The py3.10 fallback parser reads the real pyproject the same
        way tomllib would."""
        text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
        sections = _parse_mini_toml(text)
        table = sections["tool.repro-lint"]
        assert table["disable"] == []
        assert "tests/*" in table["exclude"]
        per = sections["tool.repro-lint.per-check-exclude"]
        assert per["RL006"] == [
            "src/repro/machine/backends/*",
            "src/repro/machine/faults.py",
        ]

    def test_load_config_reads_repo_pyproject(self):
        cfg = load_config(REPO / "pyproject.toml")
        assert cfg.check_excluded("RL006", "src/repro/machine/backends/mp.py")
        assert not cfg.check_excluded("RL006", "src/repro/frequent/dht.py")
        assert cfg.file_excluded("tests/unit/test_dsbf.py")

    def test_cli_exit_codes(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(log):\n    log.append(('custom', 1))\n")
        clean = tmp_path / "clean.py"
        clean.write_text("def f():\n    return 1\n")
        assert main(["--no-config", str(clean)]) == 0
        assert main(["--no-config", str(bad)]) == 1
        assert main([]) == 2
        assert main(["--no-config", str(tmp_path / "missing.py")]) == 2

    def test_cli_json_report(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(log):\n    log.append(('custom', 1))\n")
        rc = main(["--no-config", "--format", "json", str(bad)])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["unsuppressed"] == 1
        assert report["findings"][0]["check"] == "RL004"
        assert "RL001" in report["checks"]

    def test_cli_select(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(log):\n    log.append(('custom', 1))\n")
        assert main(["--no-config", "--select", "RL001", str(bad)]) == 0

    def test_module_entry_point(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("def f():\n    return 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "tools.repro_lint", "--no-config", str(clean)],
            cwd=REPO,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "clean" in proc.stdout
