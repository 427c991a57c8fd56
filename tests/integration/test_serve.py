"""Integration: the ``repro serve`` front-end (engine + TCP server).

Engine-level tests drive :class:`QueryEngine` directly (sim and mp
backends): correctness against driver-side oracles, query fusion
(many rank queries -> one ``multi_select``), frequent-query dedup, and
error isolation.  The server-level test runs the real asyncio TCP
front-end in a background thread and exercises the JSON-lines protocol
end to end, including concurrent clients fusing into one batch.
"""

import threading

import numpy as np
import pytest

from repro.machine import DistArray, Machine
from repro.serve import QueryEngine, QueryError, ServeClient, default_datasets
from repro.serve.server import serve_forever


def _engine(backend="sim", p=4, n=2000, window=0.02, **kw):
    machine = Machine(p=p, seed=99, backend=backend)
    datasets = default_datasets(machine, n)
    return QueryEngine(machine, datasets, batch_window=window, **kw)


def _oracle(p=4, n=2000):
    with Machine(p=p, seed=99) as m:
        ds = default_datasets(m, n)
        values = np.sort(ds["default"].concat())
        keys = ds["keys"].concat()
    return values, keys


class TestQueryEngine:
    def test_rank_queries_match_oracle(self):
        values, _ = _oracle()
        n = values.size
        engine = _engine()
        try:
            assert engine.query(op="select", k=1) == values[0]
            assert engine.query(op="select", k=n) == values[-1]
            assert engine.query(op="quantile", q=0.5) == values[n // 2 - 1]
            assert engine.query(op="topk", k=3) == values[-3:][::-1].tolist()
        finally:
            engine.close()

    def test_burst_fuses_to_one_command(self):
        values, _ = _oracle()
        n = values.size
        engine = _engine(window=0.2)
        try:
            futures = [
                engine.submit({"op": "select", "k": 7}),
                engine.submit({"op": "quantile", "q": 0.25}),
                engine.submit({"op": "topk", "k": 5}),
                engine.submit({"op": "select", "k": n // 2}),
            ]
            got = [f.result(timeout=60) for f in futures]
            assert got[0] == values[6]
            assert got[3] == values[n // 2 - 1]
            assert engine.stats["queries"] == 4
            assert engine.stats["batches"] == 1
            assert engine.stats["fused_commands"] == 1
        finally:
            engine.close()

    def test_frequent_queries_dedupe(self):
        _, keys = _oracle()
        uniq, counts = np.unique(keys, return_counts=True)
        want = [
            [int(key), float(c)]
            for key, c in sorted(zip(uniq, counts), key=lambda t: (-t[1], t[0]))[:4]
        ]
        engine = _engine(window=0.2)
        try:
            futures = [
                engine.submit({"op": "frequent", "k": 4, "dataset": "keys"})
                for _ in range(3)
            ]
            got = [f.result(timeout=60) for f in futures]
            assert got == [want] * 3
            assert engine.stats["fused_commands"] == 1
        finally:
            engine.close()

    @pytest.mark.parametrize("backend", ["sim", "mp", "tcp"])
    def test_frequent_queries_share_one_pass_per_dataset(self, backend):
        """Frequent queries on one dataset at different ``k`` make one
        counting pass at the largest ``k``; each answer is the prefix a
        lone exact call returns -- across a tie at the k = 4 cut and for
        a ``k`` above the number of distinct keys.  The lone queries ask
        for less than the batch's largest ``k``, so no kept answer
        covers the batch."""
        from repro.frequent import top_k_frequent_exact

        # counts 9, 8, 7, then 6 / 6 / 6 tied across the k = 4 cut,
        # then 3 for six more keys: 12 distinct keys in all
        counts = {10: 9, 11: 8, 12: 7, 13: 6, 14: 6, 15: 6}
        counts.update({k: 3 for k in range(16, 22)})
        keys = np.repeat(list(counts), list(counts.values())).astype(np.int64)
        keys = np.random.default_rng(4).permutation(keys)
        ks = [4, 8, 16, 8]
        with Machine(p=4, seed=5) as m:
            want = {
                k: [[int(key), float(c)] for key, c in
                    top_k_frequent_exact(m, DistArray.from_global(m, keys), k).items]
                for k in {2, 3, *ks}
            }
        assert [row[0] for row in want[4]] == [10, 11, 12, 13]
        assert len(want[16]) == len(counts)

        machine = Machine(p=4, seed=5, backend=backend)
        engine = QueryEngine(
            machine, {"keys": DistArray.from_global(machine, keys)},
            batch_window=0.2,
        )
        real = backend != "sim"
        try:
            # the first query also makes the keys resident
            assert engine.query(op="frequent", k=2, dataset="keys") == want[2]
            sends = machine.backend.driver_sends if real else 0
            assert engine.query(op="frequent", k=3, dataset="keys") == want[3]
            lone_sends = machine.backend.driver_sends - sends if real else 0
            stats = dict(engine.stats)
            futures = [
                engine.submit({"op": "frequent", "k": k, "dataset": "keys"})
                for k in ks
            ]
            got = [f.result(timeout=120) for f in futures]
            assert got == [want[k] for k in ks]
            assert engine.stats["batches"] == stats["batches"] + 1
            assert engine.stats["fused_commands"] == stats["fused_commands"] + 1
            if real:
                assert lone_sends > 0
                assert machine.backend.driver_sends - sends == 2 * lone_sends
        finally:
            engine.close()

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    def test_a_later_frequent_query_only_selects(self, backend, monkeypatch):
        """The first frequent query on a dataset counts and exchanges
        its keys and keeps the owner tables; a later one with a larger
        ``k`` is one command that charges what a lone exact call charges
        minus the local count, the hash-table rounds and the size's
        all-reduction, and answers as that call does."""
        from repro.frequent import top_k_frequent_exact

        def capture(machine):
            logs = []
            replay = machine.replay_charges
            monkeypatch.setattr(machine, "replay_charges",
                                lambda per_pe: (logs.append(per_pe[0]), replay(per_pe)))
            return logs

        with Machine(p=4, seed=99) as m:
            keys = default_datasets(m, 2000)["keys"]
            lone = capture(m)
            want = [[[int(key), float(c)]
                     for key, c in top_k_frequent_exact(m, keys, k).items]
                    for k in (4, 8)]
        machine = Machine(p=4, seed=99, backend=backend)
        engine = QueryEngine(machine, default_datasets(machine, 2000), batch_window=0)
        logs = capture(machine)
        try:
            assert engine.query(op="frequent", k=4, dataset="keys") == want[0]
            sends = machine.backend.driver_sends if backend != "sim" else 0
            assert engine.query(op="frequent", k=8, dataset="keys") == want[1]
            if backend != "sim":
                assert machine.backend.driver_sends == sends + 1
        finally:
            engine.close()
        assert logs[0] == lone[0]
        # p = 4: the count's ops, two hash-table rounds, the size
        assert [e[0] for e in lone[1][:4]] == ["ops", "dht_round", "dht_round", "allreduce"]
        assert logs[1] == lone[1][4:]

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    def test_frequent_answers_are_kept_as_prefixes(self, backend, monkeypatch):
        """The longest frequent answer given is kept per dataset: a
        ``k`` it covers is its prefix, with no command, charge or draw; a
        larger ``k`` runs one selection over the resident table; and a
        dataset that showed fewer distinct keys than a kept ``k`` answers
        every ``k`` from the kept answer."""
        import repro.frequent
        from repro.frequent import top_k_frequent_exact

        few = np.repeat(np.arange(5, dtype=np.int64), [7, 5, 5, 2, 1])
        with Machine(p=4, seed=99) as m:
            data = {"keys": default_datasets(m, 2000)["keys"],
                    "few": DistArray.from_global(m, few)}
            want = {(name, k): [[int(key), float(c)] for key, c in
                                top_k_frequent_exact(m, data[name], k).items]
                    for name, k in [("keys", 4), ("keys", 8), ("keys", 12),
                                    ("few", 8), ("few", 3), ("few", 50)]}
        assert len(want["few", 50]) == 5

        selects = []
        from_table = repro.frequent.top_k_from_table
        monkeypatch.setattr(repro.frequent, "top_k_from_table",
                            lambda *a: (selects.append(a[-1]), from_table(*a))[1])
        machine = Machine(p=4, seed=99, backend=backend)
        engine = QueryEngine(
            machine, {"keys": default_datasets(machine, 2000)["keys"],
                      "few": DistArray.from_global(machine, few)},
            batch_window=0)
        real = backend != "sim"

        def free(name, k):
            machine.reset()
            report, seq = machine.report(), machine._rng_seq
            sends = machine.backend.driver_sends if real else 0
            stats = dict(engine.stats)
            assert engine.query(op="frequent", k=k, dataset=name) == want[name, k]
            assert machine.report() == report
            assert machine._rng_seq == seq
            if real:
                assert machine.backend.driver_sends == sends
            assert engine.stats["prefix_answers"] == stats["prefix_answers"] + 1
            assert engine.stats["fused_commands"] == stats["fused_commands"]

        try:
            assert engine.query(op="frequent", k=8, dataset="keys") == want["keys", 8]
            free("keys", 4)
            free("keys", 8)
            commands = engine.stats["fused_commands"]
            assert engine.query(op="frequent", k=12, dataset="keys") == want["keys", 12]
            assert selects == [12]
            assert engine.stats["fused_commands"] == commands + 1
            free("keys", 8)
            # 5 distinct keys: the answer to k = 8 holds all of them
            assert engine.query(op="frequent", k=8, dataset="few") == want["few", 8]
            free("few", 50)
            free("few", 3)
            assert selects == [12]
            assert engine.stats["prefix_answers"] == 5
        finally:
            engine.close()

    def test_quantile_q_must_be_a_number(self):
        values, _ = _oracle()
        n = values.size
        engine = _engine(window=0.2)
        try:
            bad = [
                engine.submit({"op": "quantile", "q": "0.5"}),
                engine.submit({"op": "quantile", "q": True}),
                engine.submit({"op": "quantile", "q": None}),
            ]
            good = engine.submit({"op": "quantile", "q": 0.5})
            for f, shown in zip(bad, ("'0.5'", "True", "None")):
                with pytest.raises(QueryError, match=shown):
                    f.result(timeout=60)
            assert good.result(timeout=60) == values[n // 2 - 1]
        finally:
            engine.close()

    def test_bad_query_does_not_poison_the_batch(self):
        values, _ = _oracle()
        engine = _engine(window=0.2)
        try:
            futures = [
                engine.submit({"op": "select", "k": 10**9}),   # out of range
                engine.submit({"op": "nonsense"}),             # unknown op
                engine.submit({"op": "select", "k": 5, "dataset": "nope"}),
                engine.submit({"op": "select", "k": 1}),       # healthy
            ]
            for bad in futures[:3]:
                with pytest.raises(Exception):
                    bad.result(timeout=60)
            assert futures[3].result(timeout=60) == values[0]
        finally:
            engine.close()

    def test_k_must_be_a_whole_number(self):
        values, _ = _oracle()
        engine = _engine(window=0.2)
        try:
            bad = [
                engine.submit({"op": "select", "k": 2.7}),
                engine.submit({"op": "topk", "k": True}),
                engine.submit({"op": "frequent", "k": "4", "dataset": "keys"}),
            ]
            good = engine.submit({"op": "select", "k": 2.0})
            for f, shown in zip(bad, ("2.7", "True", "'4'")):
                with pytest.raises(ValueError, match=shown):
                    f.result(timeout=60)
            assert good.result(timeout=60) == values[1]
        finally:
            engine.close()

    def test_mp_backend_pipelines_under_load(self):
        values, _ = _oracle()
        n = values.size
        engine = _engine(backend="mp", window=0.2)
        try:
            sends = engine.machine.backend.driver_sends
            futures = [
                engine.submit({"op": "select", "k": 1 + (i * 37) % n})
                for i in range(6)
            ]
            for i, f in enumerate(futures):
                assert f.result(timeout=120) == values[(1 + (i * 37) % n) - 1]
            assert engine.stats["fused_commands"] == 1
            # six queries, one fused multi_select, ONE command frame:
            # the whole recursion runs inside the workers
            assert engine.machine.backend.driver_sends - sends == 1
        finally:
            engine.close()

    def test_submit_after_close_fails_fast(self):
        engine = _engine()
        engine.close()
        with pytest.raises(Exception):
            engine.submit({"op": "select", "k": 1}).result(timeout=10)


def _start_server(engine):
    """Run ``serve_forever`` on an ephemeral port in a background
    thread; returns ``(thread, port)``."""
    port_box: list[int] = []
    ready = threading.Event()

    def ready_cb(port):
        port_box.append(port)
        ready.set()

    server = threading.Thread(
        target=serve_forever,
        args=(engine, "127.0.0.1", 0),
        kwargs={"ready_cb": ready_cb},
        daemon=True,
    )
    server.start()
    assert ready.wait(timeout=60)
    return server, port_box[0]


class TestServeServer:
    def test_tcp_round_trip_with_concurrent_clients(self):
        values, _ = _oracle(p=2, n=1000)
        n = values.size
        machine = Machine(p=2, seed=99, backend="mp")
        engine = QueryEngine(
            machine, default_datasets(machine, 1000), batch_window=0.1
        )
        server, port = _start_server(engine)

        results = {}

        def client_worker(tid):
            with ServeClient("127.0.0.1", port) as c:
                results[tid] = c.query_many([
                    {"op": "select", "k": tid + 1},
                    {"op": "topk", "k": 2},
                ])

        threads = [
            threading.Thread(target=client_worker, args=(t,)) for t in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        for tid in range(3):
            assert results[tid][0] == values[tid]
            assert results[tid][1] == values[-2:][::-1].tolist()

        with ServeClient("127.0.0.1", port) as control:
            assert control.query("ping") == "pong"
            sizes = control.query("datasets")
            assert sizes == {"default": 1000, "keys": 1000}
            # client 0 asked rank 1 already: the index answers it
            assert control.query("select", k=1) == values[0]
            stats = control.query("stats")
            assert stats["queries"] == 7
            assert stats["fused_commands"] < stats["queries"]
            assert stats["index_answers"] >= 1
            control.query("shutdown")
        server.join(timeout=60)
        assert not server.is_alive()
        assert engine.machine.backend.closed

    def test_unreadable_lines_get_an_error_and_the_connection_stays_open(self):
        """A line over the reader's 64 KiB limit (its newline inside the
        first buffered read or far beyond it) and a line nested deeper
        than ``json.loads`` recurses each get a structured error on a
        live connection, and the next request on it answers."""
        import json
        import socket

        machine = Machine(p=2, seed=99)
        engine = QueryEngine(machine, default_datasets(machine, 1000))
        server, port = _start_server(engine)
        bad_lines = [
            (b'{"op": "' + b"x" * (70 << 10) + b'"}', "64 KiB"),
            (b'{"op": "' + b"x" * (1 << 20) + b'"}', "64 KiB"),
            (b"[" * 30000 + b"]" * 30000, "nested too deeply"),
        ]
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=30) as sock, \
                    sock.makefile("rwb") as stream:
                for line, why in bad_lines:
                    stream.write(line + b"\n")
                    stream.write(b'{"id": 7, "op": "ping"}\n')
                    stream.flush()
                    error = json.loads(stream.readline())
                    assert error["id"] is None and error["ok"] is False
                    assert why in error["error"]
                    assert json.loads(stream.readline()) == {
                        "id": 7, "ok": True, "result": "pong"}
                stream.write(b'{"op": "shutdown"}\n')
                stream.flush()
                assert json.loads(stream.readline())["result"] == "bye"
        finally:
            server.join(timeout=60)
        assert not server.is_alive()


# ----------------------------------------------------------------------
# Hardening: admission bound, query deadlines, client receive deadline
# ----------------------------------------------------------------------

class TestServeHardening:
    def test_overload_sheds_beyond_max_queue(self):
        from repro.serve import OverloadedError

        values, _ = _oracle()
        engine = _engine(window=0.0, max_batch=1, max_queue=2)
        gate = threading.Event()
        orig = engine._execute

        def gated(batch):
            gate.wait(30.0)
            orig(batch)

        engine._execute = gated
        try:
            futs = [engine.submit({"op": "select", "k": 1}) for _ in range(6)]
            shed = [
                f for f in futs
                if f.done() and isinstance(f.exception(), OverloadedError)
            ]
            # one query is (at most) in execution, max_queue=2 may wait;
            # everything beyond that must shed immediately, not queue up
            assert len(shed) >= 3
            assert engine.stats["overloads"] == len(shed)
            assert "retry with backoff" in str(shed[0].exception())
            gate.set()
            # the admitted head of the burst still answers correctly
            assert futs[0].result(timeout=60) == values[0]
        finally:
            gate.set()
            engine.close()

    def test_query_deadline_expires_stale_queries(self):
        from repro.serve import QueryError

        values, _ = _oracle()
        engine = _engine(window=0.0)
        try:
            # a deadline of 0 expires in admission, before any backend work
            with pytest.raises(QueryError, match="expired"):
                engine.submit(
                    {"op": "select", "k": 1, "deadline": 0.0}
                ).result(timeout=60)
            assert engine.stats["expired"] == 1
            # a generous deadline does not interfere, and null means none
            assert engine.query(op="select", k=1, deadline=60.0) == values[0]
            assert engine.query(op="select", k=1, deadline=None) == values[0]
        finally:
            engine.close()

    def test_bad_deadline_fails_only_its_own_query(self):
        """A query's own ``deadline`` must be a number >= 0: anything
        else fails that query with ``QueryError`` and the engine thread
        keeps answering."""
        values, _ = _oracle()
        engine = _engine(window=0.0)
        try:
            for bad in ("abc", [1], True, float("nan"), -1):
                fut = engine.submit({"op": "select", "k": 1, "deadline": bad})
                with pytest.raises(QueryError, match="deadline must be"):
                    fut.result(timeout=60)
                assert engine._thread.is_alive()
                good = engine.submit({"op": "select", "k": 2})
                assert good.result(timeout=60) == values[1]
        finally:
            engine.close()

    def test_cancelled_query_is_skipped(self):
        """A query its client cancelled while it queued is dropped; the
        rest of its batch answers and the engine keeps running."""
        values, _ = _oracle()
        engine = _engine(window=0.2)
        try:
            dropped = engine.submit({"op": "select", "k": 1})
            assert dropped.cancel()
            kept = engine.submit({"op": "select", "k": 3})
            assert kept.result(timeout=60) == values[2]
            assert engine._thread.is_alive()
        finally:
            engine.close()

    def test_engine_survives_a_failing_batch(self, monkeypatch):
        """Whatever escapes one batch fails that batch's queries, not
        the engine thread."""
        values, _ = _oracle()
        engine = _engine(window=0.0)
        real = engine._run_rank_group
        calls = []

        def flaky(name, items):
            calls.append(name)
            if len(calls) == 1:
                raise RuntimeError("injected")
            real(name, items)

        monkeypatch.setattr(engine, "_run_rank_group", flaky)
        try:
            with pytest.raises(RuntimeError, match="injected"):
                engine.submit({"op": "select", "k": 1}).result(timeout=60)
            assert engine._thread.is_alive()
            assert engine.submit({"op": "select", "k": 1}).result(timeout=60) == values[0]
        finally:
            engine.close()

    def test_client_receive_deadline_names_pending_ids(self):
        """A server dribbling a partial JSON line must not hold the
        client forever: the overall per-response deadline fires and the
        error names what was in flight."""
        import socket
        import time

        srv = socket.create_server(("127.0.0.1", 0))
        port = srv.getsockname()[1]

        def dribble():
            conn, _ = srv.accept()
            conn.recv(65536)  # the request line
            conn.sendall(b'{"id": 1, "ok": true, "result": 4')  # no \n
            time.sleep(3.0)  # hold the socket open past the deadline
            conn.close()

        t = threading.Thread(target=dribble, daemon=True)
        t.start()
        client = ServeClient("127.0.0.1", port, timeout=0.5)
        try:
            t0 = time.monotonic()
            with pytest.raises(TimeoutError) as ei:
                client.query("select", k=1)
            took = time.monotonic() - t0
            assert took < 2.5, f"deadline did not bound the recv ({took:.1f}s)"
            msg = str(ei.value)
            assert "pending query ids: [1]" in msg
            assert "partial line buffered" in msg
        finally:
            client.close()
            srv.close()
            t.join(timeout=10)
