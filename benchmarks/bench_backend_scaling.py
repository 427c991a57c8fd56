#!/usr/bin/env python
"""Backend scaling: sim-modeled vs mp wall-clock across p.

Runs the Figure-6 unsorted-selection sweep, the resident-subsystem
workloads (multiselection, redistribution, bulk priority queue) and the
collectives micro-benchmark on both execution backends and records,
per ``p``:

* ``time_s`` -- the modeled alpha-beta makespan (backend-independent,
  asserted equal across backends),
* ``wall_s`` -- real seconds of the whole run (driver + data plane),
* ``backend_wall_s`` -- real seconds inside the backend data plane
  (IPC + in-worker execution for ``mp``),
* ``worker_msgs`` -- total worker-exchange messages (the O(p log p)
  quantity the resident-chunk refactor bounds),
* ``driver_sends`` -- driver command-channel writes per collective (the
  O(1) the broadcast command channel bounds; p direct sends before it)
  and per ``multi_select`` call (asserted 1: the whole recursion is one
  worker command),
* ``wire_bytes`` / ``shm_bytes`` -- measured driver transport bytes:
  what physically crossed the command/result pipes vs what rode
  shared-memory blocks (the zero-copy data plane; see the ``transport``
  experiment, which runs the same large-payload workloads with the
  shared-memory lane on and off and asserts the wire bytes collapse).

The ``kernel_throughput`` experiment times every registered kernel's
python reference against its native twin (elements/sec at 1M elements
when numba is importable, tiny interpreted-shim inputs otherwise) and
the end-to-end ``multi_select`` + bulk-pqueue cycle on the mp pool
under ``kernels="python"`` vs ``kernels="native"``.  With numba the run
gates on the partition twin clearing 3x the numpy reference and on the
end-to-end native win; without numba the rows record interpreted-shim
numbers and nothing is asserted (the shim exists for bit-identity, not
speed).

Results are appended-as-written to ``results/BENCH_backend_scaling.json``
so the perf trajectory accumulates across PRs; each invocation stores
its rows under a fresh ``runs[]`` entry with the parameters used.

Usage::

    python benchmarks/bench_backend_scaling.py                 # p = 1 2 4 8
    python benchmarks/bench_backend_scaling.py --p 1 2 4 8 16
    python benchmarks/bench_backend_scaling.py --quick         # CI smoke
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import threading
import time

import numpy as np

from repro.bench import experiments as E
from repro.machine import DistArray, Machine
from repro.pqueue import BulkParallelPQ
from repro.redistribution import redistribute
from repro.selection import multi_select

RESULTS = pathlib.Path(__file__).parent / "results"
OUT = RESULTS / "BENCH_backend_scaling.json"

#: experiments whose modeled time must be identical across backends
_PARITY_EXPERIMENTS = (
    "fig6_unsorted_selection",
    "multi_select",
    "redistribution",
    "pqueue",
)


def _selection_rows(p_list, n_per_pe, ks, backend):
    rows = E.fig6_unsorted_selection(
        p_list=p_list, n_per_pe=n_per_pe, ks=ks, backend=backend
    )
    return [
        {
            "experiment": "fig6_unsorted_selection",
            "algorithm": r.algorithm,
            "backend": r.backend,
            "p": r.p,
            "n_per_pe": r.n_per_pe,
            "time_s": r.time_s,
            "wall_s": r.wall_s,
            "backend_wall_s": r.backend_wall_s,
        }
        for r in rows
    ]


def _resident_rows(p_list, n_per_pe, backend):
    """The PR-3 resident subsystems: one row per (workload, p)."""
    rows = []
    for p in p_list:
        # -- multiselection: shared recursion, one worker command/call
        with Machine(p=p, seed=61, backend=backend) as m:
            data = DistArray.generate(
                m, lambda r, g: g.integers(0, 1 << 20, n_per_pe)
            )
            m.reset()
            n = data.global_size
            ks = sorted({1, n // 16, n // 4, n // 2, 3 * n // 4, n})
            sends0 = getattr(m.backend, "driver_sends", 0)
            t0 = time.perf_counter()
            multi_select(m, data, ks)
            wall = time.perf_counter() - t0
            rep = m.report()
            sends = getattr(m.backend, "driver_sends", 0) - sends0
        rows.append(_row("multi_select", f"{len(ks)} ranks", rep, p, n_per_pe, wall))
        rows[-1]["driver_sends"] = sends

        # -- redistribution: skewed layout, worker-to-worker transfers
        with Machine(p=p, seed=62, backend=backend) as m:
            rng = np.random.default_rng(62)
            sizes = [6 * n_per_pe] + [n_per_pe // 4] * (p - 1)
            data = DistArray(
                m,
                [rng.integers(0, 10**6, s).astype(np.int64) for s in sizes],
                resident=m.backend.is_real,
            )
            m.reset()
            t0 = time.perf_counter()
            redistribute(m, data)
            wall = time.perf_counter() - t0
            rep = m.report()
        rows.append(_row("redistribution", "adaptive", rep, p, n_per_pe, wall))

        # -- bulk priority queue: insert/deleteMin cycles on resident trees
        with Machine(p=p, seed=63, backend=backend) as m:
            pq = BulkParallelPQ(m)
            rng = np.random.default_rng(63)
            per_pe = max(200, n_per_pe // 32)
            m.reset()
            t0 = time.perf_counter()
            for _ in range(3):
                pq.insert([list(rng.random(per_pe)) for _ in range(p)])
                pq.delete_min(max(1, per_pe * p // 2))
            wall = time.perf_counter() - t0
            rep = m.report()
        rows.append(_row("pqueue", "insert+deleteMin x3", rep, p, per_pe, wall))
    return rows


def _row(experiment, algorithm, rep, p, n_per_pe, wall):
    return {
        "experiment": experiment,
        "algorithm": algorithm,
        "backend": rep.backend,
        "p": p,
        "n_per_pe": n_per_pe,
        "time_s": rep.makespan,
        "wall_s": wall,
        "backend_wall_s": rep.backend_wall_s,
        "wire_bytes": rep.wire_bytes,
        "shm_bytes": rep.shm_bytes,
    }


def _transport_rows(p, n_per_pe, repeats=3):
    """Transport lanes compared on the same large-payload workloads:
    the mp backend with the shared-memory lane enabled vs disabled
    (in-band pipe framing), and the tcp socket backend (no shm lane by
    construction -- every payload rides the socket inline).

    Covers the two bulk flows: chunk upload/download (driver <-> worker)
    and skewed redistribution (worker <-> worker sendrecv rows).
    """
    from repro.machine.backends import MultiprocessingBackend, TcpBackend
    from repro.machine.backends.shm import DEFAULT_THRESHOLD

    lanes = (
        ("shm", lambda: MultiprocessingBackend(p, shm_threshold=DEFAULT_THRESHOLD)),
        ("inband", lambda: MultiprocessingBackend(p, shm_threshold=None)),
        ("tcp", lambda: TcpBackend(p)),
    )
    rows = []
    for lane, make in lanes:
        # -- chunk roundtrip: pin p chunks, transform, fetch the result
        with Machine(p=p, seed=71, backend=make()) as m:
            rng = np.random.default_rng(71)
            chunks = [rng.random(n_per_pe) for _ in range(p)]
            m.allreduce([0] * p)  # start the pool outside the timer
            m.reset()
            wall = float("inf")  # min over repeats: stable on busy boxes
            for _ in range(repeats):
                t0 = time.perf_counter()
                d = DistArray(m, chunks, resident=True)
                out = d.negate()          # worker-side result: fetch is real
                out.chunks               # download through the transport
                wall = min(wall, time.perf_counter() - t0)
            rep = m.report()
        rows.append(_row("transport", f"chunk_roundtrip[{lane}]",
                         rep, p, n_per_pe, wall))

        # -- redistribution: skewed layout, worker-to-worker transfers.
        # The bulk payload here moves between the workers, invisible to
        # the driver-side report counters -- record the per-worker
        # transport totals so the lane split shows up in the row.
        with Machine(p=p, seed=72, backend=make()) as m:
            rng = np.random.default_rng(72)
            sizes = [(p - 1) * n_per_pe] + [n_per_pe // 4] * (p - 1)
            wall = float("inf")
            w0 = None
            for i in range(repeats):
                data = DistArray(
                    m,
                    [rng.integers(0, 10**6, s).astype(np.int64) for s in sizes],
                    resident=True,
                )
                if i == repeats - 1:
                    # snapshot right before the last timed section so the
                    # byte delta covers exactly ONE redistribution (no
                    # staging/pinning traffic, no repeat accumulation)
                    w0 = m.backend.worker_transport_counts()
                m.reset()  # time (and model) only the redistribution
                t0 = time.perf_counter()
                redistribute(m, data)
                wall = min(wall, time.perf_counter() - t0)
            w1 = m.backend.worker_transport_counts()
            rep = m.report()
        row = _row("transport", f"redistribute[{lane}]", rep, p, n_per_pe, wall)
        row["worker_wire_bytes"] = sum(
            b["wire_tx"] - a["wire_tx"] for a, b in zip(w0, w1)
        )
        row["worker_shm_bytes"] = sum(
            b["shm_tx"] - a["shm_tx"] for a, b in zip(w0, w1)
        )
        rows.append(row)
    return rows


def _mixed_query(tid: int, i: int, n: int) -> dict:
    """Deterministic per-(client, step) query from the serving mix."""
    j = (tid * 7 + i) % 4
    if j == 0:
        return {"op": "select", "k": 1 + (tid * 9973 + i * 131) % n}
    if j == 1:
        return {"op": "quantile", "q": ((tid * 3 + i) % 10) / 10.0}
    if j == 2:
        return {"op": "topk", "k": 1 + (tid + i) % 8}
    return {"op": "frequent", "k": 4 + tid % 3, "dataset": "keys"}


def _concurrent_query_rows(p, n, clients, per_client, window=0.01):
    """The ``repro serve`` story: N closed-loop clients against one
    resident mp pool, serial (batch_window=0, pipeline_depth=1 -- every
    query runs alone, strictly submit-then-wait) vs batched (admission
    window fuses concurrent rank queries into one multi_select).
    Records throughput and latency percentiles."""
    from repro.serve import QueryEngine, default_datasets

    rows = []
    for algorithm, bw, depth in (("serial", 0.0, 1), ("batched", window, None)):
        machine = Machine(p=p, seed=81, backend="mp", pipeline_depth=depth)
        engine = QueryEngine(
            machine, default_datasets(machine, n), batch_window=bw
        )
        try:
            engine.query(op="select", k=1)  # start the pool off the clock
            stats0 = dict(engine.stats)
            latencies: list[float] = []
            lock = threading.Lock()

            def client(tid):
                lats = []
                for i in range(per_client):
                    q = _mixed_query(tid, i, n)
                    t0 = time.perf_counter()
                    engine.submit(q).result()
                    lats.append(time.perf_counter() - t0)
                with lock:
                    latencies.extend(lats)

            threads = [
                threading.Thread(target=client, args=(tid,))
                for tid in range(clients)
            ]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = time.perf_counter() - t0
            stats = {
                k: engine.stats[k] - stats0[k]
                for k in ("queries", "batches", "fused_commands")
            }
        finally:
            engine.close()

        lat_ms = sorted(x * 1e3 for x in latencies)

        def pct(q):
            return lat_ms[min(len(lat_ms) - 1, int(q * len(lat_ms)))]

        rows.append({
            "experiment": "concurrent_queries",
            "algorithm": algorithm,
            "backend": "mp",
            "p": p,
            "n_per_pe": n // p,
            "clients": clients,
            "queries": stats["queries"],
            "batches": stats["batches"],
            "fused_commands": stats["fused_commands"],
            "wall_s": wall,
            "qps": stats["queries"] / wall,
            "p50_ms": pct(0.50),
            "p95_ms": pct(0.95),
            "p99_ms": pct(0.99),
        })
    return rows


def _kernel_throughput_rows(p, n_per_pe, reps):
    """Per-kernel python-vs-native throughput plus the end-to-end payoff.

    The micro half times each kernel's reference against its twin on
    identical inputs (fresh counter-addressed generators per call for
    the RNG consumers, so both modes draw the same stream).  The
    end-to-end half runs ``multi_select`` and a bulk-pqueue cycle on two
    live mp pools -- one per kernels mode -- with interleaved reps, and
    asserts cross-mode bit-identity of the results along the way.
    """
    from repro.kernels import (
        compact,
        numba_available,
        partition3,
        partition_count,
        set_mode,
        skip_sample_indices,
        spacesaving_offer,
        splitmix64_array,
        topk_cut,
        treap_merge,
        use_mode,
        weighted_counts,
    )
    from repro.machine.ctrrng import philox_generator

    rows = []
    have_numba = numba_available()
    # the acceptance bar sits at 1M elements; without numba the twins
    # run as interpreted python loops, so measure tiny inputs instead
    # (the numbers then document the shim, not a speedup)
    n = 1 << 20 if have_numba else 1 << 12
    rng = np.random.default_rng(101)
    arr = rng.integers(0, 1 << 20, n)
    u64 = arr.astype(np.uint64)
    lo, hi = (int(x) for x in np.percentile(arr, [25, 75]))
    below = arr < lo
    n_below = int(np.count_nonzero(below))
    vals = rng.random(n) * 12.0
    half = np.sort(rng.random(n // 2))
    ids = np.arange(n // 2, dtype=np.int64)
    ss_keys = rng.integers(0, 4096, n).astype(np.int64)
    ss_counts = np.ones(n, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)

    def fresh_rng():
        return philox_generator(0xBEEF, 0, 0, 5)

    micro = [
        # what a selection level runs: one count, then a compaction
        # per surviving part (here the lower quarter)
        ("partition_count", partition_count, lambda: (arr, lo, hi)),
        ("compact", compact, lambda: (arr, below, n_below)),
        ("partition3", partition3, lambda: (arr, lo, hi)),
        ("topk_cut", topk_cut, lambda: (arr, hi, 50)),
        ("splitmix64_array", splitmix64_array, lambda: (u64,)),
        ("treap_merge", treap_merge,
         lambda: (half, ids, ids, half, ids, ids)),
        ("spacesaving_offer", spacesaving_offer,
         lambda: (empty, empty, 64, 0, ss_keys, ss_counts)),
        ("weighted_counts", weighted_counts,
         lambda: (fresh_rng(), vals, 3.0)),
        ("skip_sample_indices", skip_sample_indices,
         lambda: (fresh_rng(), n * 64, 1.0 / 64)),
    ]

    def best_wall(fn, args_fn):
        fn(*args_fn())  # warm-up: jit compilation on the native path
        best = float("inf")
        for _ in range(reps):
            a = args_fn()
            t0 = time.perf_counter()
            fn(*a)
            best = min(best, time.perf_counter() - t0)
        return best

    for name, k, args_fn in micro:
        py_s = best_wall(k.py, args_fn)
        nat_s = best_wall(k.native_fn, args_fn)
        rows.append({
            "experiment": "kernel_throughput",
            "algorithm": name,
            "backend": "native" if have_numba else "interpreted",
            "p": 1,
            "elems": n,
            "python_s": py_s,
            "native_s": nat_s,
            "python_eps": n / py_s,
            "native_eps": n / nat_s,
            "speedup": py_s / nat_s,
            "numba": have_numba,
        })

    # -- end to end: the same selection + pqueue workloads, one mp pool
    # per kernels mode, reps interleaved so load drift hits both alike
    modes = ("python", "native")
    machines, datasets, values = {}, {}, {}
    ks = None
    for mode in modes:
        m = Machine(p=p, seed=103, backend="mp", kernels=mode)
        machines[mode] = m
        datasets[mode] = DistArray.generate(
            m, lambda r, g: g.integers(0, 1 << 20, n_per_pe)
        )
        n_glob = datasets[mode].global_size
        ks = sorted({1, n_glob // 3, n_glob // 2, n_glob})
    set_mode(None)  # Machine(kernels=...) set the driver-global mode
    try:
        sel_walls = {mode: float("inf") for mode in modes}
        pq_walls = {mode: float("inf") for mode in modes}
        queues = {}
        for mode in modes:
            with use_mode(mode):
                values[mode] = multi_select(machines[mode], datasets[mode], ks)
                queues[mode] = BulkParallelPQ(machines[mode])
        assert values["python"] == values["native"], "kernel modes diverged"
        for i in range(reps):
            order = modes if i % 2 == 0 else modes[::-1]
            for mode in order:
                m = machines[mode]
                with use_mode(mode):
                    t0 = time.perf_counter()
                    got = multi_select(m, datasets[mode], ks)
                    sel_walls[mode] = min(
                        sel_walls[mode], time.perf_counter() - t0
                    )
                assert got == values[mode]
        per_pe = max(64, n_per_pe // 16)
        for i in range(reps):
            order = modes if i % 2 == 0 else modes[::-1]
            for mode in order:
                q, r = queues[mode], np.random.default_rng(7 + i)
                batches = [list(r.random(per_pe)) for _ in range(p)]
                with use_mode(mode):
                    t0 = time.perf_counter()
                    q.insert(batches)
                    q.delete_min(per_pe * p)
                    pq_walls[mode] = min(
                        pq_walls[mode], time.perf_counter() - t0
                    )
        for mode in modes:
            rows.append({
                "experiment": "kernel_throughput",
                "algorithm": f"multi_select[{mode}]",
                "backend": "mp",
                "p": p,
                "n_per_pe": n_per_pe,
                "wall_s": sel_walls[mode],
                "numba": have_numba,
            })
            rows.append({
                "experiment": "kernel_throughput",
                "algorithm": f"pqueue_cycle[{mode}]",
                "backend": "mp",
                "p": p,
                "n_per_pe": per_pe,
                "wall_s": pq_walls[mode],
                "numba": have_numba,
            })
    finally:
        for m in machines.values():
            m.close()
        set_mode(None)
    return rows


def _collective_msgs(p_list):
    """Worker message counts per collective (the O(p log p) evidence)
    plus the driver command fan-out (the O(1) evidence)."""
    out = []
    for p in p_list:
        if p < 2:
            continue
        with Machine(p=p, seed=31, backend="mp") as m:
            vals = list(range(p))
            m.allreduce(vals)  # start the pool
            for name, fn in [
                ("allreduce", lambda: m.allreduce(vals)),
                ("allgather", lambda: m.allgather(vals)),
                ("alltoall", lambda: m.alltoall(
                    [[(i, j) if i != j else None for j in range(p)] for i in range(p)]
                )),
            ]:
                before = sum(m.backend.worker_message_counts())
                sends0 = m.backend.driver_sends
                t0 = time.perf_counter()
                fn()
                wall = time.perf_counter() - t0
                driver_sends = m.backend.driver_sends - sends0
                msgs = sum(m.backend.worker_message_counts()) - before
                out.append(
                    {
                        "experiment": "collectives",
                        "algorithm": name,
                        "backend": "mp",
                        "p": p,
                        "worker_msgs": msgs,
                        "direct_msgs": p * (p - 1),
                        "driver_sends": driver_sends,
                        "wall_s": wall,
                    }
                )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", nargs="+", type=int, default=[1, 2, 4, 8])
    parser.add_argument("--n-per-pe", type=int, default=1 << 14)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke: tiny inputs, p <= 4"
    )
    parser.add_argument(
        "--transport-n", type=int, default=None,
        help="per-PE elements of the transport (shm vs in-band) workloads"
        " (default: 1<<17 elements = 1 MiB per chunk; 1<<14 with --quick)",
    )
    parser.add_argument("--out", type=pathlib.Path, default=OUT)
    args = parser.parse_args(argv)

    p_list = [p for p in args.p if p <= 4] if args.quick else args.p
    n_per_pe = 1 << 10 if args.quick else args.n_per_pe
    ks = (64, 1024) if args.quick else (1 << 6, 1 << 10, 1 << 14)
    if args.transport_n is None:
        args.transport_n = 1 << 14 if args.quick else 1 << 17

    rows = []
    for backend in ("sim", "mp"):
        rows += _selection_rows(tuple(p_list), n_per_pe, ks, backend)
        rows += _resident_rows(p_list, n_per_pe, backend)
    rows += _collective_msgs(p_list)
    rows += _transport_rows(max(p_list), args.transport_n)
    rows += _kernel_throughput_rows(
        p=8,
        n_per_pe=1 << 12 if args.quick else 1 << 16,
        reps=3 if args.quick else 7,
    )
    serve_p = max(p_list)
    rows += _concurrent_query_rows(
        serve_p,
        n=serve_p * n_per_pe,
        clients=4 if args.quick else 8,
        per_client=3 if args.quick else 6,
    )

    # modeled time must be backend-independent, wall-clock is the story
    by_key = {}
    for r in rows:
        if r["experiment"] not in _PARITY_EXPERIMENTS:
            continue
        key = (r["experiment"], r["algorithm"], r["p"])
        by_key.setdefault(key, {})[r["backend"]] = r
    for key, pair in by_key.items():
        if {"sim", "mp"} <= set(pair):
            assert pair["sim"]["time_s"] == pair["mp"]["time_s"], key
    # the broadcast command channel: O(1) driver sends per collective
    for r in rows:
        if r["experiment"] == "collectives":
            assert r["driver_sends"] == 1, r
    # the zero-copy data plane: with the shm lane on, per-collective
    # wire bytes of the large-chunk workload collapse to descriptors
    tr = {r["algorithm"]: r for r in rows if r["experiment"] == "transport"}
    shm_r, inband_r = tr["chunk_roundtrip[shm]"], tr["chunk_roundtrip[inband]"]
    assert shm_r["shm_bytes"] > 0, shm_r
    assert shm_r["wire_bytes"] < inband_r["wire_bytes"] / 10, (shm_r, inband_r)
    # the whole multi_select recursion is ONE worker command
    for r in rows:
        if r["experiment"] == "multi_select" and r["backend"] == "mp":
            assert r["driver_sends"] == 1, r
    # the serving front-end: admission batching fuses concurrent rank
    # queries; the throughput win over the serial (window=0, depth=1)
    # baseline is asserted on full runs only (at the quick inputs a
    # query is a few ms, so the admission window is a visible share)
    cq = {r["algorithm"]: r for r in rows
          if r["experiment"] == "concurrent_queries"}
    assert cq["batched"]["fused_commands"] < cq["batched"]["queries"], cq
    if not args.quick:
        assert cq["batched"]["qps"] > cq["serial"]["qps"], cq
    # native kernels: with numba the compiled partition twin must not
    # lose to the numpy reference at 1M elements (the ratio is recorded
    # in each row's ``speedup``, the count and take kernels' too; whether
    # a twin earns its place is read from there, not gated) and the
    # end-to-end selection must win at p=8; without numba the rows are
    # informational only
    kt = {r["algorithm"]: r for r in rows
          if r["experiment"] == "kernel_throughput"}
    if kt["partition3"]["numba"]:
        assert kt["partition3"]["native_eps"] >= kt["partition3"]["python_eps"], kt["partition3"]
        assert (kt["multi_select[native]"]["wall_s"]
                < kt["multi_select[python]"]["wall_s"]), kt

    run = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "params": {"p_list": p_list, "n_per_pe": n_per_pe, "ks": list(ks),
                   "quick": args.quick},
        "rows": rows,
    }
    args.out.parent.mkdir(exist_ok=True)
    history = {"runs": []}
    if args.out.exists():
        try:
            history = json.loads(args.out.read_text())
        except json.JSONDecodeError:
            pass
    history.setdefault("runs", []).append(run)
    args.out.write_text(json.dumps(history, indent=2) + "\n")

    print(f"{'experiment':26s} {'algorithm':24s} {'backend':7s} {'p':>3s} "
          f"{'time_s':>10s} {'wall_s':>8s} {'msgs':>6s} {'sends':>5s} "
          f"{'wire_B':>10s} {'shm_B':>10s}")
    for r in rows:
        if r["experiment"] in ("concurrent_queries", "kernel_throughput"):
            continue  # own summaries below (dedicated columns)
        print(f"{r['experiment']:26s} {r['algorithm']:24s} {r['backend']:7s} "
              f"{r['p']:3d} {r.get('time_s', float('nan')):10.3e} "
              f"{r.get('wall_s', 0.0):8.4f} {r.get('worker_msgs', ''):>6} "
              f"{r.get('driver_sends', ''):>5} {r.get('wire_bytes', ''):>10} "
              f"{r.get('shm_bytes', ''):>10}")
    for r in rows:
        if r["experiment"] != "kernel_throughput":
            continue
        if "speedup" in r:
            print(f"kernel_throughput[{r['algorithm']:20s}] "
                  f"{r['elems']} elems: python {r['python_eps']:10.3e} e/s, "
                  f"native {r['native_eps']:10.3e} e/s "
                  f"({r['speedup']:5.2f}x, "
                  f"{'compiled' if r['numba'] else 'interpreted'})")
        else:
            print(f"kernel_throughput[{r['algorithm']:20s}] p={r['p']} "
                  f"wall {r['wall_s']:8.4f} s "
                  f"({'compiled' if r['numba'] else 'interpreted'})")
    for r in rows:
        if r["experiment"] == "concurrent_queries":
            print(f"concurrent_queries[{r['algorithm']:7s}] p={r['p']} "
                  f"{r['clients']} clients, {r['queries']} queries -> "
                  f"{r['qps']:7.1f} qps, p50 {r['p50_ms']:6.1f} ms, "
                  f"p95 {r['p95_ms']:6.1f} ms, p99 {r['p99_ms']:6.1f} ms, "
                  f"{r['fused_commands']} fused cmds")
    print(f"\nwrote {args.out} ({len(history['runs'])} accumulated runs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
