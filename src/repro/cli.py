"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Show the machine presets and package inventory.
``demo``
    A one-minute guided tour (selection, frequent objects, PQ).
``selftest``
    Fast end-to-end correctness pass against driver-side oracles.
``experiment <name> [...]``
    Run one of the paper-figure experiment drivers and print its table
    (same registry as ``benchmarks/run_all.py``).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Communication-efficient top-k selection (IPDPS 2016) "
        "on a simulated alpha-beta machine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from .machine import available_backends

    backend_help = {
        "sim": "'sim' = modeled in-process (default)",
        "mp": "'mp' = one worker process per PE (real parallelism)",
        "tcp": "'tcp' = socket workers, multi-host via REPRO_TCP_HOSTS",
    }

    def add_backend_arg(p):
        names = available_backends()
        p.add_argument(
            "--backend",
            choices=names,
            default="sim",
            help="execution backend: " + ", ".join(
                backend_help.get(n, f"{n!r} (registered)") for n in names
            ),
        )

    sub.add_parser("info", help="machine presets and package inventory")

    demo = sub.add_parser("demo", help="guided tour of the core algorithms")
    demo.add_argument("-p", type=int, default=8, help="number of PEs")
    demo.add_argument("--seed", type=int, default=2016)
    add_backend_arg(demo)

    selftest = sub.add_parser("selftest", help="fast oracle-checked pass")
    selftest.add_argument("-p", type=int, default=8)
    add_backend_arg(selftest)

    exp = sub.add_parser("experiment", help="run a paper-figure experiment")
    exp.add_argument("name", help="experiment name (see `repro info`)")
    add_backend_arg(exp)

    serve = sub.add_parser(
        "serve",
        help="serve concurrent top-k/select/frequent queries over one "
        "resident worker pool (JSON lines over TCP)",
    )
    serve.add_argument("-p", type=int, default=4, help="number of PEs")
    add_backend_arg(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = ephemeral; the bound port is "
                       "printed as 'ready port=<n>')")
    serve.add_argument("--seed", type=int, default=2016)
    serve.add_argument("--dataset-size", type=int, default=100_000,
                       help="elements per stock dataset")
    serve.add_argument("--batch-window", type=float, default=0.005,
                       help="admission window in seconds (0 disables "
                       "query fusion)")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="max queries fused per batch")
    serve.add_argument("--command-timeout", type=float, default=None,
                       help="per-command deadline in seconds before a "
                       "non-answering pool raises WorkerFailure")
    serve.add_argument("--journal", action="store_true",
                       help="record chunk provenance so a broken pool is "
                       "rebuilt automatically (bit-identical restore)")
    serve.add_argument("--faults", default=None,
                       help="deterministic fault plan, e.g. 'kill@r1:s3' "
                       "(testing; also read from REPRO_FAULTS)")
    serve.add_argument("--query-deadline", type=float, default=None,
                       help="seconds a query may wait before it expires "
                       "(per-query 'deadline' field overrides)")
    serve.add_argument("--max-queue", type=int, default=1024,
                       help="admission bound; beyond it submits fail fast "
                       "with an overloaded error")

    return parser


def _cmd_info() -> int:
    from .machine.calibrate import _PRESETS

    print("machine presets (alpha startup, beta per word, per-op):")
    for name, c in sorted(_PRESETS.items()):
        print(f"  {name:<20s} alpha={c.alpha:.2e}s beta={c.beta:.2e}s/word "
              f"op={c.time_per_op:.2e}s")
    from .machine import available_backends

    print("\nexecution backends (select with --backend):")
    print(f"  {', '.join(available_backends())}")
    print("\nexperiments (run with: repro experiment <name>):")
    from .bench import experiments as E

    for name in E.__all__:
        if name.startswith(("fig", "table", "selection", "priority",
                            "multicriteria", "sum", "redistribution",
                            "ablation", "collectives")):
            print(f"  {name}")
    return 0


def _cmd_demo(p: int, seed: int, backend: str = "sim") -> int:
    from .machine import DistArray, Machine
    from .frequent import top_k_frequent_pac
    from .pqueue import BulkParallelPQ
    from .selection import select_kth

    machine = Machine(p=p, seed=seed, backend=backend)
    print(f"[1/3] selection on {p} PEs ({backend} backend)")
    data = DistArray.generate(machine, lambda r, g: g.random(50_000))
    k = len(data) // 2
    median = select_kth(machine, data, k)
    print(f"      median of {len(data):,} values = {median:.6f} "
          f"(volume {machine.metrics.bottleneck_words:.0f} words/PE)")

    print(f"[2/3] top-8 frequent objects")
    from .common import zipf_sample

    machine.reset()
    keys = DistArray.generate(
        machine, lambda r, g: zipf_sample(g, 20_000, universe=1 << 12, s=1.1)
    )
    res = top_k_frequent_pac(machine, keys, 8, eps=2e-2, delta=1e-3)
    print(f"      {[(int(key), round(c)) for key, c in res.items[:4]]} ... "
          f"(rho={res.rho:.3f})")

    print(f"[3/3] bulk priority queue")
    machine.reset()
    pq = BulkParallelPQ(machine)
    pq.insert([machine.rngs[i].random(500) for i in range(p)])
    batch = pq.delete_min_flexible(32, 64)
    print(f"      deleteMin* -> k={batch.k} in {batch.rounds} round(s); "
          f"insertion traffic was {machine.metrics.by_kind.get('p2p', 0):.0f} words "
          f"(communication-free)")
    if machine.backend.is_real:
        print(f"      backend wall-clock: {machine.backend.wall_time:.3f}s")
    machine.close()
    return 0


def _cmd_selftest(p: int, backend: str = "sim") -> int:
    from .machine import DistArray, Machine
    from .frequent import exact_counts_oracle, top_k_frequent_exact
    from .selection import ms_select, select_kth

    failures = 0
    machine = Machine(p=p, seed=7, backend=backend)
    data = DistArray.generate(machine, lambda r, g: g.integers(0, 10**6, 2000))
    oracle = np.sort(data.concat())
    for k in (1, len(oracle) // 2, len(oracle)):
        got = select_kth(machine, data, k)
        ok = got == oracle[k - 1]
        failures += not ok
        print(f"  select_kth k={k:<8d} {'OK' if ok else 'FAIL'}")
    seqs = [np.sort(c) for c in data.chunks]
    got = ms_select(machine, seqs, 1234)
    ok = got == oracle[1233]
    failures += not ok
    print(f"  ms_select k=1234    {'OK' if ok else 'FAIL'}")
    keys = DistArray.generate(machine, lambda r, g: g.integers(0, 64, 5000))
    res = top_k_frequent_exact(machine, keys, 5)
    true = sorted(exact_counts_oracle(keys).items(), key=lambda t: (-t[1], t[0]))[:5]
    ok = [(key, int(c)) for key, c in res.items] == true
    failures += not ok
    print(f"  frequent exact      {'OK' if ok else 'FAIL'}")
    print("selftest:", "PASS" if failures == 0 else f"{failures} FAILURES")
    machine.close()
    return 1 if failures else 0


def _cmd_experiment(name: str, backend: str = "sim") -> int:
    from .bench import experiments as E
    from .bench import format_table

    if not hasattr(E, name):
        print(f"unknown experiment {name!r}; try `repro info`")
        return 2
    rows = getattr(E, name)(backend=backend)
    print(format_table(rows))
    return 0


def _cmd_serve(args) -> int:
    from .machine import Machine
    from .serve import QueryEngine, default_datasets
    from .serve.server import serve_forever

    machine = Machine(
        p=args.p, seed=args.seed, backend=args.backend,
        command_timeout=args.command_timeout,
        faults=args.faults, journal=args.journal,
    )
    datasets = default_datasets(machine, args.dataset_size)
    engine = QueryEngine(
        machine, datasets,
        batch_window=args.batch_window, max_batch=args.max_batch,
        max_queue=args.max_queue, query_deadline=args.query_deadline,
    )
    print(f"serving p={args.p} backend={args.backend} "
          f"datasets={sorted(datasets)} window={args.batch_window}s",
          flush=True)
    serve_forever(engine, host=args.host, port=args.port)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "info":
        return _cmd_info()
    if args.command == "demo":
        return _cmd_demo(args.p, args.seed, args.backend)
    if args.command == "selftest":
        return _cmd_selftest(args.p, args.backend)
    if args.command == "experiment":
        return _cmd_experiment(args.name, args.backend)
    if args.command == "serve":
        return _cmd_serve(args)
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
