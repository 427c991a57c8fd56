"""Serve failure-isolation smoke: one injected worker death (CI).

Spawns a real server subprocess with a deterministic fault plan that
kills one worker rank partway into the query stream, then drives the
server through the death:

* the queries whose batch absorbed the failure get an error response
  (never a hang -- bounded by the pool's ``command_timeout``),
* the engine performs exactly one pool rebuild
  (``stats["worker_failures"] >= 1``, ``stats["rebuilds"] >= 1``),
* every query issued after the rebuild answers correctly, checked
  against the deterministic sim oracle (recovery replays the stock
  datasets' lineage -- their generating commands -- in the workers;
  there is no option to turn on).

Run as ``python -m repro.serve.chaos [--backend mp|tcp] [-p 4]``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

__all__ = ["main"]


def _spawn_server(args, faults: str) -> tuple[subprocess.Popen, int]:
    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "-p", str(args.p), "--backend", args.backend, "--port", "0",
         "--seed", str(args.seed), "--dataset-size", str(args.size),
         "--batch-window", "0.02", "--command-timeout", "15",
         "--faults", faults],
        stdout=subprocess.PIPE, stderr=None, text=True, env=env,
    )
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited before becoming ready (rc={proc.poll()})"
            )
        if line.startswith("ready port="):
            return proc, int(line.split("=", 1)[1])
    proc.kill()
    raise RuntimeError("server did not become ready in time")


def _oracle(args) -> np.ndarray:
    from ..machine import Machine
    from .engine import default_datasets

    with Machine(p=args.p, seed=args.seed, backend="sim") as m:
        ds = default_datasets(m, args.size)
        return np.sort(ds["default"].concat())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--backend", default="mp")
    ap.add_argument("-p", type=int, default=4)
    ap.add_argument("--seed", type=int, default=2016)
    ap.add_argument("--size", type=int, default=20_000)
    ap.add_argument("--kill-rank", type=int, default=None,
                    help="rank to kill (default: p - 1)")
    ap.add_argument("--kill-seq", type=int, default=None,
                    help="command seq to kill at (default: past dataset "
                    "staging so the death lands mid-query)")
    args = ap.parse_args(argv)

    rank = args.kill_rank if args.kill_rank is not None else args.p - 1
    # dataset staging costs two generation commands; default to a seq
    # that lands in the query stream proper
    seq = args.kill_seq if args.kill_seq is not None else 6
    faults = f"kill@r{rank}:s{seq}"

    values = _oracle(args)
    n = values.size
    proc, port = _spawn_server(args, faults)
    host = "127.0.0.1"
    try:
        from .client import ServeClient

        failed = 0
        answered = 0
        wrong: list[str] = []
        with ServeClient(host, port, timeout=60.0) as client:
            # enough serial queries to walk the seq counter over the
            # kill point; each query is >= 1 backend command
            for i in range(24):
                k = (i * 9973) % n + 1
                t0 = time.monotonic()
                try:
                    got = client.query("select", k=k)
                except RuntimeError as exc:
                    # the failing batch's queries error; the error must
                    # arrive promptly, not after a transport hang
                    took = time.monotonic() - t0
                    if took > 30.0:
                        wrong.append(
                            f"query {i}: failure took {took:.1f}s "
                            f"(not bounded): {exc}"
                        )
                    failed += 1
                    continue
                answered += 1
                if got != float(values[k - 1]):
                    wrong.append(
                        f"query {i}: got {got!r}, want {values[k - 1]!r}"
                    )
            stats = client.query("stats")
            client.query("shutdown")
        rc = proc.wait(timeout=60.0)

        print(f"chaos: plan {faults}: {answered} answered, {failed} failed "
              f"during the death; worker_failures="
              f"{stats.get('worker_failures')} rebuilds="
              f"{stats.get('rebuilds')}")
        if wrong:
            for w in wrong:
                print("FAIL:", w)
            return 1
        if stats.get("worker_failures", 0) < 1:
            print("FAIL: the injected death never surfaced as a "
                  "worker failure")
            return 1
        if stats.get("rebuilds", 0) < 1:
            print("FAIL: the engine never rebuilt the pool")
            return 1
        if failed == 0:
            print("FAIL: no query observed the failing batch (kill seq "
                  "landed outside the query stream?)")
            return 1
        if answered < 10:
            print(f"FAIL: only {answered} queries answered after the "
                  f"rebuild")
            return 1
        if rc != 0:
            print(f"FAIL: server exited rc={rc}")
            return 1
        print("chaos: PASS")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()


if __name__ == "__main__":
    raise SystemExit(main())
