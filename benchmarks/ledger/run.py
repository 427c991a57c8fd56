#!/usr/bin/env python3
"""The ledger benchmark: one command, one workload, every metric by name.

    python3 benchmarks/ledger/run.py --workload select-small --seed 1 \\
        --seconds 22 --trace 0

runs one workload on the ``mp`` backend at p = 2, checks every result,
and prints two lines of JSON: a report (provenance, both metric tables,
block details) and, last, the result object
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without ``--workload`` all six run; ``--quick`` is the smoke form
(one short block per pass, both passes, every workload).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

from ledger import harness, host, layers  # noqa: E402
from ledger.tracing import Tracer  # noqa: E402
from ledger.workloads import P, WORKLOADS  # noqa: E402

BLOCKS = 6
TRACE_BLOCKS = 3
QUICK_PASS_S = 0.5


def _with_units(values: dict, declared: list) -> dict:
    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"missing {missing}, undeclared {extra}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def model_step(name: str) -> dict:
    """:func:`harness.model_step` of workload ``name`` in a fresh process,
    so that the resident set it reports holds this workload and nothing
    the caller did before."""
    proc = subprocess.run(
        [sys.executable, __file__, "--model-step", "--workload", name],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"model step of {name} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool,
                 quick: bool, probes: dict | None) -> dict:
    """One workload; returns its report.  ``spec`` is BENCHMARK.json."""
    wl = WORKLOADS[name](seed)
    yardstick = host.Yardstick()
    report = {"workload": name, "why": wl.why, "work_unit": wl.work_unit,
              "provenance": host.provenance(ROOT, P, seed)}
    t0 = time.perf_counter()
    model = model_step(name)
    seconds = max(1.0, seconds - (time.perf_counter() - t0))
    if trace:
        n_blocks = 1 if quick else TRACE_BLOCKS
        plain = harness.run_pass(wl, seconds / 2, n_blocks, yardstick, None, quick)
        tracer = Tracer()
        with tracer.installed():
            traced = harness.run_pass(wl, seconds / 2, n_blocks, yardstick, tracer, quick)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{name}-{seed}.json"
        tracer.write_chrome(trace_file)
        per_layer = dict(probes)
        per_layer.update(harness.workload_layers(wl, plain, traced, tracer, probes))
        report["per_layer"] = _with_units(per_layer, spec["per_layer"])
        report["trace_file"] = str(trace_file.relative_to(ROOT))
        passes = [plain, traced]
    else:
        plain = harness.run_pass(wl, seconds, 1 if quick else BLOCKS, yardstick,
                                 None, quick)
        passes = [plain]
    report["end_to_end"] = _with_units(
        harness.end_to_end(wl, plain, model), spec["end_to_end"])
    report["ungated"] = harness.ungated(wl, plain)
    blocks = [b for p_ in passes for b in p_.blocks]
    report["attempted"] = sum(b.attempted for b in blocks)
    report["failed"] = sum(b.failed for b in blocks)
    report["contended"] = any(p_.contended for p_ in passes)
    report["uncorrected"] = {
        "call_ms_p50": statistics.median(
            s for b in plain.blocks for s in b.samples_ms),
        "yard_ms": statistics.median(y for b in plain.blocks for y in b.yard_ms),
    }
    report["blocks"] = [
        {"index": b.index, "ops": len(b.wall_ms), "setups_s": b.setups_s,
         "raw_ms_p50": statistics.median(b.samples_ms) if b.samples_ms else None,
         "sim_ms_p50": statistics.median(b.sim_ms) if b.sim_ms else None,
         "ratio_p50": statistics.median(b.ratios) if b.ratios else None,
         "yard_ms": statistics.median(b.yard_ms) if b.yard_ms else None,
         "rss_mb": b.rss_mb, "foreign_cpu_frac": b.foreign, "failed": b.failed,
         "error": b.error}
        for b in blocks
    ]
    return report


def main(argv=None) -> int:
    """Whatever way out is taken, no process this one started is left."""
    try:
        return _main(argv)
    finally:
        host.reap()


def _main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds "
                         "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="1: layer probes + an untraced and a traced pass, "
                         "per-layer metrics; 0: end-to-end metrics only")
    ap.add_argument("--quick", action="store_true",
                    help="smoke run: one short block per pass, traced, "
                         "every metric emitted")
    ap.add_argument("--model-step", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if host.nproc() < P:
        print(f"the ledger needs {P} cores for its {P} workers, "
              f"this host offers {host.nproc()}", file=sys.stderr)
        return 2
    if args.model_step:
        ref = WORKLOADS[args.workload](harness.MODEL_SEED)
        print(json.dumps(harness.model_step(ref)))
        return 0
    names = [args.workload] if args.workload else list(WORKLOADS)
    trace = bool(args.trace) or args.quick
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    t0 = time.perf_counter()
    probes = layers.probe_layers() if trace else None
    if args.quick:
        seconds = 2 * QUICK_PASS_S
    elif trace:
        seconds = max(2.0, seconds - (time.perf_counter() - t0))

    reports = [
        run_workload(spec, name, args.seed, seconds, trace, args.quick, probes)
        for name in names
    ]
    for report in reports:
        print(json.dumps(report))
    table = "per_layer" if args.trace else "end_to_end"
    if len(reports) == 1:
        metrics = reports[0][table]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in reports for k, v in r[table].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
