#!/usr/bin/env python3
"""A/A protocol: prove the declared bounds on identical code.

    python3 benchmarks/ledger/aa.py --sets 3 --runs 10

runs the whole benchmark (every workload, untraced, fresh process per
run, seeds ``1..runs`` in every set) as ``sets`` sets that start at
least ``--gap-seconds`` apart, and prints per (metric, workload) the
set medians, the largest gap between two set medians as a share of the
smaller, the widest within-set quartile spread, and the bound.  Exits
non-zero if a gap of an end-to-end metric exceeds half its bound, a
model count differs between any two runs, or any operation failed.  The
metrics of ``harness.ungated`` follow as rows that gate nothing, beside
the bounds the issue gave them: the evidence they are per-layer metrics
on.  ``--out`` writes the table as JSON (``AA_RESULTS.json`` is such a
table).  Ten runs a set is what the benchmark's driver compares medians
of.
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

#: the metrics of ``harness.ungated`` and the bounds ISSUE 12 gave them
#: as end-to-end metrics
UNGATED = {"e2e.call_ms_p50": 0.10, "e2e.work_per_s": 0.10,
           "e2e.speedup_vs_sim": 0.06, "e2e.peak_rss_mb": 0.05}
#: end-to-end metrics that must read the same in every run
EXACT = ("model_words", "model_startups")


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One fresh-process run; returns ``(report, result)``."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list) -> float:
    """Quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sets", type=int, default=3)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--gap-seconds", type=float, default=120.0,
                    help="minimum time between the starts of two sets")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = list(bounds) + list(UNGATED)
    # values[workload][metric][set] = [one value per run]
    values: dict = {w: {m: [[] for _ in range(args.sets)] for m in metrics}
                    for w in args.workloads}
    raw: dict = {w: [[] for _ in range(args.sets)] for w in args.workloads}
    blocks: dict = {w: [] for w in args.workloads}
    failed = attempted = 0
    contended = 0
    for s in range(args.sets):
        started = time.monotonic()
        for run in range(args.runs):
            for w in args.workloads:
                report, result = run_once(w, seed=run + 1, seconds=args.seconds)
                failed += result["failed"]
                attempted += result["attempted"]
                contended += int(report["contended"])
                raw[w][s].append(report["uncorrected"])
                blocks[w].append([
                    {key: b[key] for key in ("ops", "setups_s", "raw_ms_p50", "sim_ms_p50",
                                             "ratio_p50", "yard_ms", "rss_mb",
                                             "foreign_cpu_frac")}
                    for b in report["blocks"]
                ])
                for m in bounds:
                    values[w][m][s].append(result["metrics"][m]["value"])
                for m in UNGATED:
                    values[w][m][s].append(report["ungated"][m])
                print(f"set {s + 1} run {run + 1} {w}: "
                      + " ".join(f"{m}={values[w][m][s][-1]:.4g}" for m in metrics),
                      file=sys.stderr)
        if s + 1 < args.sets:
            time.sleep(max(0.0, args.gap_seconds - (time.monotonic() - started)))

    rows = []
    ok = failed == 0
    for w in args.workloads:
        for m in metrics:
            medians = [statistics.median(v) for v in values[w][m]]
            gated = m in bounds
            row = {
                "workload": w, "metric": m, "unit": units[m], "gated": gated,
                "values": values[w][m], "set_medians": medians,
                "gap": (max(medians) - min(medians)) / min(medians),
                "spread": max(spread(v) for v in values[w][m]),
                "bound": bounds[m] if gated else UNGATED[m],
            }
            if m in EXACT:
                row["ok"] = len({x for v in values[w][m] for x in v}) == 1
            else:
                row["ok"] = row["gap"] <= row["bound"] / 2
            ok = ok and (row["ok"] or not gated)
            rows.append(row)
    table = {
        "sets": args.sets, "runs": args.runs, "seconds": args.seconds,
        "attempted": attempted, "failed": failed, "contended_runs": contended,
        "uncorrected": {
            w: {key: [[r[key] for r in per_set] for per_set in raw[w]]
                for key in ("call_ms_p50", "yard_ms")}
            for w in args.workloads
        },
        "rows": rows,
        "blocks": blocks,
    }
    print(f"{'workload':20s} {'metric':16s} {'gap':>7s} {'spread':>7s} {'bound':>6s}  set medians")
    for r in rows:
        flag = "" if r["ok"] else (
            "  <-- over half the bound" if r["gated"]
            else "  (not gated: over half the issue's bound)")
        print(f"{r['workload']:20s} {r['metric']:16s} {r['gap']:7.2%} {r['spread']:7.2%} "
              f"{r['bound']:6.2f}  " + " ".join(f"{v:.5g}" for v in r["set_medians"]) + flag)
    print(f"attempted {attempted}, failed {failed}, contended runs {contended}")
    if args.out:
        args.out.write_text(json.dumps(table, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
