"""Tests of the benchmark itself (not part of the tier-1 suite):

    python -m pytest benchmarks/ledger/tests -q
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from ledger import harness, host, tracing
from ledger.workloads import WORKLOADS

LEDGER = Path(__file__).resolve().parents[1]
ROOT = LEDGER.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_correction_is_identity_at_nominal():
    assert host.correction([host.YARD_NOMINAL_MS] * 5) == 1.0
    assert host.correction([2 * host.YARD_NOMINAL_MS] * 3) == 0.5
    assert host.correction([]) == 1.0


def _session_pids(sid: int) -> list:
    """Processes (zombies too) whose session is ``sid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[3]) == sid:
                pids.append(int(entry))
    return pids


def test_quick_emits_every_declared_metric_and_nothing_else():
    t0 = time.monotonic()
    with subprocess.Popen(
        [sys.executable, str(LEDGER / "run.py"), "--quick"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        start_new_session=True,
    ) as proc:
        stdout, stderr = proc.communicate(timeout=120)
        # the moment it exits nothing it started is left: no worker, no
        # model-step child, no multiprocessing resource tracker
        assert _session_pids(proc.pid) == []
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, stderr[-2000:]
    lines = stdout.strip().splitlines()
    reports = [json.loads(line) for line in lines[:-1]]
    assert [r["workload"] for r in reports] == [w["name"] for w in SPEC["workloads"]]
    for report in reports:
        assert set(report["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(report["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        assert report["failed"] == 0, report["blocks"]
        assert report["provenance"]["yard_nominal_ms"] == host.YARD_NOMINAL_MS
        assert report["per_layer"]["shm.segments_live"]["value"] == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 6
    assert elapsed < 30, f"--quick took {elapsed:.1f}s"


def test_wrong_oracle_answer_counts_as_failed():
    wl = WORKLOADS["select-small"](1)
    wl.close(wl.open("sim"))  # fills the oracle
    wl._sorted[0] = wl._sorted[0] + 1  # now every expected value is off by one
    run = harness.run_pass(wl, seconds=0.5, n_blocks=1, yardstick=host.Yardstick(),
                           quick=True)
    block = run.blocks[0]
    assert block.attempted >= harness.WARMUPS + 2
    assert block.failed == block.attempted
    assert block.error is None  # wrong answers, not a crash


def test_block_in_which_an_operation_raised_is_not_measured(monkeypatch):
    wl = WORKLOADS["select-small"](1)
    run_op, calls = wl.run, []

    def flaky(ctx, op):
        if ctx.machine.backend.name == "mp":
            calls.append(op)
            # block 0: two warm-ups and one timed operation pass, then this
            if len(calls) == harness.WARMUPS + 2:
                raise RuntimeError("boom")
        return run_op(ctx, op)

    monkeypatch.setattr(wl, "run", flaky)
    run = harness.run_pass(wl, seconds=1.0, n_blocks=2, yardstick=host.Yardstick(),
                           quick=True)
    bad, good = run.blocks
    assert "boom" in bad.error and bad.failed == 1 and bad.samples_ms
    assert good.error is None and good.failed == 0
    # only the clean block's samples are in the metrics
    metrics = harness.ungated(wl, run)
    want = statistics.median(s * good.factor for s in good.samples_ms)
    assert metrics["e2e.call_ms_p50"] == want


def test_model_counts_repeat_and_ignore_the_host():
    first = harness.model_step(WORKLOADS["serve-mixed"](harness.MODEL_SEED))
    again = harness.model_step(WORKLOADS["serve-mixed"](harness.MODEL_SEED))
    assert set(first) == {"model_words", "model_startups", "peak_rss_mb"}
    assert all(v > 0 for v in first.values())
    for name in ("model_words", "model_startups"):
        assert first[name] == again[name]


def test_tracing_wrappers_are_restored():
    targets = tracing._targets()
    before = [vars(owner).get(attr) for owner, attr, _ in targets]
    tracer = tracing.Tracer()
    with tracer.installed():
        during = [vars(owner).get(attr) for owner, attr, _ in targets]
        assert all(d is not b for d, b in zip(during, before))
        wl = WORKLOADS["pqueue-cycle"](1)
        harness.run_pass(wl, seconds=0.5, n_blocks=1, yardstick=host.Yardstick(),
                         tracer=tracer, quick=True)
    after = [vars(owner).get(attr) for owner, attr, _ in targets]
    assert all(a is b for a, b in zip(after, before))
    layers = {s.layer for s in tracer.spans}
    assert {"host", "pqueue", tracing.RUNTIME, tracing.COMM} <= layers


def test_tracer_skips_an_entry_point_the_program_no_longer_has(monkeypatch):
    monkeypatch.setattr(tracing, "_MACHINE_CALLS",
                        tracing._MACHINE_CALLS + ("renamed_away",))
    from repro.machine import Machine
    with tracing.Tracer().installed():
        assert not hasattr(Machine, "renamed_away")
    assert not hasattr(Machine, "renamed_away")


def test_only_public_entry_points_are_wrapped():
    assert not [attr for _, attr, _ in tracing._targets() if attr.startswith("_")]


def test_contended_block_is_retried(monkeypatch):
    """The guard re-runs a block whose foreign CPU share is too high and
    flags the pass when it stays contended."""
    monkeypatch.setattr(host.CpuClock, "foreign_frac", lambda self: 0.5)
    wl = WORKLOADS["bulk-move"](1)
    run = harness.run_pass(wl, seconds=3.0, n_blocks=1, yardstick=host.Yardstick(),
                           quick=True)
    assert run.contended_blocks == harness.MAX_RETRIES
    assert run.contended
