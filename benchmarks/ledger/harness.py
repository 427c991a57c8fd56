"""Blocks, passes, and the metrics computed from them.

A *block* is one cold start (repeated up to six times when it is
short): new machine, pool start, data made resident, two untimed
warm-up operations; then timed operations until
the block's deadline, ``close()`` and a leak check.  The yardstick runs
between timed operations and every time of the block is scaled by
:func:`host.correction` of its runs.  A *pass* is a sequence of blocks
that shares a time budget; end-to-end metrics come from an untraced
pass only, and the model counts and the resident set among them from
:func:`model_step`, which depends on neither the host nor the seed.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import time
from dataclasses import dataclass, field

from repro.machine.backends import shm

from . import host
from .tracing import COMM, COMMAND_SPANS, RUNTIME, Tracer
from .workloads import Workload

__all__ = ["Block", "Pass", "end_to_end", "model_step", "run_pass", "ungated",
           "workload_layers"]

WARMUPS = 2
#: timed operations a block runs whatever the clock says
MIN_OPS = 4
MAX_RETRIES = 2
#: a block repeats its cold set-up (close, start again) while the
#: set-ups so far took less than this, at most ``MAX_SETUPS`` times:
#: a 0.1 s set-up is too noisy to be sampled six times a run only
SETUP_BUDGET_S = 0.5
MAX_SETUPS = 6
#: seed and length of the fixed schedule the model counts are read from
MODEL_SEED = 12
MODEL_OPS = 4

#: driver-side layers whose self time counts as "the algorithm's own"
ALGORITHM_LAYERS = ("selection", "pqueue", "redistribution", "frequent",
                    "aggregation", "serve")


@dataclass
class Block:
    index: int
    setups_s: list = field(default_factory=list)
    yard_ms: list = field(default_factory=list)
    #: wall of each timed operation, and its latency samples (the same
    #: thing unless an operation stands for many requests)
    wall_ms: list = field(default_factory=list)
    samples_ms: list = field(default_factory=list)
    sim_ms: list = field(default_factory=list)
    #: sim-twin time over mp time of the same operation, one per pair
    ratios: list = field(default_factory=list)
    work: list = field(default_factory=list)
    cpu_ms: float = 0.0
    sends: list = field(default_factory=list)
    wire: list = field(default_factory=list)
    shm: list = field(default_factory=list)
    backend_ms: list = field(default_factory=list)
    legs: dict = field(default_factory=dict)
    infos: list = field(default_factory=list)
    worker_msgs: int = 0
    max_inflight: int = 0
    rss_mb: float = 0.0
    foreign: float = 0.0
    attempted: int = 0
    failed: int = 0
    error: str | None = None

    @property
    def factor(self) -> float:
        """Host-speed correction of every time measured in this block."""
        return host.correction(self.yard_ms)


@dataclass
class Pass:
    blocks: list
    #: blocks thrown away and run again because the host was contended
    contended_blocks: int = 0

    @property
    def contended(self) -> bool:
        """A block that stayed contended after its retries is in."""
        return any(b.foreign > host.CONTENDED_FRAC for b in self.blocks)


def _check(wl: Workload, blk: Block, ctx, twin, op, out,
           mp_ms: list | None = None) -> None:
    """Oracle checks of one operation, outside every timed region: the
    sim twin runs the same operation, both results go to the workload's
    oracle, and the two must agree.  ``mp_ms`` (the operation's latency
    samples on mp) marks a timed operation."""
    blk.attempted += wl.units
    t0 = time.perf_counter()
    twin_out = wl.run(twin, op)
    sim_wall = (time.perf_counter() - t0) * 1e3
    bad = wl.verify(ctx, op, out) + wl.verify(twin, op, twin_out)
    bad += int(twin_out.digest != out.digest)
    if mp_ms is not None:
        sim_ms = twin_out.samples_ms or [sim_wall]
        blk.sim_ms += sim_ms
        blk.ratios.append(statistics.median(sim_ms) / statistics.median(mp_ms))
    blk.failed += min(bad, wl.units)


def run_block(wl: Workload, index: int, deadline: float, yardstick,
              tracer: Tracer | None = None, quick: bool = False) -> Block:
    """One block.  ``quick`` is the smoke form: one set-up, two timed
    operations whatever the clock says."""
    max_setups, min_ops = (1, 2) if quick else (MAX_SETUPS, MIN_OPS)
    blk = Block(index)
    gc.collect()
    clock = host.CpuClock()
    ops = wl.ops(index)
    twin = wl.open("sim")
    ctx = None
    try:
        warm = [next(ops) for _ in range(WARMUPS)]
        while True:
            t0 = time.perf_counter()
            ctx = wl.open("mp")
            warm_out = [wl.run(ctx, op) for op in warm]
            blk.setups_s.append(time.perf_counter() - t0)
            if len(blk.setups_s) == max_setups or sum(blk.setups_s) >= SETUP_BUDGET_S:
                break
            # results may alias the pool's shm segments: while they live,
            # the next pool gets fresh pages and starts 2-3x slower
            del warm_out
            wl.close(ctx)
        for op, out in zip(warm, warm_out):
            _check(wl, blk, ctx, twin, op, out)

        machine = ctx.machine
        backend = machine.backend
        pids = [c.pid for c in host.workers()]
        msgs0 = sum(backend.worker_message_counts())
        cpu0 = host.cpu_seconds(pids)
        gc.disable()
        start = time.perf_counter()
        done = 0
        while done < min_ops or (
            time.perf_counter() + (time.perf_counter() - start) / done <= deadline
        ):
            op = next(ops)
            if done % wl.yard_every == 0:
                blk.yard_ms.append(yardstick())
            machine.reset()
            sends0 = backend.driver_sends
            c0 = time.process_time()
            t0 = time.perf_counter()
            if tracer is None:
                out = wl.run(ctx, op)
            else:
                with tracer.operation(index * 100_000 + done + 1):
                    out = wl.run(ctx, op)
            wall = (time.perf_counter() - t0) * 1e3
            blk.cpu_ms += (time.process_time() - c0) * 1e3
            rep = machine.report()
            blk.wall_ms.append(wall)
            samples = out.samples_ms or [wall]
            blk.samples_ms += samples
            blk.work.append(wl.work(op, out))
            blk.sends.append(backend.driver_sends - sends0)
            blk.wire.append(rep.wire_bytes)
            blk.shm.append(rep.shm_bytes)
            blk.backend_ms.append(rep.backend_wall_s * 1e3)
            for leg, ms in out.legs.items():
                blk.legs.setdefault(leg, []).append(ms)
            blk.infos.append(out.info)
            _check(wl, blk, ctx, twin, op, out, samples)
            done += 1
        gc.enable()
        blk.cpu_ms += (host.cpu_seconds(pids) - cpu0) * 1e3
        blk.worker_msgs = sum(backend.worker_message_counts()) - msgs0
        blk.max_inflight = backend.max_inflight
        blk.rss_mb = host.peak_rss_mb()
    except Exception as exc:  # an operation raised or timed out: it failed
        blk.attempted += wl.units
        blk.failed += wl.units
        blk.error = f"{type(exc).__name__}: {exc}"
    finally:
        gc.enable()
        for c in (ctx, twin):
            if c is not None:
                try:
                    wl.close(c)
                except Exception as exc:
                    blk.error = blk.error or f"close: {type(exc).__name__}: {exc}"
    # nothing may outlive close(): no shm segment of this driver, no child
    leaked = shm.segment_names(f"reproshm-{os.getpid()}-")
    alive = host.workers()
    if leaked or alive:
        blk.failed = min(blk.attempted, blk.failed + 1)
        blk.error = blk.error or f"leak: segments={leaked} children={alive}"
        for child in alive:
            child.kill()
            child.join()
    blk.foreign = clock.foreign_frac()
    return blk


def run_pass(wl: Workload, seconds: float, n_blocks: int, yardstick,
             tracer: Tracer | None = None, quick: bool = False) -> Pass:
    """``n_blocks`` blocks inside ``seconds``.  A contended block is
    thrown away and run again, at most ``MAX_RETRIES`` times per pass;
    the blocks after it share what is left of the budget."""
    end = time.perf_counter() + seconds
    result = Pass([])
    for index in range(n_blocks):
        while True:
            slot = (end - time.perf_counter()) / (n_blocks - index)
            mark = len(tracer.spans) if tracer is not None else 0
            blk = run_block(wl, index, time.perf_counter() + slot, yardstick,
                            tracer, quick)
            if (blk.foreign <= host.CONTENDED_FRAC
                    or result.contended_blocks == MAX_RETRIES):
                break
            result.contended_blocks += 1
            if tracer is not None:
                del tracer.spans[mark:]  # the discarded block's spans
        result.blocks.append(blk)
    return result


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def _tail(samples: list) -> float:
    """p90, lowered to the highest percentile that still has ten samples
    beyond it when there are fewer than a hundred -- but never below the
    median (under twenty samples there is no tail to report)."""
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[max(n // 2, min(math.ceil(0.9 * n) - 1, n - 11))]


def _corrected(blocks) -> list:
    return [s * b.factor for b in blocks for s in b.samples_ms]


def _calls(wl: Workload, blocks) -> int:
    return max(1, sum(len(b.wall_ms) for b in blocks) * wl.units)


def _measured(wl: Workload, run: Pass) -> list:
    """The blocks whose times count: a block in which an operation
    raised (or that leaked) is failed work, not a measurement."""
    blocks = [b for b in run.blocks if b.samples_ms and b.error is None]
    if not blocks:
        raise RuntimeError(
            f"{wl.name}: no block completed its timed operations "
            f"({[b.error for b in run.blocks]})")
    return blocks


def model_step(ref: Workload) -> dict:
    """The three end-to-end metrics no host speed and no ``--seed``
    moves, so that they can be gated tightly: bottleneck words and
    start-ups per operation (``Machine.report()``) over the first
    ``MODEL_OPS`` operations of the schedule of ``ref``, the workload
    built with ``MODEL_SEED``, and the peak resident set of the driver
    plus its workers at the end of them.  ``run.py`` runs it in a process
    of its own, so the resident set is this workload's and nothing
    else's."""
    ctx = ref.open("mp")
    try:
        ops = ref.ops(0)
        words = startups = 0.0
        for _ in range(MODEL_OPS):
            ctx.machine.reset()
            ref.model(ctx, next(ops))
            rep = ctx.machine.report()
            words += rep.bottleneck_words
            startups += rep.bottleneck_startups
        rss_mb = host.peak_rss_mb()
    finally:
        ref.close(ctx)
    return {"model_words": words / MODEL_OPS, "model_startups": startups / MODEL_OPS,
            "peak_rss_mb": rss_mb}


def end_to_end(wl: Workload, run: Pass, model: dict) -> dict:
    """``model`` is what :func:`model_step` returned."""
    blocks = _measured(wl, run)
    return {
        "setup_s": statistics.median(s * b.factor for b in blocks for s in b.setups_s),
        **model,
    }


def ungated(wl: Workload, run: Pass) -> dict:
    """What the issue wanted gated end to end and A/A did not let: on
    this host none of them repeats within the issue's bound on every
    workload (README, "A/A protocol"), so they are per-layer metrics.
    ``e2e.peak_rss_mb`` is the highest block of the whole run; the gated
    ``peak_rss_mb`` is :func:`model_step`'s."""
    blocks = _measured(wl, run)
    busy_s = sum(w * b.factor for b in blocks for w in b.wall_ms) / 1e3
    return {
        "e2e.call_ms_p50": statistics.median(_corrected(blocks)),
        "e2e.work_per_s": sum(w for b in blocks for w in b.work) / busy_s,
        "e2e.speedup_vs_sim": statistics.median(
            statistics.median(b.ratios) for b in blocks),
        "e2e.peak_rss_mb": max(b.rss_mb for b in blocks),
    }


def _leg(blocks, name: str) -> float:
    values = [v for b in blocks for v in b.legs.get(name, ())]
    return statistics.median(values) if values else 0.0


def workload_layers(wl: Workload, plain: Pass, traced: Pass, tracer: Tracer,
                    probes: dict) -> dict:
    """The per-layer metrics that come from running the workload: counts
    read from public counters in the untraced pass, and span times from
    the traced one.  A metric of a layer the workload never enters
    reads 0."""
    blocks, tblocks = _measured(wl, plain), _measured(wl, traced)
    calls, tcalls = _calls(wl, blocks), _calls(wl, tblocks)
    samples = [s for b in blocks for s in b.samples_ms]
    corrected = _corrected(blocks)
    raw_p50 = statistics.median(samples)
    attempted = sum(b.attempted for b in plain.blocks + traced.blocks)
    failed = sum(b.failed for b in plain.blocks + traced.blocks)
    infos = [i for b in blocks for i in b.infos]

    def per_call(attr: str) -> float:
        return sum(v for b in blocks for v in getattr(b, attr)) / calls

    out = ungated(wl, plain)
    out.update({
        "host.yard_ms": statistics.median(y for b in blocks for y in b.yard_ms),
        "host.foreign_cpu_frac": statistics.mean(b.foreign for b in plain.blocks),
        "host.contended_blocks": float(plain.contended_blocks + traced.contended_blocks),
        "e2e.raw_call_ms_p50": raw_p50,
        "e2e.call_ms_p90": _tail(corrected),
        "e2e.cpu_ms_per_call": sum(b.cpu_ms for b in blocks) / calls,
        "e2e.sim_call_ms_p50": statistics.median(s for b in blocks for s in b.sim_ms),
        "e2e.samples": float(len(samples)),
        "e2e.fail_frac": failed / max(1, attempted),
        "runtime.driver_sends_per_call": per_call("sends"),
        "runtime.worker_msgs_per_call": sum(b.worker_msgs for b in blocks) / calls,
        "runtime.wire_bytes_per_call": per_call("wire"),
        "runtime.shm_bytes_per_call": per_call("shm"),
        "runtime.max_inflight": float(max(b.max_inflight for b in blocks)),
        "runtime.backend_wall_frac": (
            sum(v for b in blocks for v in b.backend_ms)
            / sum(v for b in blocks for v in b.wall_ms)),
    })

    # -- separately timed legs and per-operation counts ----------------
    out["pqueue.insert_ms"] = _leg(blocks, "insert_ms")
    out["pqueue.delete_min_ms"] = _leg(blocks, "delete_min_ms")
    out["pqueue.delete_min_flexible_ms"] = _leg(blocks, "delete_min_flexible_ms")
    rounds = [i["rounds"] for i in infos if i.get("rounds")]
    out["pqueue.rounds_per_delete"] = statistics.mean(rounds) if rounds else 0.0
    moved = [i["moved"] for i in infos if "moved" in i]
    out["redistribution.moved_words_per_call"] = statistics.mean(moved) if moved else 0.0
    move_ms = _leg(blocks, "redistribute_ms")
    out["redistribution.move_mb_s"] = (
        statistics.median(moved) * 8 / (1 << 20) / (move_ms / 1e3) if moved else 0.0)
    out["frequent.pac_ms"] = _leg(blocks, "pac_ms")
    out["frequent.ec_ms"] = _leg(blocks, "ec_ms")
    out["aggregation.top_k_sums_ec_ms"] = _leg(blocks, "top_k_sums_ec_ms")

    by_kind: dict = {}
    stats: dict = {}
    for b in blocks:
        for info in b.infos:
            for kind, values in info.get("by_kind", {}).items():
                by_kind.setdefault(kind, []).extend(v * b.factor for v in values)
            for key, value in info.get("stats", {}).items():
                stats[key] = (max(stats.get(key, 0), value)
                              if key == "max_batch_size" else stats.get(key, 0) + value)
    for kind in ("select", "quantile", "topk", "frequent"):
        values = by_kind.get(kind)
        out[f"serve.{kind}_ms_p50"] = statistics.median(values) if values else 0.0
    out["serve.latency_ms_p90"] = _tail(corrected) if stats else 0.0
    out["serve.queries_per_batch"] = stats.get("queries", 0) / max(1, stats.get("batches", 0))
    out["serve.fused_cmds_per_query"] = (
        stats.get("fused_commands", 0) / max(1, stats.get("queries", 0)))
    for key in ("max_batch_size", "overloads", "expired"):
        out[f"serve.{key}"] = float(stats.get(key, 0))

    # -- the traced pass -------------------------------------------------
    tracer.spans = [s for s in tracer.spans if s.op]  # drop set-up and warm-up
    self_ms = tracer.self_ms()
    out["runtime.cmd_ms_per_call"] = self_ms.get(RUNTIME, 0.0) / tcalls
    out["runtime.wait_ms_per_call"] = tracer.total_ms(RUNTIME, {"wait"}) / tcalls
    out["comm.replay_ms_per_call"] = self_ms.get(COMM, 0.0) / tcalls
    out["selection.self_ms_per_call"] = self_ms.get("selection", 0.0) / tcalls
    out["selection.cmds_per_call"] = tracer.count(RUNTIME, COMMAND_SPANS) / tcalls
    traced_p50 = statistics.median(_corrected(tblocks))
    plain_p50 = statistics.median(corrected)
    out["trace.overhead_frac"] = (traced_p50 - plain_p50) / plain_p50
    own_ms = sum(self_ms.get(layer, 0.0) for layer in ALGORITHM_LAYERS) / tcalls
    predicted = (out["runtime.driver_sends_per_call"] * probes["runtime.noop_cmd_us"] / 1e3
                 + out["comm.replay_ms_per_call"] + own_ms)
    out["ledger.explained_frac"] = predicted / raw_p50
    return out
