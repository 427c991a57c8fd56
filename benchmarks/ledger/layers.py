"""Isolated per-layer probes: each layer timed from outside, on its own.

One call of :func:`probe_layers` times public functions of every layer
on fixed inputs (the probes do not depend on the workload or its seed)
and returns ``{metric name: value}``.  Repetition counts are fixed so
the step costs a few seconds however the host behaves.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import statistics
import threading
import time

import numpy as np

from repro import kernels, redistribution, selection, serve
from repro.machine import DistArray, Machine
from repro.machine.backends import shm as shm_mod
from repro.machine.backends import transport
from repro.machine.ctrrng import DrawAddress
from repro.pqueue import BulkParallelPQ
from repro.trees import Treap

from .workloads import P

__all__ = ["probe_layers"]

MIB = 1 << 20


def _per_call(fn, reps: int, inner: int = 1) -> float:
    """Median seconds per call over ``reps`` timings of ``inner`` calls."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return statistics.median(times)


# -- SPMD kernels shipped to the workers (module level: pickled by name)

def _noop_spmd(rank):
    return 0
    yield  # a generator, as run_spmd requires


def _allreduce_spmd(rank):
    total = yield ("allreduce", 1, "sum")
    return total


def _make_block(rank):
    return np.zeros(8 * MIB // 8, dtype=np.int64), 0


# ----------------------------------------------------------------------

def _kernels(out: dict) -> None:
    rng = np.random.default_rng(11)
    for tag, n, reps in (("16k", 1 << 14, 15), ("1m", 1 << 20, 5)):
        arr = rng.integers(0, 1 << 40, size=n, dtype=np.int64)
        lo, hi = (1 << 40) // 3, 2 * (1 << 40) // 3
        t = _per_call(lambda: kernels.partition3(arr, lo, hi), reps)
        out[f"kernels.partition3_ns_per_elem.{tag}"] = t / n * 1e9
    t = _per_call(lambda: kernels.topk_count(arr, lo), 5)
    out["kernels.topk_count_ns_per_elem.1m"] = t / n * 1e9
    t = _per_call(lambda: kernels.topk_cut(arr, lo, 8), 5)
    out["kernels.topk_cut_ns_per_elem.1m"] = t / n * 1e9
    hashed = arr.view(np.uint64)
    t = _per_call(lambda: kernels.splitmix64_array(hashed), 5)
    out["kernels.splitmix64_ns_per_elem"] = t / n * 1e9

    na, nb = 1 << 16, 1 << 12
    s_a, s_b = np.sort(rng.random(na)), np.sort(rng.random(nb))
    ids_a, ids_b = np.arange(na), np.arange(nb)
    zeros_a, zeros_b = np.zeros(na, dtype=np.int64), np.ones(nb, dtype=np.int64)
    t = _per_call(
        lambda: kernels.treap_merge(s_a, zeros_a, ids_a, s_b, zeros_b, ids_b), 7)
    out["kernels.treap_merge_ns_per_elem"] = t / (na + nb) * 1e9

    offers = rng.zipf(1.3, size=2048).astype(np.int64)
    ones = np.ones(offers.size, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    t = _per_call(
        lambda: kernels.spacesaving_offer(empty, empty, 256, 0, offers, ones), 3)
    out["kernels.spacesaving_offer_ns_per_elem"] = t / offers.size * 1e9

    values = rng.exponential(10.0, size=1 << 18)
    addr = DrawAddress(7, 0)
    t = _per_call(lambda: kernels.weighted_counts(addr.local(0), values, 4.0), 5)
    out["kernels.weighted_counts_ns_per_elem"] = t / values.size * 1e9
    t = _per_call(lambda: kernels.skip_sample_indices(addr.local(0), n, 0.01), 5)
    out["kernels.skip_sample_ns_per_elem"] = t / n * 1e9


def _trees(out: dict) -> None:
    rng = np.random.default_rng(12)
    base = np.sort(rng.random(8192))
    batch = rng.random(512)
    picks = [int(i) for i in rng.integers(0, 8192, size=256)]
    for tag, cls in (("treap", Treap), ("arraytreap", kernels.ArrayTreap)):
        ins, split, sel = [], [], []
        for rep in range(3):
            tree = cls(np.random.default_rng(rep))
            tree.insert_batch(base, 0, 0)
            sel.append(_per_call(lambda: [tree.select(i) for i in picks], 1) / len(picks))
            t0 = time.perf_counter()
            tree.insert_batch(batch, 0, 8192)
            ins.append((time.perf_counter() - t0) / batch.size)
            t0 = time.perf_counter()
            tree.split_at_rank(1024)
            split.append(time.perf_counter() - t0)
        out[f"trees.{tag}_insert_us_per_key"] = statistics.median(ins) * 1e6
        out[f"trees.{tag}_split_us"] = statistics.median(split) * 1e6
        out[f"trees.{tag}_select_us"] = statistics.median(sel) * 1e6


def _comm(out: dict) -> None:
    out["ctrrng.generator_us"] = _per_call(
        lambda: DrawAddress(7, 3).local(1), 5, inner=100) * 1e6
    # a real charge log: what one deleteMin hands to replay_charges.
    # (multi_select charges through the meters directly and has no log.)
    captured = []
    original = Machine.replay_charges
    try:
        Machine.replay_charges = lambda self, logs: captured.append(logs)
        with Machine(P, seed=1) as m:
            pq = BulkParallelPQ(m)
            pq.insert([np.random.default_rng(r).random(2048) for r in range(P)])
            pq.delete_min(1024)
    finally:
        Machine.replay_charges = original
    logs = captured[0]
    m = Machine(P, seed=1)
    t = _per_call(lambda: m.replay_charges(logs), 5, inner=20)
    out["comm.replay_us_per_charge"] = t / len(logs[0]) * 1e6
    ones = [1] * P
    t = _per_call(lambda: (m.allreduce(ones, "sum"), m.allgather(ones)), 5, inner=100)
    out["comm.sim_collective_us"] = t / 2 * 1e6
    t = _per_call(lambda: DistArray.generate(
        m, lambda r, g: g.integers(0, 1 << 40, size=MIB, dtype=np.int64)), 3)
    out["dist_array.generate_ms"] = t * 1e3


def _transport(out: dict) -> None:
    # what submit_spmd puts on the wire for one multi_select level,
    # padded to ~1 KiB with a rank vector
    blob = pickle.dumps(_allreduce_spmd, protocol=pickle.HIGHEST_PROTOCOL)
    args = (P, DrawAddress(7, 3), 2, 64, False, np.arange(96, dtype=np.int64))
    frame = ("bcmd", 17, ("spmd", blob, (3,), (4,)),
             {r: args for r in range(P)}, (1, 2), 16)
    out["transport.encode_us.cmd"] = _per_call(
        lambda: transport.encode_frame(frame), 5, inner=100) * 1e6
    views, _, _ = transport.encode_frame(frame)
    raw = b"".join(bytes(v) for v in views)
    rfd, wfd = os.pipe()
    try:
        dec = transport.FrameDecoder()
        times = []
        for _ in range(300):
            os.write(wfd, raw)
            t0 = time.perf_counter()
            dec.fill(rfd)
            obj = dec.pop()
            times.append(time.perf_counter() - t0)
            if obj is transport.NO_FRAME:
                raise RuntimeError("frame decoder lost a frame")
        out["transport.decode_us.cmd"] = statistics.median(times) * 1e6
    finally:
        os.close(rfd)
        os.close(wfd)

    ctx = multiprocessing.get_context()
    chan = transport.PipeChannel(ctx)
    try:
        out["transport.pipe_rtt_us"] = _per_call(
            lambda: (chan.put(frame), chan.get(timeout=5.0)), 5, inner=100) * 1e6
        big = np.zeros(8 * MIB // 8, dtype=np.int64)

        def big_roundtrip():
            got = []
            reader = threading.Thread(target=lambda: got.append(chan.get(timeout=30.0)))
            reader.start()
            chan.put(big)
            reader.join()
            if not got or got[0].nbytes != big.nbytes:
                raise RuntimeError("8 MiB frame did not survive the pipe")

        out["transport.encode_mb_s.8mib"] = 8.0 / _per_call(big_roundtrip, 3)
    finally:
        chan.close()


def _shm(out: dict) -> None:
    family = shm_mod.pool_family(shm_mod.new_token())
    pool = shm_mod.ShmPool(family, "d")
    try:
        for tag, nbytes, reps in (("1mib", MIB, 9), ("8mib", 8 * MIB, 5)):
            view = memoryview(np.zeros(nbytes // 8, dtype=np.int64)).cast("B")
            share, mat = [], []
            for _ in range(reps):
                t0 = time.perf_counter()
                name, off, flag = pool.share(view)
                t1 = time.perf_counter()
                block = pool.materialize(name, off, nbytes, flag)
                t2 = time.perf_counter()
                share.append(t1 - t0)
                mat.append(t2 - t1)
                del block
                pool.release_round()
            if tag == "1mib":
                out["shm.share_us.1mib"] = statistics.median(share) * 1e6
                out["shm.materialize_us.1mib"] = statistics.median(mat) * 1e6
            else:
                total = statistics.median(s + m for s, m in zip(share, mat))
                out["shm.roundtrip_mb_s.8mib"] = 8.0 / total
    finally:
        pool.close()
    out["shm.segments_live"] = float(len(shm_mod.segment_names(family)))


def _runtime(out: dict) -> None:
    starts = []
    for _ in range(3):
        t0 = time.perf_counter()
        m = Machine(P, seed=1, backend="mp")
        m.backend.run_spmd(_noop_spmd, [])
        starts.append(time.perf_counter() - t0)
        m.close()
    out["runtime.pool_start_ms"] = statistics.median(starts) * 1e3

    with Machine(P, seed=1, backend="mp") as m:
        b = m.backend
        for _ in range(20):  # warm the pool and the callback cache
            b.run_spmd(_noop_spmd, [])
            b.run_spmd(_allreduce_spmd, [])
        out["runtime.noop_cmd_us"] = _per_call(
            lambda: b.run_spmd(_noop_spmd, []), 7, inner=40) * 1e6
        out["runtime.allreduce_cmd_us"] = _per_call(
            lambda: b.run_spmd(_allreduce_spmd, []), 7, inner=40) * 1e6

        def pipelined():
            pend = [b.submit_spmd(_noop_spmd, [])[1] for _ in range(8)]
            for p_ in pend:
                p_.wait()

        def coalesced():
            with b.coalesced():
                pend = [b.submit_spmd(_noop_spmd, [])[1] for _ in range(8)]
            for p_ in pend:
                p_.wait()

        out["runtime.pipelined_cmd_us"] = _per_call(pipelined, 7, inner=8) / 8 * 1e6
        out["runtime.coalesced_cmd_us"] = _per_call(coalesced, 7, inner=8) / 8 * 1e6
        ones = [1] * P
        out["runtime.legacy_allreduce_us"] = _per_call(
            lambda: m.allreduce(ones, "sum"), 7, inner=40) * 1e6

        blocks = [np.zeros(8 * MIB // 8, dtype=np.int64) for _ in range(P)]
        t = _per_call(lambda: b.put_chunks(blocks), 5)
        out["runtime.put_mb_s.8mib"] = 8.0 * P / t
        gets = []
        for _ in range(5):
            refs, _, _ = b.map_resident(_make_block, [], n_out=1, args=[()] * P)
            t0 = time.perf_counter()
            got = b.get_chunks(refs[0])
            gets.append(time.perf_counter() - t0)
            del got, refs
        out["runtime.get_mb_s.8mib"] = 8.0 * P / statistics.median(gets)

        # the algorithm families, solo, on the same live pool
        data = DistArray.generate(
            m, lambda r, g: g.integers(0, 1 << 40, size=1 << 16, dtype=np.int64))
        n = data.global_size
        out["selection.select_kth_ms"] = _per_call(
            lambda: selection.select_kth(m, data, n // 3), 5) * 1e3
        out["selection.topk_smallest_ms"] = _per_call(
            lambda: selection.select_topk_smallest(m, data, 1024), 5) * 1e3
        seqs = [np.sort(g.random(1 << 14)) for g in m.rngs]
        out["selection.ams_select_ms"] = _per_call(
            lambda: selection.ams_select(m, seqs, 2048, 3072), 5) * 1e3

    m = Machine(P, seed=1, backend="mp")
    engine = serve.QueryEngine(m, serve.default_datasets(m, 1 << 16))
    try:
        engine.query(op="quantile", q=0.5)
        out["serve.solo_query_ms"] = _per_call(
            lambda: engine.query(op="quantile", q=0.25), 5) * 1e3
    finally:
        engine.close()


def _models(out: dict) -> None:
    """The paper's scaling claim, exactly: bottleneck words and start-ups
    at p = 64 on the simulator (fixed seed, so the counts repeat)."""
    with Machine(64, seed=5) as m:
        data = DistArray.generate(
            m, lambda r, g: g.integers(0, 1 << 40, size=2048, dtype=np.int64))
        n = data.global_size
        m.reset()
        selection.multi_select(m, data, [n // 7, n // 3, n // 2, 2 * n // 3, n - 5])
        rep = m.report()
        out["selection.model_words.p64"] = float(rep.bottleneck_words)
        out["selection.model_startups.p64"] = float(rep.bottleneck_startups)
        pq = BulkParallelPQ(m)
        pq.insert([np.random.default_rng(r).random(64) for r in range(64)])
        pq.peek_min()
        m.reset()
        pq.delete_min(512)
        out["pqueue.model_startups.p64"] = float(m.report().bottleneck_startups)
    with Machine(P, seed=5) as m:
        small = DistArray(m, [np.arange(7 << 8), np.arange(1 << 8)])
        out["redistribution.plan_ms"] = _per_call(
            lambda: redistribution.redistribute(m, small), 5, inner=5) * 1e3


def probe_layers() -> dict[str, float]:
    out: dict[str, float] = {}
    for step in (_kernels, _trees, _comm, _transport, _shm, _runtime, _models):
        step(out)
    return out
