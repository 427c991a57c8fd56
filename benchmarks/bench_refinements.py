"""Refinement features (Sections 6/7.4/11): measured benefit checks.

* dSBF fingerprint counting vs key-based DHT insertion (volume),
* adaptive two-pass sampling: probe-only on gapped inputs vs escalation
  on flat inputs (communication),
* streaming monitor: per-item amortized communication.
"""

import numpy as np
import pytest

from repro.bench.harness import BenchRow, run_algorithm
from repro.bench.workloads import (
    gapped_workload,
    zipf_keys_workload,
)
from repro.common import zipf_sample
from repro.frequent import (
    StreamingTopKMonitor,
    top_k_frequent_adaptive,
    top_k_frequent_ec,
    top_k_frequent_ec_dsbf,
)
from repro.machine import Machine

from conftest import persist

P = 16
N_PER_PE = 1 << 13


def test_dsbf_vs_keys(benchmark, results_dir):
    def sweep():
        rows = []
        kwargs = dict(eps=5e-3, delta=1e-3, k_star=128, rho=0.1)
        make = lambda m: zipf_keys_workload(m, N_PER_PE, universe=1 << 14, s=1.0)
        rows.append(run_algorithm(
            "refinements", "EC/keys", P, N_PER_PE, make,
            lambda m, d: {"dht": m.metrics.by_kind.get("dht_exchange", 0)}
            if top_k_frequent_ec(m, d, 32, **kwargs) else None, seed=41,
        ))
        rows.append(run_algorithm(
            "refinements", "EC/dsbf", P, N_PER_PE, make,
            lambda m, d: {"dht": m.metrics.by_kind.get("dht_exchange", 0)}
            if top_k_frequent_ec_dsbf(m, d, 32, **kwargs) else None, seed=41,
        ))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    persist(results_dir, "refinement_dsbf", rows,
            ("algorithm", "p", "time_s", "volume_words", "dht"))
    by = {r.algorithm: r for r in rows}
    assert by["EC/dsbf"].extra["dht"] <= by["EC/keys"].extra["dht"]


def test_adaptive_two_pass(benchmark, results_dir):
    def sweep():
        rows = []
        for kind, make in (
            ("gapped", lambda m: gapped_workload(m, N_PER_PE, universe=1 << 10, k=16, gap=8.0)),
            ("zipf", lambda m: zipf_keys_workload(m, N_PER_PE, universe=1 << 14, s=1.0)),
        ):
            rows.append(run_algorithm(
                "refinements", f"adaptive/{kind}", P, N_PER_PE, make,
                lambda m, d: {
                    "escalated": top_k_frequent_adaptive(
                        m, d, 16, eps=5e-3, delta=1e-3
                    ).info["escalated"]
                },
                seed=42,
            ))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    persist(results_dir, "refinement_adaptive", rows,
            ("algorithm", "p", "time_s", "volume_words", "escalated"))
    by = {r.algorithm: r for r in rows}
    # the gapped case stops after the probe and is cheaper
    assert not by["adaptive/gapped"].extra["escalated"]
    assert by["adaptive/gapped"].time_s <= by["adaptive/zipf"].time_s


def test_monitor_amortization(benchmark, results_dir):
    def sweep():
        rows = []
        for steps in (2, 8):
            def run(m, _, steps=steps):
                mon = StreamingTopKMonitor(m, k=16, eps=2e-2, delta=1e-3)
                for _ in range(steps):
                    mon.ingest(
                        [zipf_sample(g, 4000, universe=1 << 10, s=1.1) for g in m.rngs]
                    )
                    mon.top_k()
                return {
                    "steps": steps,
                    "per_item_words": m.metrics.total_traffic
                    / max(mon.total_items, 1),
                }

            rows.append(run_algorithm(
                "refinements", f"monitor/steps={steps}", P, 4000,
                lambda m: None, run, seed=44,
            ))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    persist(results_dir, "refinement_monitor", rows,
            ("algorithm", "p", "time_s", "volume_words", "per_item_words"))
    by = {r.extra["steps"]: r for r in rows}
    # amortized per-item cost falls as the stream grows (caching +
    # length-independent queries)
    assert by[8].extra["per_item_words"] <= by[2].extra["per_item_words"] * 1.5
