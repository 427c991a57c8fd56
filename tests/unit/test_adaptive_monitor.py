"""Unit tests: adaptive two-pass sampling and the streaming monitor."""

import numpy as np
import pytest

from repro.common import gapped_sample, zipf_sample
from repro.frequent import (
    StreamingTopKMonitor,
    exact_counts_oracle,
    pac_error,
    top_k_frequent_adaptive,
)
from repro.machine import DistArray, Machine


@pytest.fixture
def rng():
    return np.random.default_rng(107)


class TestAdaptive:
    def test_gapped_input_stops_after_probe(self, machine8):
        data = DistArray.generate(
            machine8,
            lambda r, g: gapped_sample(g, 20_000, universe=512, k=8, gap=10.0),
        )
        res = top_k_frequent_adaptive(machine8, data, 8, eps=1e-2, delta=1e-3)
        assert not res.info["escalated"]
        true = exact_counts_oracle(data)
        assert pac_error(res.keys, true, 8) <= 1e-2 * data.global_size

    def test_flat_input_escalates(self, machine8):
        data = DistArray.generate(
            machine8, lambda r, g: g.integers(0, 128, 20_000).astype(np.int64)
        )
        res = top_k_frequent_adaptive(machine8, data, 8, eps=5e-3, delta=1e-3)
        assert res.info["escalated"]
        assert res.exact_counts

    def test_escalation_meets_bound(self, machine8):
        data = DistArray.generate(
            machine8, lambda r, g: zipf_sample(g, 20_000, universe=4096, s=0.7)
        )
        true = exact_counts_oracle(data)
        res = top_k_frequent_adaptive(machine8, data, 16, eps=8e-3, delta=1e-2)
        assert pac_error(res.keys, true, 16) <= 8e-3 * data.global_size

    def test_empty(self, machine8):
        data = DistArray(machine8, [np.empty(0, dtype=np.int64)] * 8)
        res = top_k_frequent_adaptive(machine8, data, 4)
        assert res.items == ()


class TestStreamingMonitor:
    def _feed(self, machine, monitor, steps=4, per_pe=4000, s=1.1):
        for _ in range(steps):
            monitor.ingest(
                [zipf_sample(g, per_pe, universe=256, s=s) for g in machine.rngs]
            )

    def test_topk_tracks_truth(self):
        m = Machine(p=4, seed=20)
        mon = StreamingTopKMonitor(m, k=8, eps=2e-2, delta=1e-3)
        self._feed(m, mon)
        res = mon.top_k(force=True)
        # oracle from the tables themselves
        true: dict = {}
        for keys, counts in mon.tables:
            for key, c in zip(keys.tolist(), counts.tolist()):
                true[key] = true.get(key, 0) + c
        assert pac_error(res.keys, true, 8) <= 2e-2 * res.info["stream"]

    def test_cache_behavior(self):
        m = Machine(p=4, seed=21)
        mon = StreamingTopKMonitor(m, k=4, refresh_fraction=0.5)
        self._feed(m, mon, steps=1)
        first = mon.top_k()
        again = mon.top_k()  # no growth: cached
        assert again is first
        assert mon.cache_hits == 1
        self._feed(m, mon, steps=2)  # 200% growth: refresh
        third = mon.top_k()
        assert third is not first

    def test_force_refresh(self):
        m = Machine(p=4, seed=22)
        mon = StreamingTopKMonitor(m, k=4)
        self._feed(m, mon, steps=1)
        a = mon.top_k()
        b = mon.top_k(force=True)
        assert b is not a

    def test_ingest_is_communication_free(self):
        m = Machine(p=4, seed=23)
        mon = StreamingTopKMonitor(m, k=4)
        m.reset()
        self._feed(m, mon, steps=2)
        assert m.metrics.total_traffic == 0

    def test_query_volume_independent_of_stream_length(self):
        """The monitoring promise: query cost does not grow with the
        amount of history ingested."""
        vols = []
        for steps in (1, 8):
            m = Machine(p=8, seed=24)
            mon = StreamingTopKMonitor(m, k=8, eps=2e-2, delta=1e-3)
            self._feed(m, mon, steps=steps, per_pe=2000)
            m.reset()
            mon.top_k(force=True)
            vols.append(m.metrics.bottleneck_words)
        assert vols[1] < 3 * vols[0]

    def test_validation(self):
        m = Machine(p=4, seed=25)
        with pytest.raises(ValueError):
            StreamingTopKMonitor(m, k=0)
        with pytest.raises(ValueError):
            StreamingTopKMonitor(m, k=2, refresh_fraction=0.0)
        mon = StreamingTopKMonitor(m, k=2)
        with pytest.raises(ValueError):
            mon.ingest([np.arange(3)] * 2)

    def test_empty_stream(self):
        m = Machine(p=4, seed=26)
        mon = StreamingTopKMonitor(m, k=2)
        assert mon.top_k().items == ()


class TestDtaProbes:
    def test_probes_is_not_an_option(self):
        """A ladder of probes evaluated one after another ran the same
        K sequence as one probe per round and only relabelled the
        rounds, so the option is gone."""
        from repro.bench.workloads import multicriteria_workload
        from repro.topk import SumScore, dta_prefixes

        m = Machine(p=2, seed=31)
        idx = multicriteria_workload(m, 50, 2)
        with pytest.raises(TypeError, match="probes"):
            dta_prefixes(m, idx, SumScore(2), 4, probes=2)
