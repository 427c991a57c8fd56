"""Unit tests: personalized exchanges (alltoall, the hash-table
exchange, the merge up the binomial tree, point-to-point send)."""

import numpy as np
import pytest

from repro.common.hashing import key_owner
from tests.support.dht_runner import exchange, tree_merge
from repro.machine import Machine

from tests.support import listp


class TestAlltoall:
    def test_transpose_semantics(self, machine):
        p = machine.p
        matrix = [[i * p + j for j in range(p)] for i in range(p)]
        out = listp.alltoall(machine, matrix)
        for i in range(p):
            for j in range(p):
                assert out[j][i] == matrix[i][j]

    def test_none_payloads_are_free(self, machine8):
        matrix = [[None] * 8 for _ in range(8)]
        listp.alltoall(machine8, matrix)
        assert machine8.metrics.total_traffic == 0

    def test_hypercube_mode_charges_more_volume(self):
        p = 8
        matrix = [[np.zeros(10) for _ in range(p)] for _ in range(p)]
        m_dir = Machine(p=p, seed=1)
        listp.alltoall(m_dir, matrix, mode="direct")
        m_hc = Machine(p=p, seed=1)
        listp.alltoall(m_hc, matrix, mode="hypercube")
        assert m_hc.metrics.total_traffic > m_dir.metrics.total_traffic
        assert m_hc.metrics.bottleneck_startups < m_dir.metrics.bottleneck_startups

    def test_bad_row_length(self, machine8):
        with pytest.raises(ValueError, match="length"):
            listp.alltoall(machine8, [[None] * 3 for _ in range(8)])

    def test_unknown_mode(self, machine8):
        with pytest.raises(ValueError):
            listp.alltoall(machine8, [[None] * 8 for _ in range(8)], mode="warp")


def _tables(dicts):
    return [
        (np.fromiter(d, dtype=np.int64, count=len(d)),
         np.fromiter(d.values(), dtype=np.int64, count=len(d)))
        for d in dicts
    ]


class TestHashTableExchange:
    """The hash-table exchange (``exchange_gen``) over tables that ride
    the command."""

    def _total(self, dicts):
        out = {}
        for d in dicts:
            for key, v in d.items():
                out[key] = out.get(key, 0) + v
        return out

    def test_counts_conserved(self, machine):
        p = machine.p
        dicts = [{j: i + j for j in range(10)} for i in range(p)]
        routed = exchange(machine, _tables(dicts))
        assert self._total(routed) == self._total(dicts)

    def test_keys_land_at_owner(self, machine):
        p = machine.p
        dicts = [{j: 1 for j in range(16)} for _ in range(p)]
        routed = exchange(machine, _tables(dicts), salt=7)
        for pe, d in enumerate(routed):
            keys = np.array(list(d), dtype=np.int64)
            assert (key_owner(keys, p, 7) == pe).all()

    def test_odd_p_fallback(self, odd_machine):
        p = odd_machine.p
        dicts = [{j: 1 for j in range(8)} for _ in range(p)]
        routed = exchange(odd_machine, _tables(dicts))
        assert self._total(routed) == {j: p for j in range(8)}

    @pytest.mark.parametrize("width", [2.0, 1.5])
    def test_direct_delivery_charges_width_words_per_entry(self, width):
        p = 3
        dicts = [{j: 1 for j in range(7 * i, 7 * i + 13)} for i in range(p)]
        m = Machine(p=p, seed=0)
        exchange(m, _tables(dicts), width=width)
        owners = [key_owner(np.array(list(d)), p) for d in dicts]
        want = sum(np.ceil(width * np.count_nonzero(owners[i] == j))
                   for i in range(p) for j in range(p) if i != j)
        assert m.metrics.total_traffic == want

    def test_hypercube_charges_width_words_per_entry(self):
        dicts = [{j: 1 for j in range(7 * i, 7 * i + 13)} for i in range(8)]
        traffic = []
        for width in (2.0, 1.5):
            m = Machine(p=8, seed=0)
            exchange(m, _tables(dicts), width=width)
            traffic.append(m.metrics.total_traffic)
        assert traffic[1] == 0.75 * traffic[0] > 0

    def test_one_table_per_pe_required(self, machine8):
        with pytest.raises(ValueError, match="one entry per PE"):
            exchange(machine8, _tables([{1: 1}] * 7))

    def test_single_pe_shortcut(self):
        m = Machine(p=1, seed=0)
        out = exchange(m, _tables([{3: 4, 1: 2}]))
        assert out == [{1: 2, 3: 4}]
        assert m.metrics.total_traffic == 0

    def test_merging_bounds_volume(self):
        """With heavy key collision, on-the-way aggregation keeps the
        per-PE received volume near the distinct-key count, far below
        the raw pair count."""
        p = 16
        m = Machine(p=p, seed=3)
        dicts = [{j: 1 for j in range(32)} for _ in range(p)]  # all PEs same keys
        exchange(m, _tables(dicts))
        raw_pairs = p * 32 * 2
        assert m.metrics.bottleneck_words < raw_pairs / 2


class TestTreeMerge:
    def test_merge_dicts(self, machine):
        p = machine.p
        dicts = [{i: 1, "x": 1} for i in range(p)]
        merged = tree_merge(
            machine, dicts,
            lambda a, b: {k: a.get(k, 0) + b.get(k, 0) for k in set(a) | set(b)},
        )[0]
        assert merged["x"] == p

    def test_nonroot_gets_none(self, machine8):
        out = tree_merge(machine8, [{1: 1}] * 8, lambda a, b: a)
        assert out[0] is not None
        assert all(x is None for x in out[1:])

    def test_logarithmic_startups_at_root(self):
        m = Machine(p=16, seed=0)
        tree_merge(m, [{i: 1} for i in range(16)], lambda a, b: {**a, **b})
        assert m.metrics.msgs_recv[0] <= 4  # log2(16)


class TestSend:
    def test_payload_returned(self, machine8):
        out = listp.send(machine8, 1, 2, np.arange(5))
        assert list(out) == [0, 1, 2, 3, 4]

    def test_metrics_and_clock_charged(self, machine8):
        listp.send(machine8, 0, 7, np.zeros(100))
        assert machine8.metrics.words_sent[0] == 100
        assert machine8.clock.t[7] > 0

    def test_self_send_free(self, machine8):
        listp.send(machine8, 3, 3, np.zeros(100))
        assert machine8.metrics.total_traffic == 0

    def test_rank_bounds(self, machine8):
        with pytest.raises(ValueError):
            listp.send(machine8, 0, 8, 1)


class TestPhasesAndReport:
    def test_phase_attribution(self, machine8):
        with machine8.phase("a"):
            machine8.allreduce([1] * 8)
        with machine8.phase("b"):
            pass
        rep = machine8.report()
        names = [ph.name for ph in rep.phases]
        assert names == ["a", "b"]
        assert rep.phases[0].total_traffic > rep.phases[1].total_traffic

    def test_report_row_keys(self, machine8):
        row = machine8.report().row()
        for key in ("p", "time_s", "volume_words", "startups"):
            assert key in row

    def test_reset_clears_everything(self, machine8):
        machine8.allreduce([1] * 8)
        machine8.reset()
        rep = machine8.report()
        assert rep.makespan == 0.0
        assert rep.bottleneck_words == 0.0
        assert rep.phases == ()

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            Machine(p=0)

    def test_determinism_same_seed(self):
        a = Machine(p=4, seed=7)
        b = Machine(p=4, seed=7)
        assert a.rngs[2].random() == b.rngs[2].random()
        assert a.shared_rng.random() == b.shared_rng.random()
