"""Machine.replay_charges must re-play the alpha-beta model exactly.

A resident SPMD kernel records what it did (local ops + embedded
collectives) and the driver replays the model afterwards; the replayed
modeled quantities must be indistinguishable from charging the live
collectives directly.  These tests pin that equality for every
supported entry kind, including the gather/broadcast/scan entries that
let rooted driver algorithms move into single SPMD commands.
"""

from math import ceil

import numpy as np
import pytest

from repro.machine import Machine
from repro.machine.metrics import payload_words
from tests.support.dict_walk import dict_walk

from tests.support import listp

PS = [1, 2, 4, 5, 8]


def _assert_same_model(direct: Machine, replayed: Machine):
    assert replayed.clock.makespan == direct.clock.makespan
    np.testing.assert_array_equal(
        replayed.metrics.words_sent, direct.metrics.words_sent
    )
    np.testing.assert_array_equal(
        replayed.metrics.words_recv, direct.metrics.words_recv
    )
    np.testing.assert_array_equal(
        replayed.metrics.msgs_sent, direct.metrics.msgs_sent
    )
    np.testing.assert_array_equal(
        replayed.metrics.msgs_recv, direct.metrics.msgs_recv
    )
    assert replayed.metrics.by_kind == direct.metrics.by_kind


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("root", [0, "last"])
def test_broadcast_entry_matches_direct_call(p, root):
    root = p - 1 if root == "last" else root
    direct, replayed = Machine(p=p), Machine(p=p)
    value = np.arange(17, dtype=np.int64)
    listp.broadcast(direct, value, root=root)
    replayed.replay_charges(
        [[("broadcast", payload_words(value), root)]] * p
    )
    _assert_same_model(direct, replayed)


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("root", [0, "last"])
def test_gather_entry_matches_direct_call(p, root):
    root = p - 1 if root == "last" else root
    direct, replayed = Machine(p=p), Machine(p=p)
    values = [np.arange(3 + 2 * i, dtype=np.int64) for i in range(p)]
    listp.gather(direct, values, root=root)
    replayed.replay_charges(
        [[("gather", payload_words(values[i]), root)] for i in range(p)]
    )
    _assert_same_model(direct, replayed)


@pytest.mark.parametrize("p", PS)
def test_scan_entry_matches_direct_call(p):
    direct, replayed = Machine(p=p), Machine(p=p)
    values = [np.arange(5, dtype=np.int64)] * p
    listp.scan(direct, values)
    replayed.replay_charges([[("scan", payload_words(values[0]))]] * p)
    _assert_same_model(direct, replayed)


@pytest.mark.parametrize("p", PS)
def test_reduce_allgather_entry_matches_direct_call(p):
    direct, replayed = Machine(p=p), Machine(p=p)
    payloads = [list(range(2 * i + 1)) for i in range(p)]
    listp.reduce_allgather(direct, [7] * p, payloads)
    replayed.replay_charges(
        [[("reduce_allgather", payload_words(payloads[i]), 1)] for i in range(p)]
    )
    _assert_same_model(direct, replayed)


def _buckets(p):
    """Per-PE key -> count dicts and their split by owner ``key % p``."""
    rng = np.random.default_rng(p)
    dicts = [
        {int(k): int(k) % 7 + 1 for k in rng.choice(400, size=30 + 9 * i, replace=False)}
        for i in range(p)
    ]
    split = [[{k: v for k, v in d.items() if k % p == j} for j in range(p)]
             for d in dicts]
    return dicts, split


@pytest.mark.parametrize("width", [2.0, 1.5])
@pytest.mark.parametrize("p", [3, 5, 6])
def test_alltoall_entries_match_direct_dict_walk(p, width):
    """Off the powers of two the hash-table exchange delivers directly:
    one ``alltoall`` entry (``ceil(width * n)`` words for the ``n``
    entries sent to each owner) and the owners' merge work."""
    direct, replayed = Machine(p=p), Machine(p=p)
    dicts, split = _buckets(p)
    dict_walk(direct, dicts, lambda k: k % p, width)
    replayed.replay_charges([
        [
            ("alltoall", tuple(ceil(width * len(b)) for b in split[i])),
            ("ops", sum(len(split[src][i]) for src in range(p))),
        ]
        for i in range(p)
    ])
    _assert_same_model(direct, replayed)
    assert replayed.clock.makespan > 0


@pytest.mark.parametrize("width", [2.0, 1.5])
@pytest.mark.parametrize("p", [2, 4, 8])
def test_dht_round_entries_match_dict_walk(p, width):
    """One ``dht_round`` entry per hypercube round: the entries this
    rank hands its partner (merged on the way, so a key that met its
    twin at an earlier hop counts once) and their width."""
    direct, replayed = Machine(p=p), Machine(p=p)
    dicts, split = _buckets(p)
    dict_walk(direct, dicts, lambda k: k % p, width)
    held = [[set(b) for b in split[i]] for i in range(p)]  # [pe][owner]
    logs = [[] for _ in range(p)]
    bit = 1
    while bit < p:
        leaving = [
            {j: held[i][j] for j in range(p) if (j ^ i) & bit} for i in range(p)
        ]
        for i in range(p):
            logs[i].append(
                ("dht_round", bit, sum(map(len, leaving[i].values())), width))
            for j, keys in leaving[i].items():
                held[i ^ bit][j] = held[i ^ bit][j] | keys
                held[i][j] = set()
        bit <<= 1
    replayed.replay_charges(logs)
    _assert_same_model(direct, replayed)
    assert replayed.metrics.by_kind["dht_exchange"] > 0


@pytest.mark.parametrize("p", [2, 5, 8])
def test_mixed_log_matches_direct_sequence(p):
    """Interleaved ops + collectives replay in execution order."""
    direct, replayed = Machine(p=p), Machine(p=p)
    vec = np.arange(4, dtype=np.int64)
    per_rank_ops = [float(3 * i + 1) for i in range(p)]
    direct.charge_ops(per_rank_ops)
    listp.broadcast(direct, vec, root=0)
    direct.allreduce([7] * p)
    listp.gather(direct, [vec] * p, root=p - 1)
    listp.scan(direct, [1] * p)
    w = payload_words(vec)
    replayed.replay_charges(
        [
            [
                ("ops", per_rank_ops[i]),
                ("broadcast", w, 0),
                ("allreduce", 1),
                ("gather", w, p - 1),
                ("scan", 1),
            ]
            for i in range(p)
        ]
    )
    _assert_same_model(direct, replayed)


def test_unknown_entry_kind_rejected():
    m = Machine(p=2)
    with pytest.raises(ValueError, match="unknown charge-log entry"):
        m.replay_charges([[("flops", 3)], [("flops", 3)]])


def test_diverged_logs_rejected():
    m = Machine(p=2)
    with pytest.raises(ValueError, match="diverged"):
        m.replay_charges([[("ops", 1)], []])
