"""Property: ``Machine.replay_charges`` equals the per-entry reference.

The replay charges each run of consecutive ``ops`` entries with one
clock update and records collectives from schedules cached per
``(kind, p)``; ``tests/support/replay_oracle.py`` keeps the entry by
entry, edge by edge replay it replaced.  Generated logs cover every
entry kind at p = 1-8, with zero-word entries, 1.5-word payloads and
arbitrary floats, and the two replays must agree bit for bit: the
``report()`` fields, the four per-PE metric arrays, ``by_kind`` and
``calls`` (and the clocks behind the report).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import Machine

from tests.support.replay_oracle import replay_reference

#: word / op counts: zeros, 1.5-word payloads, integers and arbitrary floats
WORDS = st.one_of(
    st.sampled_from([0, 0.0, 1, 1.5, 3.0, 4.5, 64, 1000.5]),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False,
              allow_infinity=False),
)

KINDS = ["ops", "allgather", "allreduce", "allreduce_exscan", "scan",
         "broadcast", "gather", "gather_direct", "reduce_allgather", "alltoall",
         "dht_round", "tree_hop"]


@st.composite
def _entry(draw, p: int) -> list[tuple]:
    """One log position: the entry of every rank."""
    # a hypercube round needs a partner for every rank
    hypercube = p > 1 and p & (p - 1) == 0
    kinds = KINDS if hypercube else [k for k in KINDS if k != "dht_round"]
    if p == 1:  # a tree of one PE has no rounds
        kinds = [k for k in kinds if k != "tree_hop"]
    kind = draw(st.sampled_from(kinds))
    per_rank = st.lists(WORDS, min_size=p, max_size=p)
    if kind in ("ops", "allgather"):
        return [(kind, w) for w in draw(per_rank)]
    if kind == "tree_hop":
        # a round of the binomial tree below p, what each rank sends in it
        rnd = draw(st.integers(min_value=0, max_value=(p - 1).bit_length() - 1))
        label = draw(st.sampled_from(["naive_tree", "spacesaving"]))
        return [(kind, rnd, w, label) for w in draw(per_rank)]
    if kind in ("allreduce", "allreduce_exscan", "scan"):
        w = draw(WORDS)
        return [(kind, w)] * p
    root = draw(st.integers(min_value=0, max_value=p - 1))
    if kind == "broadcast":
        return [(kind, draw(WORDS), root)] * p
    if kind in ("gather", "gather_direct"):
        return [(kind, w, root) for w in draw(per_rank)]
    if kind == "reduce_allgather":
        m = draw(WORDS)
        return [(kind, w, m) for w in draw(per_rank)]
    if kind == "alltoall":
        return [(kind, row) for row in draw(st.lists(per_rank, min_size=p, max_size=p))]
    # dht_round: a hypercube bit below p, entries per rank, their width
    bit = 1 << draw(st.integers(min_value=0, max_value=p.bit_length() - 2))
    counts = draw(st.lists(st.integers(min_value=0, max_value=10**4),
                           min_size=p, max_size=p))
    width = draw(st.sampled_from([2.0, 1.5]))
    return [(kind, bit, n, width) for n in counts]


@st.composite
def _logs(draw) -> tuple[int, list[list[tuple]]]:
    p = draw(st.integers(min_value=1, max_value=8))
    positions = draw(st.lists(_entry(p), max_size=24))
    logs = [[pos[i] for pos in positions] for i in range(p)]
    return p, logs


def _state(m: Machine) -> dict:
    r = m.report()
    out = {f: getattr(r, f) for f in (
        "p", "makespan", "work_time", "comm_time", "bottleneck_words",
        "bottleneck_startups", "total_traffic", "imbalance")}
    for name in ("words_sent", "words_recv", "msgs_sent", "msgs_recv"):
        arr = getattr(m.metrics, name)
        out[name] = (arr.dtype.str, arr.tobytes())
    for name in ("t", "work_time", "comm_time"):
        out["clock." + name] = getattr(m.clock, name).tobytes()
    out["by_kind"] = {k: float(v).hex() for k, v in m.metrics.by_kind.items()}
    out["calls"] = dict(m.metrics.calls)
    return out


def _bits(state: dict) -> dict:
    """Floats by their bit pattern, so -0.0 / 0.0 and NaNs compare exactly."""
    return {k: (v.hex() if isinstance(v, float) else v) for k, v in state.items()}


@settings(max_examples=300, deadline=None)
@given(case=_logs(), twice=st.booleans())
def test_replay_matches_the_per_entry_reference(case, twice):
    p, logs = case
    got, want = Machine(p, seed=1), Machine(p, seed=1)
    for _ in range(2 if twice else 1):  # the second pass starts from nonzero state
        got.replay_charges(logs)
        replay_reference(want, logs)
    assert _bits(_state(got)) == _bits(_state(want))


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_a_run_of_ops_is_one_clock_update(p, monkeypatch):
    m = Machine(p, seed=1)
    calls = []
    real = m.clock.charge_local_rows
    monkeypatch.setattr(m.clock, "charge_local_rows",
                        lambda rows: (calls.append(np.shape(rows)), real(rows)))
    log = [("ops", 1.0), ("ops", 2.5), ("allreduce", 2), ("ops", 0.0)]
    m.replay_charges([log] * p)
    assert calls == [(2, p), (1, p)]


def test_divergent_logs_still_raise():
    m = Machine(2, seed=1)
    with pytest.raises(ValueError, match="diverged"):
        m.replay_charges([[("ops", 1.0)], []])
    with pytest.raises(ValueError, match="unknown charge-log entry kind"):
        m.replay_charges([[("nope", 1)]] * 2)
