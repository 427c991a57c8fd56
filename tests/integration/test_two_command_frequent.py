"""Integration: frequent objects and sum aggregation are two worker
commands, ``ams_select`` is one.

``top_k_frequent_{pac,ec,exact}`` and ``top_k_sums_{pac,ec}`` sample,
count into the array-backed hash table and take its total in one command
and select, exchange the winners and count them exactly in a second one,
on the table the first left resident; the driver replays the cost model
from the charge logs the commands return.  These tests pin the shape
(driver sends per call), equality with sim of results, draw addresses
and the whole model, equality of the model with
the parent commit's driver-side walk (a golden table: sim == mp cannot
see drift both share), lockstep verification over the long collective
trace, and bit-identical lineage replay.
"""

import numpy as np
import pytest

from repro.aggregation import DistKeyValue, top_k_sums_ec, top_k_sums_pac
from repro.common import zipf_sample
from repro.frequent import (
    top_k_frequent_ec,
    top_k_frequent_exact,
    top_k_frequent_pac,
)
from repro.machine import DistArray, FaultPlan, Machine, WorkerFailure
from repro.selection import ams_select

BACKENDS = ["mp", "tcp"]
N = 4000


def _keys(machine):
    data = DistArray.generate(
        machine, lambda r, g: zipf_sample(g, N, universe=1 << 10, s=1.1))
    data._ensure_ref()  # upload now, so send counts see only the call
    return data


def _kv(machine):
    kv = DistKeyValue.generate(
        machine, lambda r, g: (zipf_sample(g, N, universe=1 << 10, s=1.1),
                               g.exponential(10.0, size=N)))
    kv._ensure_ref()
    return kv


def _seqs(machine):
    return [np.sort(g.random(2000)) for g in machine.rngs]


#: name -> (input builder, call).  ``*_sel`` force more entries than
#: ``k`` (the selection draws), the plain EC forms stay below it.
CASES = {
    "pac": (_keys, lambda m, d: top_k_frequent_pac(m, d, 8, rho=0.3)),
    "pac_rho1": (_keys, lambda m, d: top_k_frequent_pac(m, d, 8, rho=1.0)),
    "ec": (_keys, lambda m, d: top_k_frequent_ec(m, d, 8, eps=0.05, delta=1e-3)),
    "ec_sel": (_keys, lambda m, d: top_k_frequent_ec(
        m, d, 8, eps=0.05, delta=1e-3, k_star=12)),
    "exact": (_keys, lambda m, d: top_k_frequent_exact(m, d, 8)),
    "sums_pac": (_kv, lambda m, d: top_k_sums_pac(m, d, 8, eps=0.05, delta=1e-3)),
    "sums_ec": (_kv, lambda m, d: top_k_sums_ec(m, d, 8, eps=0.05, delta=1e-3)),
    "sums_ec_sel": (_kv, lambda m, d: top_k_sums_ec(
        m, d, 8, eps=0.05, delta=1e-3, k_star=12)),
    "ams": (_seqs, lambda m, d: ams_select(m, d, 300, 450)),
}
GOLDEN_SEED = 1502

#: case -> p -> (bottleneck_words, bottleneck_startups, makespan, draw
#: addresses allocated), recorded at the parent commit fc993c7 (the
#: driver-side dict walk and the driver twin of ams_select) with
#: ``Machine(p, seed=GOLDEN_SEED)`` on sim
GOLDEN = {
    "ams": {
        1: (0.0, 0, 2.3027767486515122e-07, 1),
        2: (13.0, 13, 1.975201359525231e-05, 1),
        3: (26.0, 26, 3.9243902481537964e-05, 1),
        4: (24.0, 24, 3.622244325559046e-05, 1),
        8: (21.0, 21, 3.1653876266865475e-05, 1),
    },
    "ec": {
        1: (0.0, 0, 5.130960488289789e-05, 1),
        2: (190.0, 5, 5.8247362693994724e-05, 1),
        3: (340.0, 10, 6.516580608629989e-05, 1),
        4: (302.0, 10, 6.483643453333407e-05, 1),
        8: (519.0, 30, 0.00010126831336159437, 2),
    },
    "ec_sel": {
        1: (0.0, 0, 5.3613210845781864e-05, 2),
        2: (223.0, 12, 5.9499566329576483e-05, 2),
        3: (303.0, 20, 7.033180426383025e-05, 2),
        4: (301.0, 20, 6.841170579865541e-05, 2),
        8: (312.0, 30, 8.253555483025674e-05, 2),
    },
    "exact": {
        1: (0.0, 0, 9.960421309168409e-05, 1),
        2: (642.0, 17, 0.0001271075516090534, 1),
        3: (870.0, 30, 0.00014864707229602113, 1),
        4: (1077.0, 34, 0.00015429888072610525, 1),
        8: (1319.0, 36, 0.00015861143820241353, 1),
    },
    "pac": {
        1: (0.0, 0, 3.048241693949829e-05, 2),
        2: (336.0, 11, 4.8727375695628995e-05, 2),
        3: (470.0, 26, 7.323420714487583e-05, 2),
        4: (599.0, 22, 6.691088171676047e-05, 2),
        8: (822.0, 51, 0.00011274283622044719, 2),
    },
    "pac_rho1": {
        1: (0.0, 0, 0.00010668978405230104, 2),
        2: (653.0, 11, 0.0001263089206987784, 2),
        3: (867.0, 22, 0.00014448440028745548, 2),
        4: (1086.0, 40, 0.0001713014971426401, 2),
        8: (1324.0, 51, 0.0001891092935582456, 2),
    },
    "sums_ec": {
        1: (0.0, 0, 9.719885664962133e-05, 1),
        2: (42.0, 6, 0.0001063645748427047, 1),
        3: (82.0, 12, 0.00011543680158475908, 1),
        4: (94.0, 12, 0.00011554765506886787, 1),
        8: (177.0, 18, 0.0001248536354835004, 1),
    },
    "sums_ec_sel": {
        1: (0.0, 0, 9.74361264709596e-05, 2),
        2: (78.0, 9, 0.00011276828454080924, 2),
        3: (118.0, 18, 0.00012784913427867962, 2),
        4: (124.0, 18, 0.0001278407342786796, 2),
        8: (168.0, 27, 0.00014332237199998407, 2),
    },
    "sums_pac": {
        1: (0.0, 0, 9.771820007273151e-05, 2),
        2: (73.0, 10, 0.00011400030135235298, 2),
        3: (112.0, 20, 0.000130617595585669, 2),
        4: (126.0, 20, 0.0001307138877130332, 2),
        8: (159.0, 30, 0.00014743193304620107, 2),
    },
}


def _model(machine):
    r = machine.report()
    return (r.makespan, r.work_time, r.comm_time, r.bottleneck_words,
            r.bottleneck_startups, r.total_traffic, r.imbalance)


def _run(machine, name):
    build, call = CASES[name]
    data = build(machine)
    machine.reset()
    return call(machine, data)


@pytest.mark.parametrize("name", sorted(CASES))
def test_model_equals_the_parents_walk(name):
    for p, want in GOLDEN[name].items():
        m = Machine(p=p, seed=GOLDEN_SEED)
        _run(m, name)
        r = m.report()
        got = (r.bottleneck_words, r.bottleneck_startups, r.makespan, m._rng_seq)
        assert got == want, (name, p)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("verify", [False, True], ids=["plain", "verify"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_at_most_two_commands_and_equal_to_sim(backend, verify, name):
    """Lockstep checking rides the result frames: it adds no command
    and changes no result, model or draw address."""
    sim = Machine(p=4, seed=81)
    with Machine(p=4, seed=81, backend=backend, verify=verify) as real:
        build, call = CASES[name]
        d_sim, d_real = build(sim), build(real)
        sim.reset(), real.reset()
        sends = real.backend.driver_sends
        got = call(real, d_real)
        assert real.backend.driver_sends - sends <= (1 if name == "ams" else 2)
        assert got == call(sim, d_sim)
        assert _model(real) == _model(sim)
        assert real._rng_seq == sim._rng_seq


@pytest.mark.parametrize("backend", BACKENDS)
def test_ams_select_over_resident_sorted_chunks(backend):
    """A DistArray of sorted chunks stays where it is: same answer, same
    model and same draws as the list form, nothing but the ranks ships."""
    sim = Machine(p=4, seed=82)
    with Machine(p=4, seed=82, backend=backend) as real:
        data = DistArray(real, _seqs(real), resident=True)
        want = ams_select(sim, _seqs(sim), 700, 1100)
        sends = real.backend.driver_sends
        got = ams_select(real, data, 700, 1100)
        assert real.backend.driver_sends - sends == 1
        assert got == want and sum(got.cuts) == got.k
        assert _model(real) == _model(sim)


@pytest.mark.parametrize("backend", BACKENDS)
def test_lockstep_verification_covers_both_commands(backend):
    """verify=True compares every rank's collective trace: the hash
    table's sendrecv hops, the selection's levels, the winner exchange."""
    for name in ("pac", "ec_sel", "sums_ec_sel", "ams"):
        plain = Machine(p=4, seed=83, backend=backend)
        checked = Machine(p=4, seed=83, backend=backend, verify=True)
        with plain, checked:
            before = checked.backend.worker_message_counts()[0]
            got = _run(checked, name)
            sent = checked.backend.worker_message_counts()[0] - before
            assert got == _run(plain, name)
            assert _model(checked) == _model(plain)
            assert sent >= 2 * 3  # log2(4) sends per collective


@pytest.mark.parametrize("backend", BACKENDS)
def test_death_between_the_two_commands_then_journal_replay(backend):
    """The table command one left resident is worker-computed state: a
    worker dying in command two is a structured WorkerFailure, and the
    retry rebuilds the pool from lineage and answers exactly as
    an undisturbed machine does -- for every pipeline."""
    with Machine(p=2, seed=84, backend=backend) as scratch:
        data = _keys(scratch)
        top_k_frequent_pac(scratch, data, 8, rho=0.3)
        kill_seq = scratch.backend._seq  # command two of that call

    oracle = Machine(p=2, seed=84)
    faulty = Machine(
        p=2, seed=84, backend=backend,
        faults=FaultPlan().kill(1, seq=kill_seq, phase="before"),
        command_timeout=10,
    )
    try:
        d_o, d_f = _keys(oracle), _keys(faulty)
        with pytest.raises(WorkerFailure) as ei:
            top_k_frequent_pac(faulty, d_f, 8, rho=0.3)
        assert ei.value.phase == "dead" and ei.value.seq == kill_seq
        top_k_frequent_pac(oracle, d_o, 8, rho=0.3)
        assert faulty._rng_seq == oracle._rng_seq  # both addresses taken
        oracle.reset(), faulty.reset()
        assert (top_k_frequent_pac(faulty, d_f, 8, rho=0.3)
                == top_k_frequent_pac(oracle, d_o, 8, rho=0.3))
        assert faulty.backend.recoveries == 1
        for name in sorted(CASES):
            build, call = CASES[name]
            assert call(faulty, build(faulty)) == call(oracle, build(oracle)), name
        assert _model(faulty) == _model(oracle)
    finally:
        faulty.close()
        oracle.close()
