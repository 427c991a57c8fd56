"""Integration: frequent objects, sum aggregation and ``ams_select``
are one worker command each.

``top_k_frequent_{pac,ec,exact}`` and ``top_k_sums_{pac,ec}`` sample,
count into the array-backed hash table, take its size, select, exchange
the winners and count them exactly in one command; PEC (its ``k*``
estimate), PEC-Zipf (its universe probe), adaptive (its
stop-or-escalate test), dSBF (its resolution rounds) and a streaming
monitor refresh take their decisions inside that command; the
centralized baselines (Naive, Naive-Tree and the space-saving heavy
hitters) gather or tree-merge their tables into PE 0 and broadcast its
answer in theirs; the driver replays
the cost model from the charge logs it returns.  These tests pin the
shape (one driver send per call), equality with sim of results, draw
addresses and the whole model, the model and draw addresses against a
golden table (sim == mp cannot see drift both share), the charge log
against the collectives the workers actually yield, refused overrides,
lockstep verification over the long collective trace, and bit-identical
lineage replay.  The tables a call keeps resident (the exact count
table ``repro serve`` queries, the monitor's stream tables) are held the
same way: the call that makes one, a query over it and a refresh that
ships only the arrivals since the last.
"""

import numpy as np
import pytest

from repro.aggregation import DistKeyValue, top_k_sums_ec, top_k_sums_pac
from repro.common import zipf_sample
from repro.frequent import (
    StreamingTopKMonitor,
    count_table_top_k,
    dsbf_top_candidates,
    heavy_hitters,
    top_k_frequent_adaptive,
    top_k_frequent_ec,
    top_k_frequent_ec_dsbf,
    top_k_frequent_exact,
    top_k_frequent_naive,
    top_k_frequent_naive_tree,
    top_k_frequent_pac,
    top_k_frequent_pec,
    top_k_frequent_pec_zipf,
    top_k_from_table,
)
from repro.machine import DistArray, FaultPlan, Machine, WorkerFailure
from repro.machine.backends import base
from repro.machine.comm import CHARGED_AS
from repro.selection import ams_select

BACKENDS = ["mp", "tcp"]
N = 4000


def _keys(machine):
    data = DistArray.generate(
        machine, lambda r, g: zipf_sample(g, N, universe=1 << 10, s=1.1))
    data._ensure_ref()  # upload now, so send counts see only the call
    return data


def _heavy(machine):
    # eight keys carry 60% of the mass: PEC finds a gap, adaptive stops
    data = DistArray.generate(machine, lambda r, g: np.where(
        g.random(N) < 0.6, g.integers(0, 8, N), g.integers(8, 4000, N)))
    data._ensure_ref()
    return data


def _samples(machine):
    return [g.integers(0, 400, 300) for g in machine.rngs]


def _monitor(machine):
    mon = StreamingTopKMonitor(machine, k=8, eps=0.05, delta=1e-3)
    mon.ingest([zipf_sample(g, N, universe=1 << 10, s=1.1) for g in machine.rngs])
    return mon


def _monitor_delta(machine):
    # refreshed once, then a quarter more arrives: the next refresh
    # ships only that quarter
    mon = _monitor(machine)
    mon.top_k()
    mon.ingest([zipf_sample(g, N // 4, universe=1 << 10, s=1.1) for g in machine.rngs])
    return mon


def _table(machine):
    return count_table_top_k(machine, _keys(machine), 8)[1]


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
    "pec": (_keys, lambda m, d: top_k_frequent_pec(m, d, 8, eps0=0.2)),
    "pec_gap": (_heavy, lambda m, d: top_k_frequent_pec(m, d, 8, eps0=0.2)),
    "pec_zipf": (_keys, lambda m, d: top_k_frequent_pec_zipf(
        m, d, 8, s=1.1, universe=1 << 10)),
    "pec_zipf_probed": (_keys, lambda m, d: top_k_frequent_pec_zipf(m, d, 8, s=1.1)),
    "adaptive": (_keys, lambda m, d: top_k_frequent_adaptive(
        m, d, 8, eps=0.05, probe_eps=0.2)),
    "adaptive_stop": (_heavy, lambda m, d: top_k_frequent_adaptive(
        m, d, 8, eps=0.2, probe_eps=0.2)),
    "dsbf": (_keys, lambda m, d: top_k_frequent_ec_dsbf(m, d, 8, eps=0.05, delta=1e-3)),
    "dsbf_sel": (_keys, lambda m, d: top_k_frequent_ec_dsbf(
        m, d, 8, eps=0.05, delta=1e-3, k_star=12)),
    # a negative margin: every resolution round retries
    "dsbf_retry": (_samples, lambda m, d: dsbf_top_candidates(m, d, 24, kappa0=-1)),
    "monitor": (_monitor, lambda m, mon: mon.top_k(force=True)),
    "monitor_delta": (_monitor_delta, lambda m, mon: mon.top_k(force=True)),
    # the exact call that keeps its owner tables, then queries over them
    "exact_table": (_keys, lambda m, d: count_table_top_k(m, d, 8)[0]),
    "table_query": (_table, lambda m, t: top_k_from_table(m, t, 8)),
    # k covers every entry: nothing is drawn, the address goes back
    "table_query_all": (_table, lambda m, t: top_k_from_table(m, t, 2000)),
    # the centralized baselines: a direct gather, a tree merge of count
    # tables and one of space-saving summaries (which shrink on merge)
    "naive": (_keys, lambda m, d: top_k_frequent_naive(m, d, 8, rho=0.3)),
    "naive_tree": (_keys, lambda m, d: top_k_frequent_naive_tree(m, d, 8, rho=0.3)),
    "heavy_hitters": (_keys, lambda m, d: heavy_hitters(m, d, 0.01)),
}
GOLDEN_SEED = 1502

#: case -> p -> (bottleneck_words, bottleneck_startups, makespan, draw
#: addresses allocated) with ``Machine(p, seed=GOLDEN_SEED)`` on sim.
#: The draw addresses are those of the driver-side dict walk (fc993c7)
#: and of the two-command form; the model is the one-command form's,
#: which charges the table size's all-reduction once instead of twice
#: whenever the call selects (one word and one start-up per tree level
#: fewer).  The PEC, PEC-Zipf, adaptive, dSBF and monitor rows were
#: recorded at 63af6e3, where those calls took several commands; ``pec``,
#: ``pec_gap``, ``adaptive`` (escalating) and ``dsbf_retry`` have moved
#: since only by the second selection PEC no longer runs (its answer is
#: the head's prefix; one draw address fewer) and by the size
#: all-reduction a later selection over the same table no longer repeats.
#: The kept-table rows (``exact_table``, ``table_query*``,
#: ``monitor_delta``) were recorded where those calls were added;
#: ``exact_table`` equals ``exact``, whose charges it shares.  The
#: ``naive``, ``naive_tree`` and ``heavy_hitters`` rows were recorded
#: while those calls still met on the driver (a gather or a tree
#: reduction of driver-held values); their one command charges the same.
#: The model cells of every row whose threshold selection runs a level
#: were re-recorded when the Floyd-Rivest pivots came to sit one standard
#: deviation apart; the draw addresses did not move.
GOLDEN = {
    "adaptive": {
        1: (0.0, 0, 0.0001037647037525157, 3),
        2: (414.0, 19, 0.00010352892520459061, 3),
        3: (541.0, 42, 0.00012953134337870408, 3),
        4: (639.0, 42, 0.00012503271482001754, 3),
        8: (593.0, 63, 0.0001519486572997435, 3),
    },
    "adaptive_stop": {
        1: (0.0, 0, 6.201392408288469e-05, 2),
        2: (492.0, 11, 4.949286541284895e-05, 2),
        3: (440.0, 18, 4.922818723419721e-05, 2),
        4: (561.0, 22, 5.0849427198542275e-05, 2),
        8: (425.0, 39, 7.043131582651303e-05, 2),
    },
    "dsbf": {
        1: (0.0, 0, 5.158960488289789e-05, 1),
        2: (273.5, 6, 6.006696269399472e-05, 1),
        3: (490.0, 12, 6.847687275296655e-05, 1),
        4: (425.0, 12, 6.813963453333406e-05, 1),
        8: (636.5, 18, 7.82085930191064e-05, 1),
    },
    "dsbf_retry": {
        1: (0.0, 0, 1.3778088150610569e-05, 4),
        2: (531.0, 30, 6.296095593922502e-05, 4),
        3: (987.0, 102, 0.00017446853753209435, 4),
        4: (1056.5, 54, 0.00010279942411040804, 4),
        8: (1667.0, 87, 0.0001571843596574344, 4),
    },
    "dsbf_sel": {
        1: (0.0, 0, 5.557992170094723e-05, 2),
        2: (249.5, 12, 6.0537917794622216e-05, 2),
        3: (325.0, 20, 7.071317974421861e-05, 2),
        4: (373.5, 20, 6.874020131176364e-05, 2),
        8: (506.0, 36, 9.16150435587129e-05, 2),
    },
    "monitor": {
        1: (0.0, 0, 4.043521650639554e-06, 2),
        2: (482.0, 10, 2.094048092307991e-05, 2),
        3: (592.0, 20, 3.759521800639428e-05, 2),
        4: (637.0, 24, 4.32418415647233e-05, 2),
        8: (566.0, 42, 7.092147733175672e-05, 2),
    },
    "monitor_delta": {
        1: (0.0, 0, 4.394987384881093e-06, 4),
        2: (488.0, 8, 1.8171259236619106e-05, 4),
        3: (584.0, 16, 3.179300393702765e-05, 4),
        4: (615.0, 22, 4.020256769995725e-05, 4),
        8: (520.0, 30, 5.2683509775004324e-05, 4),
    },
    "pec": {
        1: (0.0, 0, 0.0001169484410484003, 2),
        2: (629.0, 15, 0.00010974667824498935, 2),
        3: (954.0, 24, 0.00011146201533896614, 2),
        4: (956.0, 20, 0.00010086742048067401, 2),
        8: (1030.0, 48, 0.00013609674871965297, 2),
    },
    "pec_gap": {
        1: (0.0, 0, 9.040144105993878e-05, 2),
        2: (750.0, 8, 6.901265870651919e-05, 2),
        3: (1070.0, 28, 8.833794868383797e-05, 2),
        4: (1127.0, 16, 6.48992204922125e-05, 2),
        8: (1269.0, 24, 6.99049099002339e-05, 2),
    },
    "pec_zipf": {
        1: (0.0, 0, 0.00010038332883581547, 2),
        2: (410.0, 11, 8.60910866851285e-05, 2),
        3: (458.0, 30, 0.00010492032897928016, 2),
        4: (518.0, 22, 8.795669245547584e-05, 2),
        8: (507.0, 39, 0.00010807903588826497, 2),
    },
    "pec_zipf_probed": {
        1: (0.0, 0, 0.0001007035368054832, 2),
        2: (411.0, 12, 8.759406950775459e-05, 2),
        3: (460.0, 32, 0.00010792338419436422, 2),
        4: (520.0, 24, 9.095989245547583e-05, 2),
        8: (510.0, 42, 0.00011258223588826496, 2),
    },
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
        8: (470.0, 24, 8.69387930191064e-05, 2),
    },
    "ec_sel": {
        1: (0.0, 0, 5.3610010845781857e-05, 2),
        2: (222.0, 11, 5.799636632957648e-05, 2),
        3: (301.0, 18, 6.732860426383025e-05, 2),
        4: (299.0, 18, 6.540850579865541e-05, 2),
        8: (309.0, 27, 7.803235483025673e-05, 2),
    },
    "exact": {
        1: (0.0, 0, 9.960101309168409e-05, 1),
        2: (641.0, 16, 0.0001256043516090534, 1),
        3: (868.0, 28, 0.0001456438722960211, 1),
        4: (1075.0, 32, 0.00015129568072610523, 1),
        8: (1316.0, 33, 0.00015410823820241355, 1),
    },
    "exact_table": {
        1: (0.0, 0, 9.960101309168409e-05, 1),
        2: (641.0, 16, 0.0001256043516090534, 1),
        3: (868.0, 28, 0.0001456438722960211, 1),
        4: (1075.0, 32, 0.00015129568072610523, 1),
        8: (1316.0, 33, 0.00015410823820241355, 1),
    },
    "table_query": {
        1: (0.0, 0, 2.9539097750043273e-06, 2),
        2: (39.0, 7, 1.4985446421481677e-05, 2),
        3: (59.0, 14, 2.615812601015871e-05, 2),
        4: (68.0, 32, 5.290522286534332e-05, 2),
        8: (86.0, 33, 5.530826909213502e-05, 2),
    },
    "table_query_all": {
        1: (0.0, 0, 0.0, 1),
        2: (804.0, 1, 2.7752e-06, 1),
        3: (1750.0, 2, 4.8816e-06, 1),
        4: (1434.0, 2, 5.2368e-06, 1),
        8: (1858.0, 3, 7.328e-06, 1),
    },
    "naive": {
        1: (0.0, 0, 2.9646521545516488e-05, 1),
        2: (602.0, 3, 3.748252154551648e-05, 1),
        3: (1202.0, 6, 4.525132154551649e-05, 1),
        4: (1852.0, 7, 4.859132154551648e-05, 1),
        8: (4258.0, 13, 6.569772154551648e-05, 1),
    },
    "naive_tree": {
        1: (0.0, 0, 2.9004521545516486e-05, 1),
        2: (602.0, 3, 3.7440521545516485e-05, 1),
        3: (1202.0, 6, 4.580732154551649e-05, 1),
        4: (1538.0, 6, 4.716692154551648e-05, 1),
        8: (2770.0, 9, 5.804796310113316e-05, 1),
    },
    "heavy_hitters": {
        1: (0.0, 0, 6.919244951819781e-05, 0),
        2: (802.0, 1, 7.507644951819781e-05, 0),
        3: (1604.0, 2, 8.09636495181978e-05, 0),
        4: (1604.0, 2, 8.09636495181978e-05, 0),
        8: (2406.0, 3, 8.685724951819781e-05, 0),
    },
    "pac": {
        1: (0.0, 0, 3.047921693949829e-05, 2),
        2: (335.0, 10, 4.722417569562899e-05, 2),
        3: (469.0, 24, 7.023100714487585e-05, 2),
        4: (597.0, 20, 6.390768171676047e-05, 2),
        8: (810.0, 42, 9.911552644544285e-05, 2),
    },
    "pac_rho1": {
        1: (0.0, 0, 0.00010668658405230104, 2),
        2: (652.0, 10, 0.00012480572069877837, 2),
        3: (865.0, 20, 0.00014148120028745548, 2),
        4: (1084.0, 38, 0.00016829829714264008, 2),
        8: (1341.0, 42, 0.00017592054336943173, 2),
    },
    "sums_ec": {
        1: (0.0, 0, 9.719885664962133e-05, 1),
        2: (42.0, 6, 0.0001063645748427047, 1),
        3: (82.0, 12, 0.00011543680158475908, 1),
        4: (94.0, 12, 0.00011554765506886787, 1),
        8: (177.0, 18, 0.0001248536354835004, 1),
    },
    "sums_ec_sel": {
        1: (0.0, 0, 9.74329264709596e-05, 2),
        2: (77.0, 8, 0.00011126508454080923, 2),
        3: (116.0, 16, 0.00012484593427867962, 2),
        4: (122.0, 16, 0.0001248375342786796, 2),
        8: (165.0, 24, 0.00013881917199998407, 2),
    },
    "sums_pac": {
        1: (0.0, 0, 9.771500007273152e-05, 2),
        2: (72.0, 9, 0.00011249710135235297, 2),
        3: (110.0, 18, 0.00012761439558566897, 2),
        4: (124.0, 18, 0.0001277106877130332, 2),
        8: (156.0, 27, 0.00014292873304620106, 2),
    },
}


#: p -> (draw addresses allocated after each call, bottleneck_words,
#: bottleneck_startups, makespan) of ``ec`` (which selects only at
#: p = 8), ``pac`` and ``sums_ec`` on one machine.  The addresses were
#: recorded at the parent commit, where a call that did not select never
#: allocated the selection's address; the model is the one-command form's
#: (re-recorded at p = 8 with the one-standard-deviation pivots).
SEQUENCE_GOLDEN = {
    1: ((1, 3, 4), 0.0, 0, 0.0001790476604875864),
    2: ((1, 3, 4), 583.0, 21, 0.0002119180968832173),
    3: ((1, 3, 4), 901.0, 42, 0.00024529722619052167),
    4: ((1, 3, 4), 999.0, 46, 0.00025086873834720885),
    8: ((2, 4, 5), 1351.0, 72, 0.00029141837389016844),
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


def _sends(machine):
    return getattr(machine.backend, "driver_sends", 0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_model_and_draws_equal_the_golden_table(name):
    for p, want in GOLDEN[name].items():
        m = Machine(p=p, seed=GOLDEN_SEED)
        _run(m, name)
        r = m.report()
        got = (r.bottleneck_words, r.bottleneck_startups, r.makespan, m._rng_seq)
        assert got == want, (name, p)


def test_a_call_that_does_not_select_gives_its_address_back():
    """The selection's address is allocated with the command and given
    back when the table holds at most ``k`` entries: the next call draws
    from it, exactly as when the address was allocated only on need."""
    for p, want in SEQUENCE_GOLDEN.items():
        m = Machine(p=p, seed=GOLDEN_SEED)
        keys, kv = _keys(m), _kv(m)
        m.reset()
        seqs = []
        for name, data in (("ec", keys), ("pac", keys), ("sums_ec", kv)):
            CASES[name][1](m, data)
            seqs.append(m._rng_seq)
        r = m.report()
        got = (tuple(seqs), r.bottleneck_words, r.bottleneck_startups, r.makespan)
        assert got == want, p


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_one_command_and_equal_to_sim(backend, name):
    """Lockstep checking rides the result frames: it adds no command
    and changes no result, model or draw address."""
    sim = Machine(p=4, seed=81)
    with Machine(p=4, seed=81, backend=backend) as real:
        build, call = CASES[name]
        d_sim, d_real = build(sim), build(real)
        sim.reset(), real.reset()
        sends = _sends(real)
        got = call(real, d_real)
        assert _sends(real) - sends == 1
        assert got == call(sim, d_sim)
        assert _model(real) == _model(sim)
        assert real._rng_seq == sim._rng_seq


#: how a charge log spells the collectives a worker yields: a model kind
#: that the production table of deliberate differences (``CHARGED_AS``)
#: declares for one request kind alone stands for that request -- a
#: hash-table round, the baselines' direct gather and each round of
#: their tree merge are sendrecv hops -- and the selection's base case
#: is one allgather charged as gather + broadcast
YIELDED_AS = {model: kind for kind, models in CHARGED_AS.items() for model in models
              if sum(model in other for other in CHARGED_AS.values()) == 1}


def _charged_collectives(log):
    kinds = [entry[0] for entry in log if entry[0] != "ops"]
    out, i = [], 0
    while i < len(kinds):
        if kinds[i:i + 2] == ["gather", "broadcast"]:
            out.append("allgather")
            i += 2
        else:
            out.append(YIELDED_AS.get(kinds[i], kinds[i]))
            i += 1
    return out


#: calls whose command takes a scalar all-reduction besides the table
#: size's (adaptive's probe size and PEC-Zipf's universe probe), the
#: queries over a kept table, whose size is already replicated, and the
#: heavy hitters, which sample nothing (the naive baselines' one is the
#: sample size's)
SCALAR_REDUCTIONS = {"adaptive": 2, "adaptive_stop": 2, "pec_zipf_probed": 2,
                     "table_query": 0, "table_query_all": 0, "heavy_hitters": 0}


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(set(CASES) - {"ams"}))
def test_charge_log_matches_the_executed_schedule(monkeypatch, name, p):
    """The collectives a call replays are the ones its workers yield
    (sim's in-process runner executes every yield through
    ``spmd_collective``), the table size's all-reduction among them
    exactly once, also when a call selects twice from one table: no
    charge without an execution."""
    m = Machine(p=p, seed=85)
    build, call = CASES[name]
    data = build(m)
    yielded, replayed = [], []
    real_collective, real_replay = base.spmd_collective, m.replay_charges

    def collective(kind, requests):
        yielded.append((kind, requests[0][1]))
        return real_collective(kind, requests)

    def replay(logs):
        # the driver charges the all-reduction of the sizes it tracks
        # as a log of its own, which no worker yields
        if logs[0] != [("allreduce", 1)]:
            replayed.extend(logs[0])
        real_replay(logs)

    monkeypatch.setattr(base, "spmd_collective", collective)
    monkeypatch.setattr(m, "replay_charges", replay)
    call(m, data)
    assert _charged_collectives(replayed) == [kind for kind, _ in yielded]
    sizes = [payload for kind, payload in yielded
             if kind == "allreduce" and np.ndim(payload) == 0]
    assert len(sizes) == SCALAR_REDUCTIONS.get(name, 1)


def test_adaptive_leaves_the_chunks_in_the_workers():
    """The input size comes from the sizes the driver tracks: no chunk
    travels to the driver."""
    with Machine(p=2, seed=87, backend="mp") as m:
        data = _keys(m)
        assert data._chunks is None
        top_k_frequent_adaptive(m, data, 8, eps=0.05, probe_eps=0.2)
        assert data._chunks is None


def test_heavy_hitters_leave_the_chunks_in_the_workers():
    """Every PE summarises its own chunk: no chunk travels to the
    driver, and the driver ships only the call's arguments."""
    with Machine(p=2, seed=87, backend="mp") as m:
        data = _keys(m)
        assert data._chunks is None
        heavy_hitters(m, data, 0.01)
        assert data._chunks is None


#: override -> (input builder, call, message): each must be refused in
#: the driver before anything is charged, sent or drawn
REFUSALS = {
    "pac rho=1.5": (_keys, lambda m, d: top_k_frequent_pac(m, d, 4, rho=1.5), "rho"),
    "pac rho=0": (_keys, lambda m, d: top_k_frequent_pac(m, d, 4, rho=0.0), "rho"),
    "pac rho=nan": (_keys, lambda m, d: top_k_frequent_pac(
        m, d, 4, rho=float("nan")), "rho"),
    "ec rho=1.5": (_keys, lambda m, d: top_k_frequent_ec(m, d, 4, rho=1.5), "rho"),
    "ec k_star<k": (_keys, lambda m, d: top_k_frequent_ec(m, d, 4, k_star=2), "k_star"),
    "ec k_star=2.5": (_keys, lambda m, d: top_k_frequent_ec(
        m, d, 4, k_star=2.5), "k_star"),
    "dsbf k_star<k": (_keys, lambda m, d: top_k_frequent_ec_dsbf(
        m, d, 4, k_star=3), "k_star"),
    "dsbf rho=0": (_keys, lambda m, d: top_k_frequent_ec_dsbf(m, d, 4, rho=0.0), "rho"),
    "sums_ec k_star=0": (_kv, lambda m, d: top_k_sums_ec(m, d, 4, k_star=0), "k_star"),
    "sums_ec k_star<k": (_kv, lambda m, d: top_k_sums_ec(m, d, 4, k_star=2), "k_star"),
    "sums_ec sample_size=nan": (_kv, lambda m, d: top_k_sums_ec(
        m, d, 4, sample_size=float("nan")), "sample_size"),
    "sums_pac sample_size=-5": (_kv, lambda m, d: top_k_sums_pac(
        m, d, 4, sample_size=-5), "sample_size"),
    "sums_pac sample_size=0": (_kv, lambda m, d: top_k_sums_pac(
        m, d, 4, sample_size=0), "sample_size"),
    "sums_pac sample_size=inf": (_kv, lambda m, d: top_k_sums_pac(
        m, d, 4, sample_size=float("inf")), "sample_size"),
    "naive k=0": (_keys, lambda m, d: top_k_frequent_naive(m, d, 0), "k"),
    "naive rho=1.5": (_keys, lambda m, d: top_k_frequent_naive(m, d, 4, rho=1.5), "rho"),
    "naive_tree rho=0": (_keys, lambda m, d: top_k_frequent_naive_tree(
        m, d, 4, rho=0.0), "rho"),
}


@pytest.mark.parametrize("backend", ["sim"] + BACKENDS)
def test_refused_overrides_leave_no_trace(backend):
    with Machine(p=4, seed=86, backend=backend) as m:
        inputs = {_keys: _keys(m), _kv: _kv(m)}
        before = (_model(m), m._rng_seq, _sends(m))
        for name, (build, call, what) in REFUSALS.items():
            with pytest.raises(ValueError, match=f"^{what} must"):
                call(m, inputs[build])
            assert (_model(m), m._rng_seq, _sends(m)) == before, name


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


#: collectives in which PE 0 sends, where fewer than three: the
#: baselines' PE 0 only receives the gather or the tree merge
RANK0_SENDING = {"naive": 2, "naive_tree": 2, "heavy_hitters": 1}


@pytest.mark.parametrize("backend", BACKENDS)
def test_lockstep_verification_covers_the_one_command(backend):
    """The driver compares every rank's collective trace: the hash
    table's sendrecv hops, the size, the selection's levels, the winner
    exchange, the baselines' gather, tree rounds and broadcast -- and
    the check changes no result and no model."""
    for name in ("pac", "ec_sel", "sums_ec_sel", "ams", "pec", "pec_zipf_probed",
                 "adaptive", "dsbf_sel", "dsbf_retry", "monitor", "monitor_delta",
                 "exact_table", "table_query", "naive", "naive_tree",
                 "heavy_hitters"):
        sim = Machine(p=4, seed=83)
        real = Machine(p=4, seed=83, backend=backend)
        with real:
            before = real.backend.worker_message_counts()[0]
            got = _run(real, name)
            sent = real.backend.worker_message_counts()[0] - before
            assert got == _run(sim, name)
            assert _model(real) == _model(sim)
            # log2(4) sends per collective
            assert sent >= 2 * RANK0_SENDING.get(name, 3)


@pytest.mark.parametrize("backend", BACKENDS)
def test_death_in_the_one_command_then_lineage_replay(backend):
    """A worker dying in a pipeline's one command is a structured
    WorkerFailure that keeps the selection's address (as a failed second
    command did), and the retry rebuilds the pool from lineage and
    answers exactly as an undisturbed machine does -- for every
    pipeline."""
    with Machine(p=2, seed=84, backend=backend) as scratch:
        data = _keys(scratch)
        top_k_frequent_pac(scratch, data, 8, rho=0.3)
        kill_seq = scratch.backend._seq  # that call's one command

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


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ["table_query", "monitor_delta"])
def test_death_under_a_kept_table_then_lineage_replay(backend, name):
    """A worker dying in the command that reads a kept table loses the
    table with it; the retry rebuilds the pool, replays the table's
    lineage (the dataset, the command that counted it or every refresh
    that merged a delta) and answers as an undisturbed machine does."""
    build, call = CASES[name]
    with Machine(p=2, seed=88, backend=backend) as scratch:
        call(scratch, build(scratch))
        kill_seq = scratch.backend._seq  # the call's one command

    oracle = Machine(p=2, seed=88)
    faulty = Machine(
        p=2, seed=88, backend=backend,
        faults=FaultPlan().kill(1, seq=kill_seq, phase="before"),
        command_timeout=10,
    )
    try:
        d_o, d_f = build(oracle), build(faulty)
        with pytest.raises(WorkerFailure):
            call(faulty, d_f)
        call(oracle, d_o)  # the failed command kept its addresses
        assert faulty._rng_seq == oracle._rng_seq
        oracle.reset(), faulty.reset()
        assert call(faulty, d_f) == call(oracle, d_o)
        assert faulty.backend.recoveries == 1
        assert _model(faulty) == _model(oracle)
        if name == "monitor_delta":
            assert [t[0].tolist() for t in d_f.tables] == [t[0].tolist() for t in d_o.tables]
    finally:
        faulty.close()
        oracle.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_monitor_refresh_ships_only_its_delta(backend):
    """A refresh sends the arrivals since the last one, not the tables:
    its command's bytes are bounded by the delta tables, far below the
    first refresh's, and the merged tables equal sim's."""
    def sent(m):
        return sum(v["wire"] + v["shm"] for v in m.backend.transport_bytes().values())

    sim = Machine(p=2, seed=89)
    with Machine(p=2, seed=89, backend=backend) as real:
        mons = []
        for m in (sim, real):
            mon = StreamingTopKMonitor(m, k=8, eps=0.05, delta=1e-3)
            mon.ingest([zipf_sample(g, 40_000, universe=1 << 16, s=1.1) for g in m.rngs])
            mons.append(mon)
        b0 = sent(real)
        assert mons[1].top_k() == mons[0].top_k()
        b1 = sent(real)
        for m, mon in zip((sim, real), mons):
            mon.ingest([zipf_sample(g, 2_000, universe=1 << 16, s=1.1) for g in m.rngs])
        delta = sum(keys.nbytes + counts.nbytes for keys, counts in mons[1]._deltas)
        assert mons[1].top_k(force=True) == mons[0].top_k(force=True)
        b2 = sent(real)
        assert b2 - b1 <= delta + 4096
        assert 5 * (b2 - b1) < b1 - b0
        for (k_s, c_s), (k_r, c_r) in zip(mons[0].tables, mons[1].tables):
            assert k_s.tolist() == k_r.tolist() and c_s.tolist() == c_r.tolist()
