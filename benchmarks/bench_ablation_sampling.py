"""Ablations for the sampling design choices.

1. amsSelect concurrent trials d vs flexibility-window width (Thm 4);
2. EC's candidate count k* (sample volume vs broadcast volume, Thm 11);
3. unsorted selection's Bernoulli rate multiplier (Thm 1).
"""

import pytest

from repro.bench import experiments as E

from conftest import persist


def test_ablation_ams_trials(benchmark, results_dir):
    def sweep():
        return E.ablation_ams_trials(p=16, n_per_pe=1 << 12, k=1 << 10, trials=10)

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    persist(
        results_dir,
        "ablation_ams_trials",
        rows,
        ("algorithm", "p", "avg_rounds", "startups"),
    )
    # for the narrowest window, d=16 must beat d=1 on expected rounds
    narrow = {
        r.extra["d"]: r.extra["avg_rounds"]
        for r in rows
        if r.extra["width_div"] == 64
    }
    assert narrow[16] <= narrow[1]


def test_ablation_ec_kstar(benchmark, results_dir):
    def sweep():
        return E.ablation_ec_kstar(p=16, n_per_pe=1 << 13)

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    persist(
        results_dir,
        "ablation_ec_kstar",
        rows,
        ("algorithm", "p", "time_s", "volume_words", "rho"),
    )
    # sample rate falls as k* grows (Lemma 10)
    rhos = [r.extra["rho"] for r in rows]
    assert rhos == sorted(rhos, reverse=True)


def test_ablation_selection_sampling(benchmark, results_dir):
    def sweep():
        return E.ablation_selection_sampling(p=16, n_per_pe=1 << 12)

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    persist(
        results_dir,
        "ablation_selection_sampling",
        rows,
        ("algorithm", "p", "time_s", "volume_words", "rounds", "sampled"),
    )
    # larger sampling factors buy fewer recursion rounds at more volume
    first, last = rows[0], rows[-1]
    assert last.extra["sampled"] > first.extra["sampled"]
