"""Integration: the number of selection levels beyond the golden tables' p.

The golden tables stop at p = 8.  A level of the unsorted selectors
costs ``O(log p)`` start-ups whatever it keeps, so at the paper's p the
modeled start-ups count levels.  This table holds, on sim at 1 Ki int64 per PE over 8 seeds,
the mean bottleneck start-ups and words of one ``multi_select`` at the
golden rank shape ``(1, n/4, n/2, n/2 + 1, n)`` and of
``select_kth(n/3 + 1)`` on the same machine after it, at p in {2, 8,
64}.  ``PARENT`` is the table recorded at a91085c, before the
Floyd-Rivest pivots sat one standard deviation apart, ``multi_select``
sampled at ``7/4 sqrt(p) / n`` and a base-case segment finished by its
end blocks.  At p = 64 a call now pays at most ``GATE`` times the
parent's start-ups, and at p = 8 no more than the parent.  At p = 2 an
8-seed mean is noise (``select_kth`` read 16.25 -> 17.875 start-ups
over these 8 seeds and 16.88 -> 16.85 over seeds 0-199), so that
column is recorded, not gated.  ``PYTHONPATH=src python
tests/integration/test_selection_levels.py`` prints the table at the
current commit.
"""

import numpy as np
import pytest

from repro.machine import DistArray, Machine
from repro.selection import multi_select, select_kth

PS = (2, 8, 64)
SEEDS = range(8)
N = 1 << 10  # per PE

#: mean bottleneck (start-ups, words) per call and p, recorded at a91085c
PARENT = {
    "multi_select": {2: (17.625, 68.625), 8: (67.5, 197.75), 64: (196.5, 603.75)},
    "select_kth": {2: (16.25, 36.0), 8: (54.75, 99.875), 64: (140.25, 255.25)},
}


#: the most start-ups a call may pay at p = 64, as a share of the parent's
GATE = {"multi_select": 0.6, "select_kth": 0.8}


def _costs(p: int, seed: int) -> dict:
    with Machine(p=p, seed=seed) as m:
        data = DistArray.generate(
            m, lambda r, g: g.integers(0, 1 << 40, size=N, dtype=np.int64))
        n = data.global_size
        out = {}
        for name, call in (
            ("multi_select", lambda: multi_select(m, data, [1, n // 4, n // 2, n // 2 + 1, n])),
            ("select_kth", lambda: select_kth(m, data, n // 3 + 1)),
        ):
            m.reset()
            call()
            r = m.report()
            out[name] = (r.bottleneck_startups, r.bottleneck_words)
        return out


def _table() -> dict:
    runs = {p: [_costs(p, seed) for seed in SEEDS] for p in PS}
    return {name: {p: tuple(float(x) for x in np.mean([c[name] for c in runs[p]], axis=0))
                   for p in PS}
            for name in PARENT}


@pytest.fixture(scope="module")
def table():
    return _table()


@pytest.mark.parametrize("name", sorted(PARENT))
def test_fewer_start_ups_than_the_parent(table, name):
    startups = {p: table[name][p][0] for p in PS}
    parent = {p: PARENT[name][p][0] for p in PS}
    assert startups[64] <= GATE[name] * parent[64], startups
    assert startups[8] <= parent[8], startups


if __name__ == "__main__":
    for name, row in _table().items():
        print(name, {p: row[p] for p in PS})
