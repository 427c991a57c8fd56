"""A dict walk of the hash-table exchange: the test oracle of
:func:`repro.frequent.dht.exchange_gen`.

PE ``i``'s sample is first counted into a ``{key: count}`` dict
(:func:`local_key_counts`, charged as the table's local count is).

Per-PE ``{key: count}`` dicts are routed to ``owner(key)`` in the
driver, one plain dict per PE, and charged through ``Machine``'s own
meter table: on a power-of-two ``p`` a hypercube walk whose round ``r``
hands every entry whose owner differs in bit ``r`` to the partner
across it, merging equal keys on arrival (one ``dht_round`` entry per
round); otherwise direct delivery (one ``alltoall`` entry of
``ceil(width * n)`` words per destination) and the owners' merge work.
"""

from math import ceil

import numpy as np

from repro.frequent.dht import local_table


def local_key_counts(machine, rank: int, keys) -> dict:
    """One PE's keys counted into a ``{key: count}`` dict, the work
    charged to ``rank``."""
    log: list = []
    keys, counts = local_table(np.asarray(keys), log)
    ops = np.zeros(machine.p)
    ops[rank] = log[0][1]
    machine.charge_ops(ops)
    return dict(zip(keys.tolist(), counts.tolist()))


def dict_walk(machine, dicts, owner, width: float = 2.0) -> list[dict]:
    """Route ``dicts[i]`` (PE ``i``'s counts) to their owners, summing
    equal keys; returns one key-sorted dict per PE."""
    p = machine.p
    if p & (p - 1):
        split = [[{} for _ in range(p)] for _ in range(p)]  # [src][dst]
        for i, d in enumerate(dicts):
            for key, c in d.items():
                split[i][owner(key)][key] = c
        machine.replay_charges(
            [[("alltoall", [ceil(width * len(b)) for b in row])] for row in split])
        held = [{} for _ in range(p)]
        merged = np.zeros(p)
        for j in range(p):
            for i in range(p):
                for key, c in split[i][j].items():
                    held[j][key] = held[j].get(key, 0) + c
            merged[j] = sum(len(split[i][j]) for i in range(p))
        machine.charge_ops(merged)
    else:
        held = [dict(d) for d in dicts]
        bit = 1
        while bit < p:
            leaving = [{key: c for key, c in held[i].items() if (owner(key) ^ i) & bit}
                       for i in range(p)]
            machine.replay_charges(
                [[("dht_round", bit, len(out), width)] for out in leaving])
            for i, out in enumerate(leaving):
                for key, c in out.items():
                    del held[i][key]
                    held[i ^ bit][key] = held[i ^ bit].get(key, 0) + c
            bit <<= 1
    return [dict(sorted(d.items())) for d in held]
