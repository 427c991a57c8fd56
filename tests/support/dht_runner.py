"""A runner for the hash table's SPMD pieces over values held in the
driver: the test harness of :func:`repro.frequent.dht.sample_keys`,
:func:`repro.frequent.dht.exchange_gen`,
:func:`repro.frequent.dht.topk_entries_gen`,
:func:`repro.frequent.dht.tree_merge_gen` and
:func:`repro.frequent.ec.exact_counts_gen`.

Each call is ONE worker command sent through
:meth:`repro.machine.Machine.run_command`, the per-PE values riding
along, its charges replayed as the pipelines' are.  Tables come back as
one key-sorted ``{key: count}`` dict per PE, the selection as a list of
``(key, count)`` by (count desc, key asc).
"""

import numpy as np

from repro.frequent.dht import (
    exchange_gen,
    integer_key_dtype,
    local_table,
    sample_keys,
    topk_entries_gen,
    tree_merge_gen,
)
from repro.frequent.ec import exact_counts_gen


def _exchange_gen(rank, p, table, take, log, dtype, salt, width):
    keys, counts = table
    owned = yield from exchange_gen(
        rank, p, (keys.astype(dtype, copy=False), counts), salt, log, width)
    return None, owned


def _count_gen(rank, p, sample, take, log, dtype, salt):
    table = local_table(sample.astype(dtype, copy=False), log)
    owned = yield from exchange_gen(rank, p, table, salt, log)
    return None, owned


def _topk_gen(rank, p, table, take, log, dtype, k):
    keys, counts = table
    total = yield ("allreduce", int(keys.size), "sum")
    keys, counts, _ = yield from topk_entries_gen(
        rank, p, (keys.astype(dtype, copy=False), counts), k, int(total), take, None, log)
    return list(zip(keys.tolist(), counts.tolist())), None


def _sample_gen(rank, p, chunk, take, log, addr, rho):
    yield from ()  # a piece without a collective
    return None, sample_keys(rank, chunk, addr, rho, log)


def _tree_gen(rank, p, value, take, log, merge):
    merged = yield from tree_merge_gen(rank, p, value, merge, "tree_merge", log)
    return None, merged


def _exact_gen(rank, p, chunk, take, log, keys):
    exact = yield from exact_counts_gen(rank, chunk, keys, log)
    return exact, None


def _dicts(tables):
    return [dict(zip(keys.tolist(), counts.tolist())) for keys, counts in tables]


def _key_sorted(tables):
    """``(keys, counts)`` per PE, keys ascending (the table's invariant)."""
    out = []
    for keys, counts in tables:
        order = np.argsort(keys)
        out.append((np.asarray(keys)[order], np.asarray(counts, dtype=np.int64)[order]))
    return out


def _dtype(arrays):
    return integer_key_dtype([a.dtype for a in arrays if a.size])


def exchange(machine, tables, salt=0, width=2.0):
    """Route ``tables[i]`` (PE ``i``'s distinct keys, in any order, and
    the count of each) to their owners, an entry costing ``width`` words
    on the wire."""
    lead = _key_sorted(tables)
    _, owned = machine.run_command(
        _exchange_gen, lead, (_dtype([keys for keys, _ in lead]), salt, width), n_addrs=0)
    return _dicts(owned)


def count(machine, samples, salt=0):
    """Count ``samples[i]`` (PE ``i``'s keys) into the table."""
    samples = [np.asarray(s) for s in samples]
    _, owned = machine.run_command(_count_gen, samples, (_dtype(samples), salt), n_addrs=0)
    return _dicts(owned)


def topk(machine, dicts, k):
    """The ``k`` entries with the largest counts of the table whose
    PE ``i`` holds ``dicts[i]``, after the size's all-reduction."""
    lead = _key_sorted([(np.fromiter(d, dtype=np.int64, count=len(d)),
                         np.fromiter(d.values(), dtype=np.int64, count=len(d)))
                        for d in dicts])
    items, _ = machine.run_command(_topk_gen, lead,
                                   (_dtype([keys for keys, _ in lead]), k))
    return items


def exact_counts(machine, data, keys):
    """Exact global counts of ``keys`` in the resident ``data``
    (``None`` without keys)."""
    exact, _ = machine.run_command(_exact_gen, data._ensure_ref(),
                                   (np.asarray(keys),), n_addrs=0)
    return exact


def sample(machine, data, rho):
    """Every PE's Bernoulli(``rho``) sample of the resident ``data``,
    drawn where its chunk lives from the next draw address."""
    _, samples = machine.run_command(_sample_gen, data._ensure_ref(),
                                     (machine.draw_addr(), rho), n_addrs=0)
    return samples


def merge_dicts(a: dict, b: dict) -> dict:
    """``a`` and ``b`` with the counts of equal keys added."""
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    return out


def tree_merge(machine, values, merge=merge_dicts):
    """``values[i]`` (PE ``i``'s) merged into PE 0 up the binomial tree:
    one entry per PE, the merge at PE 0 and ``None`` elsewhere."""
    _, merged = machine.run_command(_tree_gen, list(values), (merge,), n_addrs=0)
    return merged
