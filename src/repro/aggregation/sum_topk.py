"""Top-k sum aggregation (Section 8).

Input: (key, value) pairs with non-negative values, distributed over the
PEs; wanted: the ``k`` keys with the largest value *sums* -- e.g. the
top revenue products across a sharded sales log.

The frequent-objects machinery carries over once sampling is done by
*value mass* instead of by occurrence (Section 8.1):

1. each PE aggregates its local pairs into a key -> local-sum table
   ("sample the aggregate counts ... the number of samples deviates
   from its expected value by at most 1" per key and PE -- the property
   Theorem 15's Hoeffding bound needs);
2. a key with local sum ``v`` contributes ``floor(v/v_avg) +
   Bernoulli(frac(v/v_avg))`` sample units, where ``v_avg = m / s`` for
   global value mass ``m`` and target sample size
   ``s = (1/eps) sqrt(2 p ln(2 n / delta))``;
3. sample units are counted in the distributed hash table and the top-k
   selected exactly as in Algorithm PAC;
4. (EC variant) the ``k* >= k`` most heavily sampled keys get *exact*
   sums: identities are all-gathered and each PE answers from its local
   aggregation table -- one ``O(1)`` lookup per key, no second input
   scan needed (the Section 8.2 remark).

Expected time ``O(n/p + beta log(p)/eps sqrt(1/p) log(n/delta)
+ alpha log n)`` (Theorem 15).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from ..common.sampling import weighted_sample_counts
from ..common.validation import (
    check_finite_positive, check_k, check_k_star, check_probability,
)
from ..frequent.dht import integer_key_dtype, pipeline_gen
from ..machine import Machine
from ..machine.collectives import tree_reduce_order
from ..machine.dist_array import generate_resident

__all__ = [
    "DistKeyValue",
    "SumAggResult",
    "top_k_sums_pac",
    "top_k_sums_ec",
    "exact_sums_oracle",
    "sum_sample_size",
]


class _SumAggState:
    """Per-PE resident state: the raw (key, value) pairs plus a cached
    key -> local-sum aggregation table (built on first use, next to the
    data; the EC variant reuses it for its exact-sum lookups, the
    Section 8.2 "no second input scan" remark)."""

    __slots__ = ("keys", "values", "agg")

    def __init__(self, keys: np.ndarray, values: np.ndarray):
        self.keys = keys
        self.values = values
        self.agg: tuple | None = None

    def aggregate(self) -> tuple[tuple[np.ndarray, np.ndarray], bool]:
        """Key -> local-sum table; returns ``(table, computed_now)``."""
        if self.agg is not None:
            return self.agg, False
        if self.keys.size == 0:
            self.agg = (np.empty(0, dtype=np.int64), np.empty(0))
        else:
            uniq, inverse = np.unique(self.keys, return_inverse=True)
            sums = np.zeros(uniq.size)
            np.add.at(sums, inverse, self.values)
            self.agg = (uniq, sums)
        return self.agg, True


def _aggregate_logged(state: _SumAggState, log: list):
    """The (cached) aggregation table; building it is charged like the
    sort behind ``np.unique``."""
    table, fresh = state.aggregate()
    ks = int(state.keys.size)
    log.append(("ops", ks * np.log2(max(ks, 2)) if fresh and ks else 0.0))
    return table


def _sample_units(rank: int, state: _SumAggState, addr, v_avg: float, log: list):
    """Stages 1-2, where the pairs live: aggregate (cached) + draw each
    key's value-weighted sample units.

    The Bernoulli rounding draws come from this PE's counter-addressed
    stream (``addr.local(rank)``).  Returns ``(table, realized sample
    size)``; the pairs and the aggregation table stay with the worker.
    """
    uniq, sums = _aggregate_logged(state, log)
    log.append(("ops", float(uniq.size)))
    if uniq.size == 0:
        return (uniq, np.empty(0, dtype=np.int64)), 0
    units = weighted_sample_counts(addr.local(rank), sums, v_avg)
    nz = units > 0
    return (uniq[nz], units[nz]), int(units.sum())


def _exact_sums_gen(rank: int, state: _SumAggState, keys: np.ndarray, log: list):
    """EC stage 4, SPMD piece: one aggregation-table lookup per
    (replicated) candidate key, then one vector-valued reduction."""
    uniq, sums = _aggregate_logged(state, log)
    vals = np.zeros(len(keys))
    if uniq.size:
        pos = np.clip(np.searchsorted(uniq, keys), 0, uniq.size - 1)
        vals = np.where(uniq[pos] == keys, sums[pos], 0.0)
    log.append(("ops", max(1.0, len(keys) * np.log2(max(int(uniq.size), 2)))))
    totals = yield ("allreduce", vals, "sum")
    return totals


class _PairFacts(NamedTuple):
    """What the driver needs to know about one PE's pairs: enough to run
    the constructor's checks, plus the PE's value mass."""

    key_dtype: np.dtype | None  # None for an empty key chunk
    key_shape: tuple
    value_shape: tuple
    finite_non_negative: bool
    mass: float


def _pair_facts(keys: np.ndarray, values: np.ndarray) -> _PairFacts:
    return _PairFacts(
        keys.dtype if keys.size else None, keys.shape, values.shape,
        bool(np.all((values >= 0) & np.isfinite(values))), float(values.sum()),
    )


def _check_pairs(facts: list[_PairFacts]) -> None:
    """The constructor's checks, in its order: one integer dtype over
    the non-empty key chunks, then chunk by chunk equal lengths and
    finite non-negative values."""
    integer_key_dtype([f.key_dtype for f in facts if f.key_dtype is not None])
    for i, f in enumerate(facts):
        if f.key_shape != f.value_shape:
            raise ValueError(f"chunk {i}: keys and values differ in length")
        if not f.finite_non_negative:
            raise ValueError(
                f"chunk {i}: sum aggregation needs finite non-negative values"
            )


def _born_pairs(make_chunk, rank: int, rng) -> tuple:
    """Worker half of :meth:`DistKeyValue.generate`: draw this PE's
    pairs, check them, and pin the state the pipelines run on -- or
    nothing, if a check failed here (the driver raises the constructor's
    message for the first failing PE and the ref is freed)."""
    pair = make_chunk(rank, rng)
    keys, values = np.asarray(pair[0]), np.asarray(pair[1], dtype=np.float64)
    facts = _pair_facts(keys, values)
    try:
        _check_pairs([facts])
    except ValueError:
        return None, facts
    return _SumAggState(keys.astype(np.int64), values), facts


class DistKeyValue:
    """Distributed (key, value) pairs: one key chunk + value chunk per PE.

    The chunks are pinned resident in the machine's execution backend --
    generated ones are born there -- and the sum-aggregation pipelines
    aggregate, sample and look up exact sums *where the pairs live*;
    only key -> count summaries travel.  The driver keeps each PE's size
    and value mass, and fetches the pairs themselves (:attr:`keys`,
    :attr:`values`) only if asked.
    """

    def __init__(self, machine: Machine, keys, values):
        if len(keys) != machine.p or len(values) != machine.p:
            raise ValueError("need one keys chunk and one values chunk per PE")
        keys = [np.asarray(c) for c in keys]
        values = [np.asarray(v, dtype=np.float64) for v in values]
        self._adopt(machine, [_pair_facts(k, v) for k, v in zip(keys, values)])
        self._pairs = [(k.astype(np.int64), v) for k, v in zip(keys, values)]

    def _adopt(self, machine: Machine, facts: list[_PairFacts]) -> None:
        """Check the pairs by their facts and keep what the driver
        needs of them: sizes and value masses."""
        _check_pairs(facts)
        self.machine = machine
        self._sizes = [math.prod(f.key_shape) for f in facts]
        self._masses = [f.mass for f in facts]
        self._pairs: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._ref = None

    def _ensure_ref(self):
        """Pin the per-PE state in the backend (no-op if already done)."""
        if self._ref is None:
            self._ref = self.machine.backend.put_chunks(
                [_SumAggState(k, v) for k, v in self._pairs]
            )
        return self._ref

    def _fetched(self) -> list[tuple[np.ndarray, np.ndarray]]:
        if self._pairs is None:
            states = self.machine.backend.get_chunks(self._ref)
            self._pairs = [(s.keys, s.values) for s in states]
        return self._pairs

    @property
    def keys(self) -> list[np.ndarray]:
        """Per-PE int64 key chunks (fetched once, if born in the workers)."""
        return [k for k, _ in self._fetched()]

    @property
    def values(self) -> list[np.ndarray]:
        """Per-PE float64 value chunks (fetched once, if born in the workers)."""
        return [v for _, v in self._fetched()]

    @classmethod
    def generate(cls, machine: Machine, make_chunk) -> "DistKeyValue":
        """``make_chunk(rank, rng) -> (keys, values)`` per PE.

        The contract of :meth:`DistArray.generate`: ``make_chunk`` is a
        pure function of ``(rank, rng)``; on a real backend it runs in
        the workers as one command, which the backend records as the
        pairs' lineage, and ``machine.rngs`` moves exactly as on sim.
        The pipelines cache an aggregation table in the state they pin,
        so the state is not immutable: the commands that read it are
        recorded too.  The workers check the pairs; a bad chunk raises
        the constructor's message.
        """
        if not machine.backend.is_real:
            pairs = [make_chunk(i, machine.rngs[i]) for i in range(machine.p)]
            return cls(machine, [p_[0] for p_ in pairs], [p_[1] for p_ in pairs])
        ref, facts = generate_resident(
            machine, partial(_born_pairs, make_chunk), immutable=False)
        data = cls.__new__(cls)
        data._adopt(machine, facts)
        data._ref = ref
        return data

    @property
    def global_size(self) -> int:
        return int(sum(self._sizes))


@dataclass(frozen=True)
class SumAggResult:
    """Top-k keys by value sum.

    ``items`` are ``(key, sum)`` pairs, largest sum first; sums are
    exact iff ``exact_sums`` (EC variant) and otherwise estimates
    ``sample_units * v_avg``.
    """

    items: tuple[tuple[int, float], ...]
    exact_sums: bool
    v_avg: float
    sample_size: int
    k_star: int
    info: dict = field(default_factory=dict)

    @property
    def keys(self) -> tuple[int, ...]:
        return tuple(key for key, _ in self.items)


def sum_sample_size(n: int, p: int, eps: float, delta: float) -> float:
    """Target sample size of Theorem 15: ``s >= (1/eps) sqrt(2 p ln(2n/delta))``."""
    check_probability(eps, "eps")
    check_probability(delta, "delta")
    return (1.0 / eps) * np.sqrt(2.0 * p * np.log(2.0 * max(n, 2) / delta))


def _safe_v_avg(m_total: float, s: float) -> float:
    """Per-sample mass ``m_total / s``, clamped away from zero: for
    subnormal total masses the division can underflow to 0.0, which
    :func:`weighted_sample_counts` (rightly) rejects."""
    return max(m_total / s, float(np.finfo(np.float64).tiny))


def _global_mass(machine: Machine, data: DistKeyValue) -> float:
    """All-reduction of the local value masses.  Each PE's mass came
    back with its sizes when the pairs were made, so the reduction is
    charged without a worker round trip."""
    machine.replay_charges([[("allreduce", 1)]] * machine.p)
    return float(tree_reduce_order(data._masses, "sum"))


def top_k_sums_pac(
    machine: Machine,
    data: DistKeyValue,
    k: int,
    eps: float = 1e-3,
    delta: float = 1e-4,
    *,
    sample_size: float | None = None,
) -> SumAggResult:
    """(eps, delta)-approximate top-k sums (Theorem 15)."""
    check_k(k)
    if sample_size is not None:
        check_finite_positive(sample_size, "sample_size")
    n = data.global_size
    machine.replay_charges([[("allreduce", 1)]] * machine.p)  # the driver tracks the sizes
    if n == 0:
        return SumAggResult((), True, 1.0, 0, k, {})
    m_total = _global_mass(machine, data)
    if m_total == 0.0:
        return SumAggResult((), True, 1.0, 0, k, {"mass": 0.0})
    s = sample_size if sample_size is not None else sum_sample_size(n, machine.p, eps, delta)
    v_avg = _safe_v_avg(m_total, s)
    (_, keys, units, _, _), sizes = machine.run_command(
        pipeline_gen, data._ensure_ref(), (_sample_units, (machine.draw_addr(), v_avg), k))
    return SumAggResult(
        items=tuple(
            (key, float(c * v_avg)) for key, c in zip(keys.tolist(), units.tolist())
        ),
        exact_sums=False,
        v_avg=v_avg,
        sample_size=sum(sizes),
        k_star=k,
        info={"mass": m_total, "target_sample": s},
    )


def top_k_sums_ec(
    machine: Machine,
    data: DistKeyValue,
    k: int,
    eps: float = 1e-3,
    delta: float = 1e-4,
    *,
    k_star: int | None = None,
    sample_size: float | None = None,
) -> SumAggResult:
    """Top-k sums with exact sums for the winners (Section 8.2).

    Unlike frequent-objects EC, no second pass over the raw input is
    needed: the local aggregation tables already hold each key's local
    sum, so exact global sums are one lookup plus one vector reduction
    -- answered where the pairs live, in the one worker command that
    samples, counts and selects the candidates.
    """
    check_k(k)
    k_star = None if k_star is None else check_k_star(k_star, k)
    if sample_size is not None:
        check_finite_positive(sample_size, "sample_size")
    p = machine.p
    n = data.global_size
    machine.replay_charges([[("allreduce", 1)]] * machine.p)  # the driver tracks the sizes
    if n == 0:
        return SumAggResult((), True, 1.0, 0, k, {})
    if k_star is None:
        comm_opt = (1.0 / eps) * np.sqrt(2.0 * np.log2(p + 1) / p * np.log(max(n, 2) / delta))
        k_star = int(max(k, np.ceil(comm_opt)))
    m_total = _global_mass(machine, data)
    if m_total == 0.0:
        return SumAggResult((), True, 1.0, 0, k_star, {"mass": 0.0})
    if sample_size is None:
        # the reduced EC rate: a factor k* fewer sample units suffice
        sample_size = max(
            16.0, sum_sample_size(n, p, eps, delta) / np.sqrt(max(k_star, 1))
        )
    v_avg = _safe_v_avg(m_total, sample_size)
    (_, cand_keys, _, _, exact), sizes = machine.run_command(
        pipeline_gen, data._ensure_ref(),
        (_sample_units, (machine.draw_addr(), v_avg), k_star, False, _exact_sums_gen),
    )
    realized = sum(sizes)
    if exact is None:  # no sample unit was drawn
        return SumAggResult((), True, v_avg, realized, k_star, {})
    top = np.lexsort((cand_keys, -exact))[:k]
    return SumAggResult(
        items=tuple((int(cand_keys[t]), float(exact[t])) for t in top),
        exact_sums=True,
        v_avg=v_avg,
        sample_size=realized,
        k_star=int(k_star),
        info={"mass": m_total, "candidates": len(cand_keys)},
    )


def exact_sums_oracle(data: DistKeyValue) -> dict[int, float]:
    """Driver-side exact key sums (test oracle)."""
    keys = np.concatenate(data.keys) if data.keys else np.empty(0, dtype=np.int64)
    values = np.concatenate(data.values) if data.values else np.empty(0)
    if keys.size == 0:
        return {}
    uniq, inverse = np.unique(keys, return_inverse=True)
    sums = np.zeros(uniq.size)
    np.add.at(sums, inverse, values)
    return {int(key): float(s) for key, s in zip(uniq, sums)}
