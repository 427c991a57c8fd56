"""Property-based tests: ``ams_select_batched``'s window size after an
over-estimate, derived against all-reduced.

When a round's trials over-estimate, the search shrinks its window to
the elements up to the smallest over-pivot.  It used to learn the new
window's global size with one more sum-reduction of every PE's
``hi - lo``; the size is the over-pivot's replicated count minus the
count of the under-pivot that moved ``lo`` in the same round (zero if
none did), so the generator now derives it.  :func:`reference_gen` is
the former generator (in the generators' current calling convention,
a draw address in place of two streams); both run through the same
one-command driver and must agree on the value, ``k_hat``, every cut,
the rounds, the fallback flag and the draw addresses taken, on
duplicate-heavy inputs with empty PEs, narrow ranges and short round
budgets (which push the search into the exact fallback).
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.validation import check_rank_range
from repro.machine import Machine
from repro.selection import ams_select_batched
from repro.selection.flexible import (
    _flexible,
    _key_dtype,
    _min_based_rate,
    _SeqWindow,
)
from repro.selection.sorted_select import ms_select_with_cuts_gen


def reference_gen(rank, p, seq, k_lo, k_hi, n, addr, log, *, d=8, max_rounds=40):
    """``ams_select_batched_gen`` as it was before the window size was
    derived: an over-estimate all-reduces ``hi - lo``."""
    k_lo, k_hi = check_rank_range(k_lo, k_hi, n)
    local_rng = addr.local(rank)
    dtype = _key_dtype(seq)
    floats = dtype.kind == "f"
    no_pick = np.inf if floats else np.iinfo(dtype).max

    lo, hi = 0, len(seq)
    accepted = 0
    accepted_total = 0
    cur_lo, cur_hi, cur_n = k_lo, k_hi, int(n)

    for rnd in range(1, max_rounds + 1):
        rho = _min_based_rate(cur_lo, cur_hi)
        size = hi - lo
        picks = np.full(d, no_pick, dtype=dtype)
        if size > 0:
            xs = (local_rng.geometric(rho, size=d) if rho < 1.0
                  else np.ones(d, dtype=np.int64))
            valid = xs <= size
            picks[valid] = [seq.item(int(x)) for x in lo + xs[valid] - 1]
        log.append(("ops", d * np.log2(max(size, 2)) if size > 0 else 0.0))
        pivots = yield ("allreduce", picks, "min")
        found = np.isfinite(pivots) if floats else pivots != no_pick
        if not found.any():
            continue

        local = np.zeros(d, dtype=np.int64)
        for t in np.flatnonzero(found):
            local[t] = int(np.clip(seq.count_le(pivots[t]), lo, hi)) - lo
        log.append(("ops", d * np.log2(max(size, 2))))
        counts = yield ("allreduce", local, "sum")

        ok = found & (counts >= cur_lo) & (counts <= cur_hi)
        if ok.any():
            t = int(np.flatnonzero(ok)[0])
            return (pivots[t], accepted_total + int(counts[t]),
                    accepted + int(local[t]), rnd, False)

        under = found & (counts < cur_lo)
        over = found & (counts > cur_hi)
        if under.any():
            t = int(np.argmax(np.where(under, counts, -1)))
            c = int(counts[t])
            accepted += int(local[t])
            lo += int(local[t])
            accepted_total += c
            cur_lo -= c
            cur_hi -= c
            cur_n -= c
        if over.any():
            t = int(np.argmin(np.where(over, counts, np.iinfo(np.int64).max)))
            le = int(np.clip(seq.count_le(pivots[t]), lo, len(seq)))
            hi = max(lo, le)
            cur_n = int((yield ("allreduce", hi - lo, "sum")))

    value, rel_cut, _ = yield from ms_select_with_cuts_gen(
        rank, p, _SeqWindow(seq, lo, hi), cur_lo, cur_n, addr, log
    )
    return value, accepted_total + cur_lo, accepted + rel_cut, max_rounds, True


def _both(parts, lo_frac, width, d, max_rounds, seed):
    p = len(parts)
    n = sum(len(x) for x in parts)
    k_lo = max(1, int(lo_frac * n))
    k_hi = min(n, k_lo + width)
    runs = []
    for derived in (True, False):
        m = Machine(p, seed=seed)
        if derived:
            res = ams_select_batched(m, parts, k_lo, k_hi, d=d, max_rounds=max_rounds)
        else:
            res = _flexible(m, parts, reference_gen, k_lo, k_hi,
                            {"d": d, "max_rounds": max_rounds})
        runs.append((res, m._rng_seq, m.report().bottleneck_startups))
    return runs


parts_st = st.integers(1, 5).flatmap(lambda p: st.lists(
    st.lists(st.integers(0, 6), max_size=40), min_size=p, max_size=p,
).filter(lambda ps: sum(map(len, ps)) > 0))


@settings(max_examples=150, deadline=None)
@given(
    raw=parts_st,
    floats=st.booleans(),
    lo_frac=st.floats(0.0, 1.0),
    width=st.integers(0, 6),
    d=st.integers(1, 3),
    max_rounds=st.sampled_from([1, 2, 3, 40]),
    seed=st.integers(0, 2**16),
)
@example(raw=[[0] * 30, [0, 1, 1, 1] * 5, [], [2] * 10, [0, 6] * 7], floats=False,
         lo_frac=0.3, width=1, d=2, max_rounds=40, seed=5)
def test_derived_window_size_matches_the_all_reduced_one(
        raw, floats, lo_frac, width, d, max_rounds, seed):
    dtype = np.float64 if floats else np.int64
    parts = [np.sort(np.asarray(x, dtype=dtype)) for x in raw]
    (new, seq_new, st_new), (old, seq_old, st_old) = _both(
        parts, lo_frac, width, d, max_rounds, seed)
    assert new.value == old.value
    assert (new.k, new.cuts, new.rounds, new.exact_fallback) == (
        old.k, old.cuts, old.rounds, old.exact_fallback)
    assert seq_new == seq_old
    assert st_new <= st_old  # one reduction fewer per over-estimating round


def test_an_over_estimating_round_saves_its_reduction():
    """A large input, a narrow range and one trial: the first round
    over-estimates, so the derived form pays fewer start-ups."""
    rng = np.random.default_rng(3)
    parts = [np.sort(rng.integers(0, 50, size=200)) for _ in range(4)]
    (new, _, st_new), (old, _, st_old) = _both(parts, 0.01, 2, 1, 40, 11)
    assert (new.value, new.k, new.cuts) == (old.value, old.k, old.cuts)
    assert st_new < st_old
