"""Sampling kernels: weighted rounding counts, Bernoulli skip sampling
and inverse-CDF draws from a discrete law.

All consume *uniform doubles only*, drawn with ``rng.random`` from the
generator the caller passes in (in a worker, one built from the
command's ``DrawAddress``): ``weighted_counts`` one block of one uniform
per value, ``skip_sample_indices`` one uniform per gap including the
final overshooting one, ``inverse_cdf_sample`` one uniform per value, in
slabs that leave the stream where one ``rng.random(size)`` would.  Those
stream positions are part of the contract -- a caller that draws after
the kernel sees the same state on every backend.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "guide_size", "guide_table", "inverse_cdf_sample", "skip_sample_indices",
    "weighted_counts",
]

#: values per inverse-CDF slab: the uniforms, bucket starts and probes
#: of one slab stay cache-resident, and the temporaries of a draw are
#: one slab's, whatever its size
_SLAB = 1 << 16
#: CDF entries a guide bucket may span and still be resolved by
#: counting; the values of wider buckets go to ``np.searchsorted``
_PROBES = 4
#: most guide buckets (int32 entries: 4 MiB)
_GUIDE_CAP = 1 << 20


def weighted_counts(rng, values, v_avg):
    """Randomized-rounding duplicate counts: ``floor(v / v_avg)`` plus a
    Bernoulli extra on the fractional part (one uniform per value)."""
    scaled = values / v_avg
    base = np.floor(scaled)
    frac = scaled - base
    extra = rng.random(len(values)) < frac
    return (base + extra).astype(np.int64)


def skip_sample_indices(rng, n, rho):
    """Bernoulli(rho) sample positions in ``[0, n)`` via geometric gap
    skipping (inversion on one uniform per gap, including the final
    overshooting gap)."""
    log1m = math.log1p(-rho)
    out = []
    pos = -1
    while True:
        gap = math.floor(math.log1p(-rng.random()) / log1m) + 1
        pos += gap
        if pos >= n:
            break
        out.append(pos)
    return np.array(out, dtype=np.int64)


def guide_size(n):
    """Buckets ``m`` of the guide table of an ``n``-entry CDF: the
    largest power of two ``<= 2n``, at most ``2^20``.  A power of two
    makes ``u * m`` and ``j / m`` exact, and ``m <= 2n`` keeps the int32
    table no larger than the float64 CDF."""
    return min(_GUIDE_CAP, 1 << ((2 * n).bit_length() - 1))


def guide_table(cdf):
    """Chen & Asau's guide table of a sorted ``cdf``: bucket ``j`` of
    ``m = guide_size(len(cdf))`` holds ``searchsorted(cdf, j / m,
    "right")``, where every ``u`` in ``[j/m, (j+1)/m)`` starts its search,
    or ``-1`` when the bucket cannot be resolved by ``_PROBES`` probes
    (it spans more entries, or its probes would run past the end).
    Built slab by slab, so its temporaries are one slab's."""
    n = cdf.size
    m = guide_size(n)
    table = np.empty(m, dtype=np.int32)
    for lo in range(0, m, _SLAB):
        hi = min(lo + _SLAB, m)
        edges = np.arange(lo, hi + 1, dtype=np.float64)
        edges /= m
        first = np.searchsorted(cdf, edges, side="right")
        start = first[:-1]
        narrow = (first[1:] - start <= _PROBES) & (start <= n - _PROBES)
        table[lo:hi] = np.where(narrow, start, -1)
    return table


def inverse_cdf_sample(rng, cdf, size, guide=None):
    """``np.searchsorted(cdf, rng.random(size), "right") + 1`` as int64:
    ``size`` draws by inversion of a sorted ``cdf``, bit for bit, with
    the generator left where ``rng.random(size)`` leaves it.

    The uniforms are drawn in slabs into one reused buffer.  Without a
    ``guide`` (:func:`guide_table` of this ``cdf``) every slab is one
    ``searchsorted``.  With one, a value ``u`` starts at its bucket's
    entry ``s`` and counts how many of ``cdf[s : s + _PROBES]`` are
    ``<= u``: the bucket's entries are all the answer can be, and the
    count is exact because ``cdf`` is sorted.  Values in buckets marked
    ``-1`` are searched instead.
    """
    out = np.empty(size, dtype=np.int64)
    u = np.empty(min(size, _SLAB))
    if cdf.size < _PROBES:
        guide = None  # every bucket is wide: nothing to probe
    if guide is not None:
        m = guide.size
        scaled = np.empty_like(u)
        at = np.empty(u.size, dtype=np.intp)
        start = np.empty(u.size, dtype=np.int32)
        count = np.empty(u.size, dtype=np.uint8)
        hit = np.empty(u.size, dtype=np.uint8)
        shifted = [cdf[t:] for t in range(_PROBES)]
    for lo in range(0, size, _SLAB):
        k = min(_SLAB, size - lo)
        v = rng.random(out=u[:k])
        o = out[lo:lo + k]
        if guide is None:
            np.add(np.searchsorted(cdf, v, side="right"), 1, out=o)
            continue
        s, a, b, c, h = scaled[:k], at[:k], start[:k], count[:k], hit[:k]
        np.multiply(v, m, out=s)
        np.copyto(a, s, casting="unsafe")  # floor(u * m): u >= 0
        # mode="clip": under the default, take() buffers ``out``; a
        # wide bucket's -1 clips to entry 0, and its values are redone
        guide.take(a, out=b, mode="clip")
        wide = np.flatnonzero(b < 0)
        np.copyto(a, b)  # int32 -> intp once, not once per probe
        c.fill(1)
        for entries in shifted:
            entries.take(a, out=s, mode="clip")
            np.less_equal(s, v, out=h.view(bool))
            c += h
        np.add(a, c, out=o)
        if wide.size:
            o[wide] = np.searchsorted(cdf, v[wide], side="right") + 1
    return out
