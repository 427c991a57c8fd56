"""Sampling kernels: weighted rounding counts and Bernoulli skip
sampling.

Both consume *uniform doubles only*, drawn with ``rng.random`` from the
generator the caller passes in (in a worker, one built from the
command's ``DrawAddress``): ``weighted_counts`` one block of one uniform
per value, ``skip_sample_indices`` one uniform per gap including the
final overshooting one.  Those stream positions are part of the
contract -- a caller that draws after the kernel sees the same state on
every backend.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["weighted_counts", "skip_sample_indices"]


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
