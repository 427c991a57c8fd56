"""Sampling primitives (Section 2 "Bernoulli sampling", Section 8.1).

The algorithms rely on two samplers:

* **Bernoulli sampling** -- include every element independently with
  probability ``rho``.  The naive scan costs ``O(|M|)``; the paper's
  skip-value technique (geometric gaps between successes) brings the
  expected cost down to ``O(rho * |M|)``.  :func:`bernoulli_sample` uses
  the mathematically equivalent vectorized form (draw the Binomial
  count, then a uniform subset); :func:`bernoulli_skip_indices` exposes
  the skip-value formulation itself, which is also what the flexible
  selection algorithm of Section 4.3 exploits: on *sorted* data the
  local rank of the smallest sampled element is geometrically
  distributed, so it can be generated in O(1).

* **Count-weighted sampling** (Section 8.1) -- an object with count
  ``v`` contributes ``floor(v / v_avg)`` samples deterministically plus
  one more with probability ``frac(v / v_avg)``, keeping per-object cost
  constant and the estimator unbiased.
"""

from __future__ import annotations

import numpy as np

from ..kernels import skip_sample_indices, weighted_counts

__all__ = [
    "bernoulli_sample",
    "bernoulli_sample_indices",
    "bernoulli_skip_indices",
    "geometric_rank",
    "weighted_sample_counts",
    "pac_sample_rate",
    "ec_sample_rate",
]


def bernoulli_sample_indices(
    rng: np.random.Generator, n: int, rho: float
) -> np.ndarray | None:
    """Index set of a Bernoulli(rho) sample of ``n`` elements.

    The draw sequence is exactly that of :func:`bernoulli_sample`, so
    the two formulations are interchangeable without perturbing the RNG
    stream.  Only the indices are produced -- the element *extraction*
    can then happen wherever the data lives (the resident-chunk
    execution path ships these small index arrays to the workers
    instead of pulling the chunks to the driver).  Returns ``None`` as
    the "take everything" sentinel when ``rho >= 1``.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"sampling probability must be in [0, 1], got {rho}")
    if n == 0 or rho == 0.0:
        return np.empty(0, dtype=np.int64)
    if rho >= 1.0:
        return None
    count = rng.binomial(n, rho)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    return rng.choice(n, size=count, replace=False)


def bernoulli_sample(rng: np.random.Generator, data: np.ndarray, rho: float) -> np.ndarray:
    """Bernoulli sample of ``data`` with inclusion probability ``rho``.

    Equivalent to flipping an independent coin per element: the sample
    size is ``Binomial(len(data), rho)`` and, conditioned on its size,
    the sample is a uniform subset.  Returns the sampled elements (order
    not meaningful).
    """
    idx = bernoulli_sample_indices(rng, len(data), rho)
    if idx is None:
        return np.asarray(data).copy()
    return np.asarray(data)[idx]


def bernoulli_skip_indices(rng: np.random.Generator, n: int, rho: float) -> np.ndarray:
    """Indices of a Bernoulli(rho) sample of ``0..n-1`` via geometric skips.

    This is the paper's ``O(rho * n)`` expected-time formulation: skip
    values follow a geometric distribution with parameter ``rho``,
    generated by inversion on one uniform per gap, the final
    overshooting one included (:func:`repro.kernels.skip_sample_indices`).
    """
    if not 0.0 < rho <= 1.0:
        if rho == 0.0:
            return np.empty(0, dtype=np.int64)
        raise ValueError(f"sampling probability must be in [0, 1], got {rho}")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if rho >= 1.0:
        return np.arange(n, dtype=np.int64)
    return skip_sample_indices(rng, n, rho)


def geometric_rank(rng: np.random.Generator, rho: float) -> int:
    """Rank (1-based) of the first success of a Bernoulli(rho) process.

    Used by ``amsSelect`` (Algorithm 2): on locally sorted data, the
    local rank of the smallest sampled element is ``Geometric(rho)``
    and can be generated in constant time
    (``geometricRandomDeviate`` in the paper's pseudocode).
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"success probability must be in (0, 1], got {rho}")
    return int(rng.geometric(rho))


def weighted_sample_counts(
    rng: np.random.Generator, values: np.ndarray, v_avg: float
) -> np.ndarray:
    """Per-object sample counts for sum aggregation (Section 8.1).

    An object with non-negative count ``v`` yields
    ``floor(v / v_avg) + Bernoulli(frac(v / v_avg))`` samples, so
    ``E[samples] = v / v_avg`` exactly, and the randomness per key on one
    PE is a single Bernoulli trial (the deviation from the expectation is
    at most 1 per key and PE -- the property Theorem 15's Hoeffding
    argument needs).  Non-finite or negative counts and a ``v_avg``
    that is not positive and finite raise before anything is drawn.
    """
    values = np.asarray(values, dtype=np.float64)
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"sum aggregation requires finite counts, got {bad[0]}")
    if np.any(values < 0):
        raise ValueError("sum aggregation requires non-negative counts")
    v_avg = float(v_avg)
    if not 0.0 < v_avg < np.inf:
        raise ValueError(f"v_avg must be positive and finite, got {v_avg}")
    return weighted_counts(rng, values, v_avg)


# ----------------------------------------------------------------------
# Sample-size formulas from Section 7
# ----------------------------------------------------------------------

def pac_sample_rate(n: int, k: int, eps: float, delta: float) -> float:
    """Sampling probability of Algorithm PAC (Equation 3).

    ``rho * n >= (4 / eps^2) * max((3/k) ln(2n/delta), 2 ln(2k/delta))``
    guarantees an (eps, delta)-approximation of the top-k most frequent
    objects.  Returns ``min(1, rho)``.
    """
    _check_eps_delta(eps, delta)
    if n <= 0:
        return 1.0
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    need = (4.0 / eps**2) * max(
        3.0 / k * np.log(2.0 * n / delta),
        2.0 * np.log(2.0 * k / delta),
    )
    return float(min(1.0, need / n))


def ec_sample_rate(n: int, k_star: int, eps: float, delta: float) -> float:
    """Sampling probability of Algorithm EC (Lemma 10).

    When the ``k_star`` most frequently sampled objects are counted
    exactly, ``rho * n >= (2 / (eps^2 * k_star)) * ln(n / delta)``
    suffices -- a factor ``Theta(k_star)`` smaller than PAC's rate.
    """
    _check_eps_delta(eps, delta)
    if n <= 0:
        return 1.0
    if k_star < 1:
        raise ValueError(f"k_star must be >= 1, got {k_star}")
    need = 2.0 / (eps**2 * k_star) * np.log(n / delta)
    return float(min(1.0, need / n))


def _check_eps_delta(eps: float, delta: float) -> None:
    if not 0.0 < eps < 1.0:
        raise ValueError(f"relative error eps must be in (0, 1), got {eps}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"failure probability delta must be in (0, 1), got {delta}")
