"""Input distributions used in the paper's evaluation (Section 10).

* **Bounded Zipf** with exponent ``s``: object ``i`` (1-based rank) has
  relative frequency ``i^-s / H_{N,s}`` where ``H_{N,s}`` is the
  generalized harmonic number.  The paper randomizes the universe size
  (``2^20 - 2^16 .. 2^20``) and the exponent (``s in [1, 1.2]``) per PE
  for the selection experiment, and uses a fixed universe of ``2^20``
  for the top-k most frequent objects experiments.
* **Negative binomial** (``r = 1000``, ``p_success = 0.05``): a wide
  plateau around the mode -- the most frequent objects all have very
  similar frequency, the hard case for sampling-based ranking.
* **Gapped** distributions: a configurable frequency gap after rank
  ``k`` (Figure 5), the case where the PEC algorithm of Section 7.3 can
  promise exact results.

Zipf and gapped keys are drawn by inversion: ``size`` uniforms from
``rng.random`` and, for each, ``np.searchsorted(cdf, u, "right") + 1``.
That function of ``(cdf, u)`` is the contract -- the draws, and with
them data, results and modeled cost, are bit-identical to it, and the
generator is left where ``rng.random(size)`` leaves it.  Both laws
evaluate it through :func:`repro.kernels.inverse_cdf_sample` over one
cache of CDFs: a draw of at least ``m`` values (``m`` its CDF's guide
size) also builds and caches the CDF's guide table (Chen & Asau 1974),
which starts each value at its bucket and resolves it in four probes
instead of a cold binary search; smaller draws are plain searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..kernels import guide_size, guide_table, inverse_cdf_sample
from .validation import is_whole

__all__ = [
    "ZipfDistribution",
    "harmonic_number",
    "zipf_sample",
    "negative_binomial_sample",
    "gapped_sample",
    "GappedSpec",
]


class _Inversion:
    """One law's CDF (read-only) and, once a draw was big enough to
    repay building it, the CDF's guide table."""

    __slots__ = ("cdf", "guide")

    def __init__(self, cdf: np.ndarray):
        cdf.flags.writeable = False
        self.cdf = cdf
        self.guide: np.ndarray | None = None

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.guide is None and size >= guide_size(self.cdf.size):
            self.guide = guide_table(self.cdf)
        return inverse_cdf_sample(rng, self.cdf, size, self.guide)


@lru_cache(maxsize=64)
def _inversion(law) -> _Inversion:
    """The cached sampler of a (frozen, hence hashable) law."""
    return _Inversion(law.cdf())


def _check_universe(universe) -> int:
    if not is_whole(universe) or universe < 1:
        raise ValueError(f"universe must be a whole number >= 1, got {universe!r}")
    return int(universe)


def harmonic_number(n: int, s: float) -> float:
    """Generalized harmonic number ``H_{n,s} = sum_{i=1..n} i^-s``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return float(np.sum(np.arange(1, n + 1, dtype=np.float64) ** -s))


@dataclass(frozen=True)
class ZipfDistribution:
    """Bounded Zipf law: ``P[X = i] ∝ i^-s`` for ``i in 1..universe``."""

    universe: int
    s: float

    def __post_init__(self):
        object.__setattr__(self, "universe", _check_universe(self.universe))
        if not (math.isfinite(self.s) and self.s >= 0):
            raise ValueError(f"exponent must be finite and >= 0, got {self.s!r}")

    def cdf(self) -> np.ndarray:
        """``P[X <= i]`` for ``i in 1..universe``, ending at exactly 1."""
        ranks = np.arange(1, self.universe + 1, dtype=np.float64)
        cdf = np.cumsum(ranks**-self.s)
        cdf /= cdf[-1]
        return cdf

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` object ids (1-based ranks) by inverse CDF."""
        return _inversion(self).sample(rng, size)

    def expected_count(self, rank: int, n: int) -> float:
        """Expected occurrences of the rank-``rank`` object among ``n`` draws."""
        h = harmonic_number(self.universe, self.s)
        return n * rank**-self.s / h

    def pmf(self) -> np.ndarray:
        """Probability of each object id ``1..universe``."""
        ranks = np.arange(1, self.universe + 1, dtype=np.float64)
        w = ranks**-self.s
        return w / w.sum()


def zipf_sample(
    rng: np.random.Generator, size: int, universe: int = 1 << 20, s: float = 1.0
) -> np.ndarray:
    """Convenience wrapper: ``size`` draws from a bounded Zipf law."""
    return ZipfDistribution(universe, s).sample(rng, size)


def negative_binomial_sample(
    rng: np.random.Generator, size: int, r: int = 1000, p_success: float = 0.05
) -> np.ndarray:
    """Keys from the paper's negative binomial workload (wide plateau)."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if not 0.0 < p_success < 1.0:
        raise ValueError(f"p_success must be in (0, 1), got {p_success}")
    return rng.negative_binomial(r, p_success, size=size).astype(np.int64)


@dataclass(frozen=True)
class GappedSpec:
    """A frequency distribution with a gap after rank ``k`` (Figure 5).

    The top ``k`` objects each have relative weight ``head_weight``;
    the remaining ``universe - k`` objects share the rest uniformly.
    ``gap = head_weight / tail_weight`` controls how easy exact
    recovery is for the PEC algorithm.
    """

    universe: int
    k: int
    gap: float = 4.0

    def __post_init__(self):
        object.__setattr__(self, "universe", _check_universe(self.universe))
        if not (is_whole(self.k) and 1 <= self.k < self.universe):
            raise ValueError(f"need 1 <= k < universe, got k={self.k!r}, universe={self.universe}")
        object.__setattr__(self, "k", int(self.k))
        if not (math.isfinite(self.gap) and self.gap > 1.0):
            raise ValueError(f"gap must be finite and exceed 1, got {self.gap!r}")

    def pmf(self) -> np.ndarray:
        w = np.ones(self.universe, dtype=np.float64)
        w[: self.k] = self.gap
        return w / w.sum()

    def cdf(self) -> np.ndarray:
        """The running sum of :meth:`pmf` (its last entry may miss 1 by
        an ulp; the sampler does not rely on it)."""
        return np.cumsum(self.pmf())

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` object ids (1-based ranks) by inverse CDF."""
        return _inversion(self).sample(rng, size)


def gapped_sample(
    rng: np.random.Generator,
    size: int,
    universe: int = 1 << 12,
    k: int = 32,
    gap: float = 4.0,
) -> np.ndarray:
    """Keys whose frequency distribution has a factor-``gap`` jump after
    rank ``k`` -- the PEC-friendly case."""
    return GappedSpec(universe, k, gap).sample(rng, size)
