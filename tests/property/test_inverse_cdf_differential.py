"""Differential property tests: the inverse-CDF kernel against the
expression it replaced, ``np.searchsorted(cdf, u, "right") + 1``.

The uniforms are handed to the kernel through a stand-in generator, so
they can sit exactly where a search is easiest to get wrong: on CDF
values and one ulp either side, on the guide table's bucket edges
``j / m``, at ``0.0`` and at the largest double below 1.  Laws are
bounded Zipf over tiny to ``2^16`` universes and exponents from flat to
steep, plus gapped CDFs (whose last entry may miss 1 by an ulp).  Sizes
sit on both sides of the slab, and every case runs with and without the
guide table -- the two sides of the ``size >= m`` rule.
"""

from functools import cache

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.distributions import GappedSpec, ZipfDistribution, _inversion
from repro.kernels import guide_size, guide_table, inverse_cdf_sample
from repro.kernels.sampling import _SLAB

UNIVERSES = [1, 2, 7, 1 << 12, 1 << 16]
EXPONENTS = [0.0, 0.5, 1.0, 1.1, 2.0, 8.0]
LAWS = (
    [ZipfDistribution(n, s) for n in UNIVERSES for s in EXPONENTS]
    + [GappedSpec(n, max(1, n // 8), 4.0) for n in UNIVERSES if n > 1]
    + [GappedSpec(4096, 32, 4.0)]  # cdf[-1] < 1.0
)
SIZES = [0, 1, 2, 3, _SLAB - 1, _SLAB, _SLAB + 1]
BELOW_ONE = np.nextafter(1.0, 0.0)


class Replay:
    """A generator stand-in that hands out preset uniforms, in order."""

    def __init__(self, u):
        self.u = u
        self.pos = 0

    def random(self, size=None, out=None):
        out[...] = self.u[self.pos:self.pos + out.size]
        self.pos += out.size
        return out


@cache
def tables(law):
    cdf = law.cdf()
    return cdf, guide_table(cdf)


def reference(cdf, u):
    return np.searchsorted(cdf, u, side="right") + 1


def near(x, toward):
    """``x``, or its neighbour toward ``toward`` (``None``: ``x``
    itself), kept inside ``[0, 1)``."""
    if toward is not None:
        x = np.nextafter(x, toward)
    return min(max(x, 0.0), BELOW_ONE)


@st.composite
def cases(draw):
    """``(law, u)``: a law and uniforms on its hard points."""
    law = draw(st.sampled_from(LAWS))
    cdf = tables(law)[0]
    m = guide_size(cdf.size)
    at_cdf = st.integers(0, cdf.size - 1).map(lambda i: cdf[i])
    at_edge = st.integers(0, m - 1).map(lambda j: j / m)
    point = st.one_of(
        at_cdf, at_edge, st.sampled_from([0.0, BELOW_ONE]),
        st.floats(0.0, 1.0, exclude_max=True),
    )
    special = st.builds(near, point, st.sampled_from([None, 2.0, -1.0]))
    size = draw(st.sampled_from(SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.random(size)
    for _ in range(min(size, draw(st.integers(0, 40)))):
        u[rng.integers(size)] = draw(special)
    return law, u


@given(cases())
@example((ZipfDistribution(1 << 16, 1.1), np.array([0.0, BELOW_ONE, 0.5])))
@example((ZipfDistribution(1, 2.0), np.zeros(_SLAB + 1)))
@example((GappedSpec(4096, 32, 4.0), np.full(5, BELOW_ONE)))
@settings(max_examples=200, deadline=None)
def test_guided_and_plain_draws_equal_searchsorted(case):
    law, u = case
    cdf, guide = tables(law)
    want = reference(cdf, u)
    for table in (guide, None):
        rng = Replay(u)
        got = inverse_cdf_sample(rng, cdf, u.size, table)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        assert rng.pos == u.size


@given(st.sampled_from(LAWS), st.sampled_from([-1, 0, 1]), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_law_draws_either_side_of_the_table_rule(law, offset, seed):
    """``law.sample`` at sizes ``m - 1``, ``m`` and ``m + 1``: below the
    rule it searches, from ``m`` on it builds the table; the draws and
    the generator state equal ``searchsorted`` over ``rng.random``."""
    _inversion.cache_clear()
    size = guide_size(law.cdf().size) + offset
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    got = law.sample(rng, size)
    assert np.array_equal(got, reference(law.cdf(), twin.random(size)))
    assert rng.bit_generator.state == twin.bit_generator.state
    assert (_inversion(law).guide is not None) == (offset >= 0)
