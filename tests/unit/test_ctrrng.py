"""Unit tests: the counter-addressed draw layout (repro.machine.ctrrng).

Every random draw a kernel makes is addressed by ``(seed, stream, rank,
seq, draw)``.  The literals below were recorded at ff3fd99; a change to
them moves every result and golden table in the package.
"""

import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.ctrrng import (
    STREAM_LOCAL,
    STREAM_SHARED,
    DrawAddress,
    philox_generator,
    readdress,
)

ADDR = DrawAddress(seed=0xC0FFEE, seq=5)

#: the first eight uniforms of three addresses under ``ADDR``
KNOWN = {
    "local(3)": [
        0.32078992820534913, 0.705513467134415, 0.1834856574965873,
        0.7308780651371708, 0.4626059357950316, 0.49404084662340864,
        0.09206123926548415, 0.4155735197944589,
    ],
    "local(3, 1)": [
        0.8390358047550622, 0.32308740306380623, 0.1591753080282413,
        0.2109173495517105, 0.7799638668700899, 0.3912980376120657,
        0.0978683634341938, 0.9409806629601081,
    ],
    "shared()": [
        0.7448612505447355, 0.2877851132950304, 0.7642181619396371,
        0.5922298944854134, 0.6166210111816526, 0.30977537934130495,
        0.36891718363391834, 0.9437675272311616,
    ],
}


def test_known_answers():
    got = {
        "local(3)": ADDR.local(3),
        "local(3, 1)": ADDR.local(3, 1),
        "shared()": ADDR.shared(),
    }
    for name, rng in got.items():
        assert rng.random(8).tolist() == KNOWN[name], name


def test_key_and_counter_layout():
    # key: seed, then (stream << 32) | rank; counter: draw and seq in
    # the two high words, so a handle's own words count up from zero
    state = philox_generator(0xC0FFEE, STREAM_SHARED, 3, 5, 2).bit_generator.state["state"]
    assert state["key"].tolist() == [0xC0FFEE, (STREAM_SHARED << 32) | 3]
    assert state["counter"].tolist() == [0, 0, 2, 5]


def test_address_methods_name_their_stream():
    for rank, draw in [(0, 0), (3, 0), (3, 1)]:
        want = philox_generator(ADDR.seed, STREAM_LOCAL, rank, ADDR.seq, draw)
        assert np.array_equal(ADDR.local(rank, draw).random(8), want.random(8))
    for draw in (0, 1):
        want = philox_generator(ADDR.seed, STREAM_SHARED, 0, ADDR.seq, draw)
        assert np.array_equal(ADDR.shared(draw).random(8), want.random(8))


def test_address_words_wrap_at_their_width():
    want = philox_generator(7, STREAM_LOCAL, 2, 9, 1).random(8)
    for args in [
        (7 + 2**64, STREAM_LOCAL, 2, 9, 1),
        (7, STREAM_LOCAL + 2**32, 2, 9, 1),
        (7, STREAM_LOCAL, 2 + 2**32, 9, 1),
        (7, STREAM_LOCAL, 2, 9 + 2**64, 1 + 2**64),
    ]:
        assert np.array_equal(philox_generator(*args).random(8), want), args


def test_distinct_addresses_give_distinct_first_words():
    grid = list(itertools.product(
        (STREAM_LOCAL, STREAM_SHARED), range(4), range(4), range(3)
    ))
    words = {
        int(philox_generator(7, stream, rank, seq, draw).bit_generator.random_raw())
        for stream, rank, seq, draw in grid
    }
    assert len(words) == len(grid)


def test_draw_address_survives_pickle():
    back = pickle.loads(pickle.dumps(ADDR))
    assert back == ADDR and isinstance(back, DrawAddress)
    assert np.array_equal(back.local(3).random(16), ADDR.local(3).random(16))
    assert np.array_equal(back.shared(1).random(16), ADDR.shared(1).random(16))


# ----------------------------------------------------------------------
# Re-addressing a handle
# ----------------------------------------------------------------------

_ADDRESS = st.tuples(
    st.integers(min_value=0, max_value=2**64 - 1),       # seed
    st.sampled_from([STREAM_LOCAL, STREAM_SHARED]),      # stream
    st.integers(min_value=0, max_value=2**32 - 1),       # rank
    st.integers(min_value=0, max_value=2**64 - 1),       # seq
    st.integers(min_value=0, max_value=2**64 - 1),       # draw
)


def _dirty(gen: np.random.Generator, n: int, p: float) -> None:
    """Leave ``gen`` mid-stream: the Generator's binomial set-up cached
    for ``(n, p)``, Philox's 4-word output buffer half used and a spare
    32-bit half-word held (``has_uint32``)."""
    gen.binomial(n, p)
    while gen.bit_generator.state["buffer_pos"] != 1:
        gen.random()
    gen.integers(0, 2**32, dtype=np.uint32)
    state = gen.bit_generator.state
    assert state["buffer_pos"] == 2 and state["has_uint32"] == 1


def _draws(gen: np.random.Generator, method: str):
    if method == "random":
        return gen.random(6)
    if method == "integers":
        return np.concatenate([gen.integers(0, 1000, size=3),
                               gen.integers(0, 2**32, size=3, dtype=np.uint32)])
    if method == "binomial":
        # BTPE (n p >= 30) uses the cached set-up; inversion does not
        return np.concatenate([gen.binomial(500, 0.3, size=3),
                               gen.binomial(7, 0.2, size=3)])
    return np.concatenate([gen.choice(50, size=4, replace=False),
                           gen.choice(10, size=4, p=np.full(10, 0.1))])


@settings(max_examples=120, deadline=None)
@given(
    before=_ADDRESS,
    after=_ADDRESS,
    method=st.sampled_from(["random", "integers", "binomial", "choice"]),
    cached=st.sampled_from([(1000, 0.4), (500, 0.3), (60, 0.9)]),
)
def test_a_readdressed_handle_draws_what_a_fresh_one_draws(
        before, after, method, cached):
    gen = philox_generator(*before)
    _dirty(gen, *cached)
    moved = readdress(gen, *after)
    assert moved is gen
    fresh = philox_generator(*after)
    assert np.array_equal(_draws(gen, method), _draws(fresh, method))
    # and the two handles stay in step afterwards
    assert np.array_equal(gen.random(4), fresh.random(4))


@settings(max_examples=40, deadline=None)
@given(rank=st.integers(0, 63), draws=st.lists(st.integers(0, 40), min_size=1,
                                                max_size=6))
def test_one_handle_moved_through_the_levels(rank, draws):
    """A level loop's pattern: one handle, moved to each level's draw."""
    gen = ADDR.local(rank)
    for draw in draws:
        readdress(gen, ADDR.seed, STREAM_LOCAL, rank, ADDR.seq, draw)
        _dirty(gen, 1000, 0.4)
        readdress(gen, ADDR.seed, STREAM_LOCAL, rank, ADDR.seq, draw)
        assert np.array_equal(gen.random(5), ADDR.local(rank, draw=draw).random(5))


def test_readdress_refuses_a_handle_of_another_bit_generator():
    with pytest.raises(ValueError):
        readdress(np.random.default_rng(0), 7, STREAM_LOCAL, 0, 1)
