"""Unit tests: the counter-addressed draw layout (repro.machine.ctrrng).

Every random draw a kernel makes is addressed by ``(seed, stream, rank,
seq, draw)``.  The literals below were recorded at ff3fd99; a change to
them moves every result and golden table in the package.
"""

import itertools
import pickle

import numpy as np
import pytest

from repro.machine import Machine
from repro.machine.ctrrng import (
    STREAM_LOCAL,
    STREAM_SHARED,
    DrawAddress,
    philox_generator,
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


def test_only_the_last_address_can_be_given_back():
    m = Machine(p=2, seed=7)
    first, second = m.draw_addr(), m.draw_addr()
    with pytest.raises(ValueError, match="not the last allocated"):
        m.give_back_addr(first)
    with pytest.raises(ValueError, match="not the last allocated"):
        m.give_back_addr(DrawAddress(8, second.seq))  # another machine's seed
    m.give_back_addr(second)
    assert m.draw_addr() == second and m._rng_seq == 2
