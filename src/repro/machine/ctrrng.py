"""Stateless counter-based RNG: draws addressed by ``(key, counter)``.

Random123-style (Salmon et al., SC'11) counter-based randomness, the
``toast.rng`` idiom: instead of shipping generator *state* between the
driver and the workers (the retired :mod:`repro.machine.rngstate`
pass-through), every draw a kernel makes is *addressed* by

* ``key     = (machine_seed, stream_id, rank)`` -- who is drawing,
* ``counter = (seq, draw_index)``              -- which draw it is,

where ``seq`` is a small integer the driver allocates at command-build
time (:meth:`repro.machine.Machine.draw_addr`), in issue order, so the
address stream is identical on every backend.  A Philox-4x64 bit
generator keyed this way is *stateless* end to end:

* nothing crosses the wire but the tiny ``(seed, seq)`` address -- the
  lineage records addresses, not generator states;
* no stream is fast-forwarded in the driver after a command completes,
  so a whole recursion draws level after level inside one command and
  fused serve batches draw what their queries would alone;
* any command's draws are computable from its address alone
  (kill/recover replays the same addresses and gets the same bits).

Layout: the Philox key packs ``seed`` in word 0 and
``(stream_id << 32) | rank`` in word 1; the 256-bit counter carries
``seq`` and ``draw_index`` in its two *high* words (numpy's Philox
increments the counter little-endian, word 0 first), so one handle can
emit 2**128 words before touching the neighbouring address.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "DrawAddress",
    "STREAM_LOCAL",
    "STREAM_SHARED",
    "philox_generator",
    "readdress",
]

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

#: per-PE streams: ``rank`` is the PE index (replaces ``machine.rngs[i]``
#: consumption inside algorithms)
STREAM_LOCAL = 0
#: the machine-wide shared stream (replaces ``machine.shared_rng``
#: consumption); the rank slot is fixed at 0
STREAM_SHARED = 1


def _key(seed: int, stream_id: int, rank: int) -> tuple[int, int]:
    return seed & _MASK64, ((stream_id & _MASK32) << 32) | (rank & _MASK32)


def _counter(seq: int, draw: int) -> tuple[int, int, int, int]:
    return 0, 0, draw & _MASK64, seq & _MASK64


def philox_generator(
    seed: int, stream_id: int, rank: int, seq: int, draw: int = 0
) -> np.random.Generator:
    """A Generator positioned at address ``(seed, stream_id, rank, seq, draw)``.

    Pure function of its arguments: the same address yields the same
    bits on every process, in any order, with no state shipped or
    fast-forwarded.  ``draw`` subdivides one ``seq`` when a kernel needs
    several independent handles per rank.
    """
    key = np.array(_key(seed, stream_id, rank), dtype=np.uint64)
    counter = np.array(_counter(seq, draw), dtype=np.uint64)
    bg = np.random.Philox(key=key, counter=counter)  # repro-lint: disable=RL009 -- the one sanctioned Philox construction site
    return np.random.Generator(bg)


def readdress(
    gen: np.random.Generator, seed: int, stream_id: int, rank: int,
    seq: int, draw: int = 0,
) -> np.random.Generator:
    """Move ``gen``, a handle :func:`philox_generator` made, to address
    ``(seed, stream_id, rank, seq, draw)`` and return it.

    The one sanctioned way to re-address a handle: it then draws exactly
    what a fresh ``philox_generator`` at that address draws, whatever it
    drew before -- key and counter are set, and the 4-word output buffer
    and the spare 32-bit half-word are emptied.  The Generator itself
    caches only set-up that is a function of a distribution's own
    parameters (the binomial's, keyed by ``(n, p)``).  A tenth of the
    cost of a new handle, so a level loop builds one handle per command
    and moves it each level.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _counter(seq, draw),
                  "key": _key(seed, stream_id, rank)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


class DrawAddress(NamedTuple):
    """Picklable draw address -- what ships in command args instead of
    generator state.

    Allocated by :meth:`Machine.draw_addr` at command-build time; a
    kernel materialises generators from it where the data lives:
    ``addr.local(rank)`` for the per-PE stream, ``addr.shared()`` for
    the replicated shared stream (every rank derives the identical
    sequence, which is what makes shared draws safe inside SPMD
    kernels).
    """

    seed: int
    seq: int

    def local(self, rank: int, draw: int = 0) -> np.random.Generator:
        """This PE's stream for this address."""
        return philox_generator(self.seed, STREAM_LOCAL, rank, self.seq, draw)

    def shared(self, draw: int = 0) -> np.random.Generator:
        """The machine-wide shared stream for this address (identical on
        every rank)."""
        return philox_generator(self.seed, STREAM_SHARED, 0, self.seq, draw)
