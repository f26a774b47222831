"""Seeded random streams.

All stochastic code in the package draws from counter-based Philox
generators keyed through ``numpy.random.SeedSequence``, so any (seed, key
path) pair maps to the same stream on every platform and every run.
Independent key paths give statistically independent substreams, which is
what lets chains, blocks, and restarts run in parallel while staying
bit-reproducible.

``Draws`` replays a generator's scalar ``integers(n)`` and ``random()``
from its raw 64-bit words, read in blocks, without numpy's per-call
overhead. The replay is exact because it runs numpy's own algorithms on
the same words: a bounded integer is Lemire's multiply-shift rejection on
32-bit draws (Lemire, "Fast random integer generation in an interval",
ACM TOMACS 2019), where a 32-bit draw is the low half of a fresh word and
the high half is kept for the next one; a uniform is the top 53 bits of a
whole word times 2^-53 and leaves a kept half in place. A chain that draws
from ``Draws(stream(seed))`` makes the same moves as one that draws from
``stream(seed)``.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

_LOW32 = 0xFFFFFFFF
_WORDS_PER_READ = 256


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return an independent Philox generator for (seed, *key)."""
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(key=ss.generate_state(2, np.uint64)))


def derive_seed(seed: int, *key: int) -> int:
    """Derive a child integer seed, for APIs that take seeds rather than rngs."""
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


class Draws:
    """``gen.integers(n)`` and ``gen.random()`` as Python scalars, value for
    value, for an int n with 1 <= n <= 2^32.

    ``Draws`` takes over ``gen``'s bit generator: it continues from its
    current state, a kept 32-bit half included, and reads its words ahead,
    so ``gen`` itself must not be drawn from afterwards.
    """

    __slots__ = ("_word", "_half")

    def __init__(self, gen: np.random.Generator):
        bits = gen.bit_generator
        state = bits.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        raw = bits.random_raw
        self._word = chain.from_iterable(iter(lambda: raw(_WORDS_PER_READ).tolist(), None)).__next__

    def random(self) -> float:
        """A uniform float in [0, 1)."""
        return (self._word() >> 11) * 2.0**-53

    def integers(self, n: int) -> int:
        """A uniform integer in [0, n); n == 1 draws nothing."""
        if not 1 < n <= 1 << 32:
            if n == 1:
                return 0
            raise ValueError(f"bound {n} outside [1, 2^32]")
        m = self._uint32() * n
        if m & _LOW32 < n:
            floor = ((1 << 32) - n) % n
            while m & _LOW32 < floor:
                m = self._uint32() * n
        return m >> 32

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            word = self._word()
            self._half = word >> 32
            return word & _LOW32
        self._half = None
        return half
