"""Tests for the seeded streams and the exact replay of a generator's draws."""

import pytest

from blockmc.streams import Draws, stream

BOUNDS = [1, 2, 3, 5, 16, 48, 1000, 2**31 + 1, 2**31 + 7, 2**32 - 2, 2**32]


def replay_pair(seed, *key):
    return stream(seed, *key), Draws(stream(seed, *key))


def test_mixed_draws_match_the_generator():
    """10^5 bounded integers over every bound class, with uniforms between them."""
    ops = stream(99).integers(0, len(BOUNDS) + 1, size=100_000).tolist()
    gen, draws = replay_pair(4, 1)
    for op in ops:
        if op == len(BOUNDS):
            assert draws.random() == gen.random()
        else:
            assert draws.integers(BOUNDS[op]) == gen.integers(BOUNDS[op])


@pytest.mark.parametrize("bound", [2, 2**31 + 1, 2**32])
def test_one_bound_over_many_words(bound):
    """2: the smallest real draw; 2^31 + 1: about half the 32-bit draws are
    rejected; 2^32: a bare 32-bit draw, never rejected."""
    gen, draws = replay_pair(5, bound % 1000)
    expected = gen.integers(bound, size=20_000).tolist()
    assert [draws.integers(bound) for _ in range(20_000)] == expected


def test_bound_one_draws_nothing():
    gen, draws = replay_pair(6)
    assert draws.integers(1) == 0
    assert draws.integers(2**32) == gen.integers(2**32)
    assert draws.random() == gen.random()


def test_uniform_between_the_halves_of_one_word():
    """A 32-bit draw keeps the word's high half; a uniform takes a fresh word
    and leaves that half for the next 32-bit draw."""
    gen, draws = replay_pair(7)
    word = int(stream(7).bit_generator.random_raw())
    assert draws.integers(2**32) == word & 0xFFFFFFFF == gen.integers(2**32)
    assert draws.random() == gen.random()
    assert draws.integers(2**32) == word >> 32 == gen.integers(2**32)


@pytest.mark.parametrize("used", [0, 1, 2, 5])
def test_partly_used_generator_continues(used):
    """A generator that has made some draws, a kept half included when
    ``used`` is odd, continues where it left off."""
    gen, base = stream(8, used), stream(8, used)
    for g in (gen, base):
        g.random()
        for _ in range(used):
            g.integers(10)
    draws = Draws(base)
    for _ in range(1000):
        assert draws.integers(48) == gen.integers(48)
        assert draws.random() == gen.random()


@pytest.mark.parametrize("bound", [0, -3, 2**32 + 1])
def test_bound_outside_the_range_raises(bound):
    with pytest.raises(ValueError):
        Draws(stream(1)).integers(bound)
