"""``Draws`` returns exactly the numbers of numpy's ``Generator``.

The lossy fabric's fault rolls and the seeded schedulers draw from
:class:`~repro.runtime.draws.Draws`, and every transport golden depends
on its stream.  Two kinds of check:

* live: long mixed ``random()``/``integers()`` sequences equal those of
  ``np.random.default_rng(seed)`` drawn side by side;
* recorded: a SHA-256 of the first 10**5 mixed draws of two seeds.  If a
  numpy release changes ``Generator``, the live checks fail and name it,
  while the recorded stream, which the goldens depend on, still holds.
"""

import hashlib
import random

import numpy as np
import pytest

from repro.runtime.draws import Draws

WIDTHS = (1, 2, 3, 5, 9, 32, 56, 2**30, 1000003, 2**31 + 1, 2**32 - 7, 2**32)
SEEDS = (0, 7, 2**40 + 3, [3, 0, 1], [0, 7, 2], [11, 5, 6])


class CountingDraws(Draws):
    """Counts the 32-bit halves a bounded draw consumes."""

    __slots__ = ("halves",)

    def __init__(self, seed):
        super().__init__(seed)
        self.halves = 0

    def _uint32(self):
        self.halves += 1
        return super()._uint32()


def _mixed_pairs(seed, count):
    """``count`` side-by-side draws of Draws and Generator, mixed by a side stream."""
    draws, gen = Draws(seed), np.random.default_rng(seed)
    pick = random.Random(repr(seed))
    for _ in range(count):
        if pick.random() < 0.4:
            yield draws.random(), gen.random()
        else:
            lo = pick.randrange(-5, 5)
            hi = lo + pick.choice(WIDTHS)
            yield draws.integers(lo, hi), int(gen.integers(lo, hi))


@pytest.mark.parametrize("seed", SEEDS, ids=repr)
def test_mixed_stream_equals_generator(seed):
    for ours, theirs in _mixed_pairs(seed, 20_000):
        assert ours == theirs and type(ours) is type(theirs)


def test_draws_cross_a_block():
    # 63 doubles, then a bounded draw takes the block's last word and
    # keeps its high half; the next double opens a new block, and the
    # next bounded draw still reads the kept half.
    draws, gen = Draws([1, 2, 3]), np.random.default_rng([1, 2, 3])
    for _ in range(3):
        assert [draws.random() for _ in range(63)] == [gen.random() for _ in range(63)]
        assert draws.integers(0, 1000) == gen.integers(0, 1000)
        assert draws.random() == gen.random()
        assert draws.integers(0, 1000) == gen.integers(0, 1000)
        assert [draws.random() for _ in range(63)] == [gen.random() for _ in range(63)]


def test_width_one_draws_nothing():
    draws = CountingDraws(5)
    assert [draws.integers(4, 5) for _ in range(100)] == [4] * 100
    assert draws.halves == 0
    assert draws.random() == np.random.default_rng(5).random()


def test_rejection_path_at_width_two_pow_31_plus_one():
    # Lemire rejects a draw about half the time at this width.
    width = 2**31 + 1
    draws, gen = CountingDraws(9), np.random.default_rng(9)
    values = [draws.integers(0, width) for _ in range(2000)]
    assert values == [int(gen.integers(0, width)) for _ in range(2000)]
    assert draws.halves > 3500
    assert draws.random() == gen.random()


def test_width_two_pow_32():
    draws, gen = CountingDraws(3), np.random.default_rng(3)
    values = [draws.integers(-10, 2**32 - 10) for _ in range(500)]
    assert values == [int(gen.integers(-10, 2**32 - 10)) for _ in range(500)]
    assert draws.halves == 500
    assert max(values) > 2**31


@pytest.mark.parametrize("lo, hi", [(0, 0), (3, 3), (5, 2), (0, 2**32 + 1), (-1, 2**32)])
def test_unsupported_widths_raise(lo, hi):
    with pytest.raises(ValueError):
        Draws(0).integers(lo, hi)


def _stream_digest(seed, count=100_000):
    draws = Draws(seed)
    h = hashlib.sha256()
    for i in range(count):
        if i % 3 == 0:
            h.update(draws.random().hex().encode())
        else:
            width = WIDTHS[i % len(WIDTHS)]
            h.update(str(draws.integers(-2, width - 2)).encode())
        h.update(b",")
    return h.hexdigest()


#: Recorded with numpy 2.4.6, whose Generator gives the same digests.
@pytest.mark.parametrize(
    "seed, digest",
    [
        (0, "0e2105537bbf32f0b3823ae7c2b10d83cfdffd3e814f2f8544e14f0b2a37ccfe"),
        ([3, 0, 1], "2668dd1b9eb87cde38df7f6c2445c597fc388348cc14fa778afba76b2ad138af"),
    ],
    ids=["int-seed", "list-seed"],
)
def test_recorded_stream(seed, digest):
    assert _stream_digest(seed) == digest
