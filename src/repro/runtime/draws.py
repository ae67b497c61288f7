"""Seeded draws at Python prices: numpy's stream, read from pre-drawn blocks.

The lossy fabric rolls its faults and the seeded schedulers pick their
candidates one number at a time, and a ``numpy.random.Generator`` call
costs far more than the arithmetic behind it.  :class:`Draws` takes the
raw 64-bit words of the same PCG64 stream 64 at a time and derives each
number in Python, so seeded executions stay bit-identical to the
``Generator`` they replace.  ``tests/runtime/test_draws.py`` checks the
equality against a live ``Generator`` and pins a digest of the stream.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 64
_LOW32 = 0xFFFFFFFF
_TWO_POW_32 = 1 << 32
_TWO_POW_MINUS_53 = 2.0**-53


class Draws:
    """The draws of ``np.random.default_rng(seed)``, from blocks of raw words.

    Reproduces two ``Generator`` methods exactly (numpy's PCG64):

    * :meth:`random` is ``Generator.random()``: one 64-bit word ``w``,
      returned as ``(w >> 11) * 2**-53``;
    * :meth:`integers` is ``Generator.integers(lo, hi)`` with the default
      int64 dtype, for ``1 <= hi - lo <= 2**32``: numpy's 32-bit Lemire
      bounded draw with its rejection loop.  The 32-bit draws are the
      halves of a word, low half first; the high half waits for the next
      bounded draw, as PCG64's ``next_uint32`` buffer keeps it, and
      :meth:`random` never touches it.  A width-1 range returns ``lo`` and
      draws nothing.  Any other width raises ``ValueError``: numpy raises
      at width 0 and switches to a 64-bit draw above ``2**32``.

    Only this object may read the generator it holds; it has taken a
    whole block of words ahead.
    """

    __slots__ = ("_bit_generator", "_words", "_half")

    def __init__(self, seed) -> None:
        self._bit_generator = np.random.default_rng(seed).bit_generator
        self._words = iter(())
        self._half: int | None = None

    def _refill(self) -> int:
        self._words = iter(self._bit_generator.random_raw(_BLOCK).tolist())
        return next(self._words)

    def random(self) -> float:
        """A double in ``[0, 1)``, as ``Generator.random()`` draws it."""
        word = next(self._words, None)
        if word is None:
            word = self._refill()
        return (word >> 11) * _TWO_POW_MINUS_53

    def integers(self, lo: int, hi: int) -> int:
        """An int in ``[lo, hi)``, as ``Generator.integers(lo, hi)`` draws it."""
        width = hi - lo
        if width == 1:
            return lo
        if not 1 < width <= _TWO_POW_32:
            raise ValueError(f"Draws.integers needs 1 <= hi - lo <= 2**32, got {width}")
        product = self._uint32() * width
        if product & _LOW32 < width:
            # Lemire's rejection: redraw while the low half falls below
            # 2**32 mod width.  Width 2**32 never rejects.
            threshold = _TWO_POW_32 % width
            while product & _LOW32 < threshold:
                product = self._uint32() * width
        return lo + (product >> 32)

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = next(self._words, None)
        if word is None:
            word = self._refill()
        self._half = word >> 32
        return word & _LOW32
