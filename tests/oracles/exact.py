"""Exact rational references for the float geometry kernels (stdlib only).

Every float converts to a :class:`fractions.Fraction` without error, so
these computations carry no rounding at all; ``float()`` of a result is
the correctly rounded value a float kernel should return.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


def interval_distance(point: float, vertices: Iterable[float]) -> Fraction:
    """Exact distance from ``point`` to the interval the 1-d ``vertices`` span."""
    x = Fraction(point)
    values = [Fraction(v) for v in vertices]
    lo, hi = min(values), max(values)
    if x < lo:
        return lo - x
    if x > hi:
        return x - hi
    return Fraction(0)
