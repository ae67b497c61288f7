"""Projection-only reference for the invariant checkers' excess.

``repro.core.invariants._excess`` certifies, in d >= 2, every point the
target's H-rep puts inside and projects only the rest.  This is the
measurement it replaced: every point is projected.
"""

from __future__ import annotations


def excess(points, target) -> float:
    """Largest distance from one of ``points`` to ``target``; 0.0 for none."""
    return max((target.distance_to_point(p) for p in points), default=0.0)
