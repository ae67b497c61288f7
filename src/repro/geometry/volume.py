"""Polytope volume and measure — the output-size metrics of the experiments.

The paper's optimality notion (Section 1, Theorem 3) is about the *size* of
the decided polytope: Algorithm CC's output contains the optimal ``I_Z``.
The experiment suite quantifies this with Lebesgue volume (full-dimensional
measure) and, for degenerate outputs, the k-dimensional measure inside the
polytope's own affine hull.
"""

from __future__ import annotations

from .errors import HullComputationError
from .polytope import ConvexPolytope


def polytope_volume(poly: ConvexPolytope) -> float:
    """d-dimensional Lebesgue volume; 0 for empty or lower-dimensional sets."""
    if poly.is_empty:
        return 0.0
    if poly.affine_dim < poly.dim:
        return 0.0
    if poly.dim == 1:
        lo, hi = poly.interval()
        return hi - lo
    from scipy.spatial import ConvexHull, QhullError

    try:
        return float(ConvexHull(poly.vertices).volume)
    except QhullError as exc:
        raise HullComputationError(f"volume computation failed: {exc}") from exc


def polytope_measure(poly: ConvexPolytope) -> float:
    """Measure of the polytope inside its own affine hull.

    Equals :func:`polytope_volume` for full-dimensional polytopes; for a
    k-dimensional polytope embedded in d > k dims it is the k-dimensional
    measure (length of a segment, area of a flat polygon, ...).  A point
    (and the empty set) has measure 0.
    """
    if poly.is_empty or poly.affine_dim <= 0:
        return 0.0
    if poly.affine_dim == poly.dim:
        return polytope_volume(poly)
    chart = poly.affine_chart()
    local = chart.to_local(poly.vertices)
    return polytope_volume(ConvexPolytope.from_points(local))


def volume_ratio(inner: ConvexPolytope, outer: ConvexPolytope) -> float:
    """``measure(inner) / measure(outer)`` with 0/0 -> 1.0 convention.

    Used to report how much of the ideal region (e.g. ``I_Z`` or the hull
    of correct inputs) the decided polytope captures.  When both measures
    vanish (e.g. both degenerate to points) the ratio is defined as 1.
    """
    outer_measure = polytope_measure(outer)
    inner_measure = polytope_measure(inner)
    if outer_measure <= 0.0:
        return 1.0 if inner_measure <= 0.0 else float("inf")
    return inner_measure / outer_measure
