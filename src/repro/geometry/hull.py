"""Convex hull computation in arbitrary dimension with degeneracy handling.

Implements the paper's function ``H(X)`` (Definition 1): the convex hull of
a multiset of points.  The public entry point is :func:`hull_vertices`,
which returns a *minimal* vertex representation (extreme points only) and
never fails on degenerate input:

* 0 or 1 distinct points -> the points themselves,
* affinely 1-dimensional sets (in any ambient dimension) -> the two extreme
  points along the line,
* 2-dimensional sets -> Andrew's monotone chain (our own implementation,
  exercised against Qhull in tests),
* full-dimensional sets in d >= 2 -> scipy/Qhull,
* sets whose affine dimension is below the ambient dimension -> hull in an
  isometric chart of the affine hull (see :mod:`repro.geometry.linalg`),
  mapped back to ambient coordinates.
"""

from __future__ import annotations

import numpy as np

from .cache import PERF
from .errors import HullComputationError
from .linalg import affine_chart, as_points_array, deduplicate_points
from .tolerances import ABS_TOL, RANK_TOL


def hull_vertices_1d(points: np.ndarray) -> np.ndarray:
    """Extreme points of a 1-d point set: its min and max (or single point)."""
    pts = as_points_array(points)
    if pts.shape[0] == 0:
        return pts.copy()
    lo = float(pts.min())
    hi = float(pts.max())
    if hi - lo <= ABS_TOL:
        return np.array([[lo]])
    return np.array([[lo], [hi]])


def hull_vertices_2d(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain convex hull for 2-d points.

    Returns extreme points in counter-clockwise order.  Collinear points on
    the boundary are dropped (minimal representation).  This is an
    independent implementation used both as the 2-d fast path and as a
    cross-check for the Qhull-based general path in the test suite.
    """
    pts = deduplicate_points(as_points_array(points, dim=2))
    m = pts.shape[0]
    if m <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    sorted_pts = pts[order]

    def turns_right(o: np.ndarray, a: np.ndarray, b: np.ndarray) -> bool:
        """True when ``a`` should be pruned from the chain ``o -> a -> b``.

        The classic monotone-chain prune tests ``cross <= eps`` with an
        *area* threshold, which can drop a vertex whose perpendicular
        distance from the chord ``o-b`` (the sagitta — the actual geometric
        erosion) is far larger than the area when the chord is short.  We
        therefore prune on the sagitta itself: ``cross / |b - o| <= eps``.
        The erosion of the returned hull is then bounded by ``eps``
        directly, which keeps iterated constructions (e.g. the per-round
        Minkowski combinations of Algorithm CC) from accumulating
        super-tolerance boundary loss.  The comparison is kept in product
        form (no division, no floor on the chord): flooring the chord at
        ``eps`` would shrink the threshold to ``eps**2`` for sub-``eps``
        chords and prune true extreme points whose sagitta is arbitrarily
        large — e.g. point sets whose x-extent is many orders of magnitude
        below their y-extent.

        Within the collinear band a second guard is needed: when several
        points share an x-coordinate up to noise far below ``eps``, the
        lexsort tie-break by y need not match the order *along* the
        near-vertical line, so the sort-middle point of the chain may be a
        geometric endpoint of the collinear run (exact arithmetic keeps it
        as an extreme point).  A near-collinear ``a`` whose projection onto
        the chord lies between ``o`` and ``b`` is interior to the run and
        pruned; one projecting *outside* the chord is kept or pruned by the
        exact sign of the cross product — keeping it unconditionally lets a
        true right turn survive both chains and appear twice in the ring.
        """
        cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
        dx, dy = b[0] - o[0], b[1] - o[1]
        chord2 = dx * dx + dy * dy
        chord = float(np.sqrt(chord2))
        if cross <= -eps * chord:
            return True  # definite clockwise turn
        if cross > eps * chord:
            return False  # definite counter-clockwise turn: a is extreme
        # Near-collinear: interior points of the run are always dropped.
        t = (a[0] - o[0]) * dx + (a[1] - o[1]) * dy
        if -eps * chord <= t <= chord2 + eps * chord:
            return True
        # Run endpoint: the sagitta is below noise, so erosion from either
        # choice is negligible — follow the cross product's sign so an
        # exact extreme point survives and an exact right turn does not.
        return cross < 0.0

    # Scale-aware collinearity threshold (a distance, not an area).
    span = float(np.max(sorted_pts.max(axis=0) - sorted_pts.min(axis=0)))
    eps = ABS_TOL * max(span, 1.0)

    lower: list[np.ndarray] = []
    for p in sorted_pts:
        while len(lower) >= 2 and turns_right(lower[-2], lower[-1], p):
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in sorted_pts[::-1]:
        while len(upper) >= 2 and turns_right(upper[-2], upper[-1], p):
            upper.pop()
        upper.append(p)
    ring = lower[:-1] + upper[:-1]
    if not ring:  # fully collinear: keep the two extremes
        return np.array([sorted_pts[0], sorted_pts[-1]])
    return np.array(ring)


def _hull_vertices_qhull(points: np.ndarray) -> np.ndarray:
    """Full-dimensional hull via Qhull; raises on degenerate input."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(points)
    except QhullError as exc:
        raise HullComputationError(f"Qhull failed: {exc}") from exc
    return points[hull.vertices]


def hull_vertices(points, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Minimal vertex representation of ``conv(points)`` in any dimension.

    The result is an ``(m, d)`` array of the extreme points of the hull.
    Degenerate inputs (affine dimension below ambient dimension) are handled
    by recursing into an isometric chart of the affine hull.  The output for
    an empty input is an empty ``(0, d)`` array.
    """
    PERF.hull_calls += 1
    pts = deduplicate_points(as_points_array(points))
    m, d = pts.shape if pts.size else (0, pts.shape[1] if pts.ndim == 2 else 0)
    if m == 0:
        return pts.copy()
    if m == 1:
        return pts.copy()
    if d == 1:
        return hull_vertices_1d(pts)

    chart = affine_chart(pts, rank_tol=rank_tol)
    k = chart.local_dim
    if k == 0:
        # All points coincide within tolerance.
        return pts[:1].copy()
    if k < d:
        local = chart.to_local(pts)
        local_hull = hull_vertices(local, rank_tol=rank_tol)
        return chart.to_ambient(local_hull)
    if d == 2:
        return hull_vertices_2d(pts)
    if m <= d + 1:
        # A simplex (or sub-simplex) of full affine rank: every point is
        # extreme; Qhull needs at least d+1 points anyway.
        return pts.copy()
    return _hull_vertices_qhull(pts)
