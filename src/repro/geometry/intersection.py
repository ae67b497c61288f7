"""Intersections of convex hulls — line 5 of Algorithm CC and Eq. (21).

The paper's round-0 computation at process ``i`` is

    h_i[0] := intersection over all C subset X_i with |C| = |X_i| - f
              of H(C)                                               (line 5)

and the optimality polytope of Section 6 is the same operation applied to
the common view ``X_Z`` (Eq. 21).  Both are implemented by
:func:`intersect_subset_hulls`.

Implementation notes
--------------------
* 1-d fast path: with the multiset sorted ascending as ``x_(1..m)``, the
  intersection is exactly ``[x_(f+1), x_(m-f)]`` (possibly empty) — the
  max-over-subsets of the subset minimum is attained by discarding the f
  smallest points, and symmetrically for the upper endpoint.
* Depth fast path (d >= 2): the intersection equals the region of Tukey
  depth ``>= f + 1`` (the test oracle ``tests/oracles/depth.py``
  computes that depth point by point), whose facets lie
  on hyperplanes spanned by ``d`` affinely independent points of the
  multiset.  :func:`depth_region_halfspaces` therefore generates every
  hyperplane through a d-subset (vectorized, in blocks: one batched
  generalized cross product per block, one matmul to count points on each
  closed side), keeps exactly the closed halfspaces containing at least
  ``m - f`` points, and the usual degeneracy-aware vertex enumerator
  recovers the polytope.  Cost ``O(C(m, d) * m)`` arithmetic plus one
  vertex enumeration — polynomial in ``m`` for fixed ``d`` — instead of
  ``C(m, f)`` Qhull runs.
* Enumeration path: every subset hull contributes its facet halfspaces
  (with degenerate hulls contributing affine-hull equality pairs, see
  :func:`repro.geometry.halfspaces.hrep_of_hull`); the stacked system is
  deduplicated and handed to the same vertex enumerator.  Cost
  ``C(m, f)`` hull computations — the literal transcription of line 5.
* Routing: :func:`_takes_depth_path` is the one router — the depth path
  exactly when ``C(m, f) > C(m, d)``, the enumeration otherwise.
  ``f = 0`` short circuits to the plain hull, and rank-deficient
  multisets are chart-projected before either path runs, so both only
  ever see full-dimensional inputs.
* Cross-validation: the property-based suites force each path (by
  patching the router) and check them against each other and against
  the independent point-probe depth oracle on random, duplicate-heavy,
  rank-deficient and translated multisets in d = 1, 2, 3.
"""

from __future__ import annotations

from itertools import combinations, islice
from math import comb

import numpy as np

from .cache import PERF, SUBSET_CACHE, array_key, memoized_polytope
from .errors import DegenerateInputError, InfeasibleRegionError
from .halfspaces import (
    dedupe_halfspaces,
    feasible_point,
    hrep_of_hull,
    vertices_of_halfspace_system,
)
from .linalg import affine_chart, affine_rank, as_points_array
from .polytope import ConvexPolytope
from .tolerances import ABS_TOL, DEPTH_SIDE_TOL


def subset_count(m: int, f: int) -> int:
    """Number of subset hulls line 5 intersects: C(m, f)."""
    return comb(m, f)


def subset_mode() -> str:
    """Always ``"auto"``: the cost rule is the only router.

    Kept only for the benchmark harness (``perfbench/run.py``), which
    checks it before measuring.
    """
    return "auto"


def _takes_depth_path(m: int, f: int, dim: int) -> bool:
    """The cost rule: the depth path exactly when ``C(m, f) > C(m, d)``."""
    return comb(m, f) > comb(m, dim)


def _check_f(f: int) -> None:
    if f < 0:
        raise ValueError(f"f must be non-negative, got {f}")


# ----------------------------------------------------------------------
# Depth fast path: candidate halfspaces through d-subsets
# ----------------------------------------------------------------------

#: d-subsets are processed in blocks of this many, bounding the size of the
#: batched normal computation and the (m, block) side-count matmul.
_SUBSET_BLOCK = 4096


def _batched_hyperplane_normals(diffs: np.ndarray) -> np.ndarray:
    """Normals of the hyperplanes spanned by stacked difference vectors.

    ``diffs`` has shape ``(k, d-1, d)`` — for each of ``k`` subsets, the
    ``d-1`` edge vectors out of its first point.  Returns the ``(k, d)``
    generalized cross products ``n_i = (-1)^i det(diffs minus column i)``,
    one batched determinant per coordinate.  A (numerically) zero row
    marks an affinely dependent subset spanning no hyperplane.
    """
    k, _dm1, dim = diffs.shape
    normals = np.empty((k, dim))
    cols = np.arange(dim)
    for i in range(dim):
        normals[:, i] = ((-1.0) ** i) * np.linalg.det(diffs[:, :, cols != i])
    return normals


def depth_region_halfspaces(
    points, f: int, *, block: int = _SUBSET_BLOCK
) -> tuple[np.ndarray, np.ndarray]:
    """Halfspace system ``(A, b)`` of the Tukey depth ``>= f + 1`` region.

    Generates every hyperplane through a d-subset of ``points`` (both
    orientations) and keeps exactly the closed halfspaces containing at
    least ``m - f`` points of the multiset.  Every kept halfspace contains
    the depth region, and every facet of the region lies on a hyperplane
    spanned by ``d`` affinely independent points, so the deduplicated
    system describes exactly

        intersection over |C| = m - f subsets C of points of H(C),

    the line-5 polytope.  ``points`` must span the ambient dimension
    (``d >= 2``); callers chart-project degenerate multisets first.  The
    kept set always contains every facet of ``conv(points)``, so the
    system is bounded.
    """
    pts = as_points_array(points)
    m, dim = pts.shape
    if dim < 2:
        raise ValueError(
            f"depth_region_halfspaces requires ambient dimension >= 2, got {dim}"
        )
    if not 0 <= f <= m - 1:
        raise ValueError(f"need 0 <= f <= m - 1, got f={f}, m={m}")
    # Work in centroid-centered coordinates.  Normals and side counts are
    # translation-invariant, so the tolerances must be set by the data's
    # *extent* (spread about the centroid) — the unnormalized normals
    # scale like a product of d-1 edge lengths, i.e. extent**(d-1), not
    # like the coordinate magnitude.  Deriving them from max |coordinate|
    # rejected every candidate as non-spanning for a unit cluster
    # translated to ~1e6 (extent 1, tolerance 1e-9 * 1e12) and over-
    # counted points as on-boundary via the inflated side tolerance.
    # Centering also matches the test suite's depth oracle, which scales
    # by the spread about the query point, so both count closed sides
    # identically.
    centroid = pts.mean(axis=0)
    cpts = pts - centroid
    extent = max(1.0, float(np.max(np.abs(cpts))))
    side_tol = DEPTH_SIDE_TOL * extent
    span_tol = DEPTH_SIDE_TOL * extent ** (dim - 1)
    need = m - f
    rows: list[np.ndarray] = []
    offs: list[np.ndarray] = []
    subset_iter = combinations(range(m), dim)
    while True:
        idx = np.array(list(islice(subset_iter, block)), dtype=int)
        if idx.size == 0:
            break
        sub = cpts[idx]                                 # (k, d, d)
        base = sub[:, 0, :]                             # (k, d)
        normals = _batched_hyperplane_normals(sub[:, 1:, :] - base[:, None, :])
        norms = np.linalg.norm(normals, axis=1)
        spanning = norms > span_tol
        PERF.depth_halfspace_candidates += 2 * int(np.count_nonzero(spanning))
        if not np.any(spanning):
            continue
        normals = normals[spanning] / norms[spanning, None]
        offsets = np.einsum("kd,kd->k", normals, base[spanning])
        proj = cpts @ normals.T                         # (m, k')
        below = np.count_nonzero(proj <= offsets[None, :] + side_tol, axis=0)
        above = np.count_nonzero(proj >= offsets[None, :] - side_tol, axis=0)
        keep_lo = below >= need
        keep_hi = above >= need
        if np.any(keep_lo):
            rows.append(normals[keep_lo])
            offs.append(offsets[keep_lo])
        if np.any(keep_hi):
            rows.append(-normals[keep_hi])
            offs.append(-offsets[keep_hi])
    if not rows:
        # Unreachable for full-dimensional input: conv(points) has facets,
        # each spanned by a d-subset and containing all m points.
        raise DegenerateInputError(
            "no candidate halfspace kept; input does not span the ambient "
            "dimension — chart-project it first"
        )
    a_all = np.vstack(rows)
    # Translate the centered offsets back to ambient coordinates:
    # n . (x - c) <= b_c  <=>  n . x <= b_c + n . c.
    b_all = np.concatenate(offs) + a_all @ centroid
    PERF.depth_halfspaces_kept += a_all.shape[0]
    return dedupe_halfspaces(a_all, b_all)


def _intersect_subsets_1d(values: np.ndarray, f: int) -> ConvexPolytope:
    """Order-statistics fast path for the 1-d subset intersection."""
    srt = np.sort(values)
    m = srt.size
    lo = float(srt[f])          # x_(f+1) in 1-based indexing
    hi = float(srt[m - f - 1])  # x_(m-f)
    if hi < lo - ABS_TOL:
        return ConvexPolytope.empty(1)
    if hi < lo:
        hi = lo
    return ConvexPolytope.from_interval(lo, hi)


def _polytope_of_system(a: np.ndarray, b: np.ndarray, dim: int) -> ConvexPolytope:
    """The polytope ``{x : A x <= b}``, empty when the system is infeasible."""
    vertices = vertices_of_halfspace_system(a, b)
    if vertices.shape[0] == 0:
        return ConvexPolytope.empty(dim)
    return ConvexPolytope.from_points(vertices, dim=dim)


def _stacked_hreps(vertex_sets) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated union of the H-reps of ``conv(V)`` over ``vertex_sets``."""
    rows = []
    offs = []
    for verts in vertex_sets:
        a, b = hrep_of_hull(verts)
        rows.append(a)
        offs.append(b)
    return dedupe_halfspaces(np.vstack(rows), np.concatenate(offs))


def _enumeration_halfspaces(pts: np.ndarray, f: int) -> tuple[np.ndarray, np.ndarray]:
    """Line 5 literally: the stacked H-reps of all ``C(m, f)`` subset hulls."""
    return _stacked_hreps(
        np.delete(pts, list(drop), axis=0)
        for drop in combinations(range(pts.shape[0]), f)
    )


def _intersect_subsets_depth(
    pts: np.ndarray, dim: int, f: int
) -> ConvexPolytope:
    """Depth fast path: the intersection as the depth >= f+1 region."""
    PERF.subset_fast_path_hits += 1
    return _polytope_of_system(*depth_region_halfspaces(pts, f), dim)


def _intersect_subsets_enumerate(
    pts: np.ndarray, dim: int, f: int
) -> ConvexPolytope:
    """Enumeration path: the intersection of the ``C(m, f)`` subset hulls."""
    return _polytope_of_system(*_enumeration_halfspaces(pts, f), dim)


def intersect_hulls(vertex_sets: list[np.ndarray], dim: int) -> ConvexPolytope:
    """Intersection of ``conv(V)`` over the given vertex arrays.

    Returns the (possibly empty, possibly lower-dimensional) intersection
    as a :class:`ConvexPolytope`.
    """
    if not vertex_sets:
        raise ValueError("intersect_hulls requires at least one hull")
    return _polytope_of_system(*_stacked_hreps(vertex_sets), dim)


def intersect_subset_hulls(points, f: int) -> ConvexPolytope:
    """``intersection over |C| = m - f subsets C of points of H(C)``.

    ``points`` is the multiset ``X_i`` (duplicates meaningful: a value
    reported by several processes is harder for the adversary to discard).
    ``f`` is the fault bound.  Raises ``ValueError`` when ``f < 0`` or
    ``m - f < 1``.

    The full result is memoized by ``(points bytes, f)``: processes whose
    stable-vector views coincide (the common case — Containment forces
    heavy view overlap) ask for the *same* round-0 intersection, and the
    geometric computation then runs once per run instead of once per
    process.  The returned polytope is immutable and safely shared.
    Which computation runs — the ``C(m, f)``-hull enumeration or the
    polynomial depth fast path — is decided by :func:`_takes_depth_path`.
    """
    pts = as_points_array(points)
    m, dim = pts.shape
    _check_f(f)
    if m - f < 1:
        raise ValueError(
            f"cannot drop f={f} points from a multiset of size {m}"
        )
    return memoized_polytope(
        SUBSET_CACHE,
        (array_key(pts), f),
        lambda: _intersect_subset_hulls_uncached(pts, m, dim, f),
    )


def _intersect_subset_hulls_uncached(
    pts: np.ndarray, m: int, dim: int, f: int
) -> ConvexPolytope:
    if f == 0:
        return ConvexPolytope.from_points(pts)
    if dim == 1:
        return _intersect_subsets_1d(pts[:, 0], f)

    # If the whole multiset is lower-dimensional, chart-project the entire
    # problem: the intersection lives in the same affine hull.
    rank = affine_rank(pts)
    if rank < dim:
        chart = affine_chart(pts)
        if chart.local_dim == 0:
            return ConvexPolytope.singleton(pts[0])
        local = chart.to_local(pts)
        local_poly = intersect_subset_hulls(local, f)
        if local_poly.is_empty:
            return ConvexPolytope.empty(dim)
        return ConvexPolytope.from_points(
            chart.to_ambient(local_poly.vertices), dim=dim
        )

    if _takes_depth_path(m, f, dim):
        return _intersect_subsets_depth(pts, dim, f)
    return _intersect_subsets_enumerate(pts, dim, f)


def subset_intersection_is_nonempty(
    points, f: int, *, use_tverberg_shortcut: bool = True
) -> bool:
    """LP-only nonemptiness test for the subset-hull intersection.

    Much cheaper than :func:`intersect_subset_hulls` when only feasibility
    matters (experiment E5 sweeps this over many configurations).  By
    Tverberg's theorem (paper Theorem 5 / Lemma 2) the intersection is
    guaranteed non-empty whenever ``m >= (d+1)f + 1``, and that case
    returns True with no geometry at all; pass
    ``use_tverberg_shortcut=False`` to force the full feasibility check
    (the cross-check tests do, to verify the theorem against the
    computation).  Below the guarantee, a single feasibility LP is solved
    over either the ``O(C(m, d))`` depth candidate halfspaces or the
    ``C(m, f)`` stacked subset H-reps, routed by the same rule as
    :func:`intersect_subset_hulls`.  Raises ``ValueError`` when ``f < 0``.
    """
    pts = as_points_array(points)
    m, dim = pts.shape
    _check_f(f)
    if m - f < 1:
        return False
    if f == 0:
        return True
    if use_tverberg_shortcut and m >= (dim + 1) * f + 1:
        return True
    if dim == 1:
        srt = np.sort(pts[:, 0])
        return bool(srt[m - f - 1] >= srt[f] - ABS_TOL)
    rank = affine_rank(pts)
    if rank < dim:
        chart = affine_chart(pts)
        if chart.local_dim == 0:
            return True
        return subset_intersection_is_nonempty(
            chart.to_local(pts), f, use_tverberg_shortcut=use_tverberg_shortcut
        )
    if _takes_depth_path(m, f, dim):
        PERF.subset_fast_path_hits += 1
        a_all, b_all = depth_region_halfspaces(pts, f)
    else:
        a_all, b_all = _enumeration_halfspaces(pts, f)
    try:
        feasible_point(a_all, b_all)
    except InfeasibleRegionError:
        # Distinguish genuine emptiness from a lower-dimensional region
        # pinched infeasible by float-noise-inconsistent equality pairs
        # (see vertices_of_halfspace_system): retry with ABS_TOL slack.
        slack = ABS_TOL * max(1.0, float(np.max(np.abs(b_all))))
        try:
            feasible_point(a_all, b_all + slack)
        except InfeasibleRegionError:
            return False
    return True


def optimal_polytope_iz(common_view_points, f: int) -> ConvexPolytope:
    """The paper's ``I_Z`` (Eq. 21): subset intersection over ``X_Z``.

    ``common_view_points`` is the multiset of inputs appearing in the
    common view ``Z = intersection of all R_i`` (Eq. 20); the returned
    polytope lower-bounds every fault-free output (Lemma 6) and upper
    bounds what *any* algorithm can guarantee (Theorem 3).
    """
    return intersect_subset_hulls(common_view_points, f)
