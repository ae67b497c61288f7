"""Tukey (halfspace) depth — cross-validation oracle for line 5.

A point ``p`` has Tukey depth ``k`` w.r.t. a multiset ``X`` when every
closed halfspace containing ``p`` contains at least ``k`` points of ``X``.
The subset-hull intersection of Algorithm CC's line 5,

    intersection over |C| = m - f of H(C),

coincides with the region of Tukey depth ``>= f + 1``: a point escapes the
hull of some subset ``C`` exactly when an (open) halfspace around it
contains at most the ``f`` points ``C`` discards.  The test suite uses this
independent characterisation to validate :mod:`repro.geometry.intersection`
without sharing any code with it; no module under ``src/`` calls it.

Exact depth is computed for d = 1 (rank statistics) and d = 2 (rotating
directions); for d >= 3 :func:`tukey_depth_sampled` gives an upper bound
via sampled directions (exact depth in high dimensions is combinatorial
and unnecessary for our validation purposes).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.linalg import as_points_array
from repro.geometry.tolerances import ABS_TOL, DEPTH_SIDE_TOL


def tukey_depth_1d(point: float, values: np.ndarray) -> int:
    """Exact halfspace depth on the line: min(#<=p, #>=p)."""
    vals = np.asarray(values, dtype=float).reshape(-1)
    at_most = int(np.sum(vals <= point + DEPTH_SIDE_TOL))
    at_least = int(np.sum(vals >= point - DEPTH_SIDE_TOL))
    return min(at_most, at_least)


def tukey_depth_2d(point, points) -> int:
    """Exact halfspace depth in the plane by direction sweep.

    For each candidate direction the depth of the closed halfspace
    ``{x : <u, x - p> >= 0}`` counts points on or above the line through
    ``p``.  The minimum over directions is attained at a direction
    orthogonal to some ``q - p``, so sweeping the angular order of the
    points around ``p`` (plus perturbations either side of each critical
    angle) is exact.
    """
    p = np.asarray(point, dtype=float).reshape(-1)
    pts = as_points_array(points, dim=2)
    rel = pts - p
    norms = np.linalg.norm(rel, axis=1)
    coincident = int(np.sum(norms <= ABS_TOL))
    rel = rel[norms > ABS_TOL]
    if rel.shape[0] == 0:
        return coincident
    angles = np.arctan2(rel[:, 1], rel[:, 0])
    critical = np.concatenate([angles + np.pi / 2, angles - np.pi / 2])
    critical = np.unique(np.mod(critical, 2 * np.pi))
    # The halfspace count is piecewise constant in the direction angle and
    # changes only at critical angles, so probing every critical angle plus
    # the midpoint of each consecutive (cyclic) pair is exact.
    gaps = np.diff(critical, append=critical[0] + 2 * np.pi)
    midpoints = critical + gaps / 2.0
    probes = np.concatenate([critical, midpoints])
    directions = np.column_stack([np.cos(probes), np.sin(probes)])
    side_tol = DEPTH_SIDE_TOL * max(1.0, norms.max())
    counts = np.count_nonzero(rel @ directions.T >= -side_tol, axis=0)
    return int(counts.min()) + coincident


def tukey_depth_sampled(point, points, *, num_directions: int = 2000, seed: int = 0) -> int:
    """Upper bound on halfspace depth via sampled directions (any d)."""
    p = np.asarray(point, dtype=float).reshape(-1)
    pts = as_points_array(points, dim=p.size)
    rel = pts - p
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(num_directions, p.size))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    scale = max(float(np.max(np.abs(rel))), 1.0)
    counts = np.sum(rel @ dirs.T >= -DEPTH_SIDE_TOL * scale, axis=0)
    return int(counts.min())


def tukey_depth(point, points, *, seed: int = 0) -> int:
    """Halfspace depth of ``point`` in ``points`` (exact for d <= 2)."""
    pts = as_points_array(points)
    dim = pts.shape[1]
    if dim == 1:
        return tukey_depth_1d(float(np.asarray(point).reshape(-1)[0]), pts[:, 0])
    if dim == 2:
        return tukey_depth_2d(point, pts)
    return tukey_depth_sampled(point, pts, seed=seed)


def in_depth_region(point, points, min_depth: int, *, seed: int = 0) -> bool:
    """True when ``point`` has Tukey depth >= ``min_depth`` in ``points``."""
    return tukey_depth(point, points, seed=seed) >= min_depth
