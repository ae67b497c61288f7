"""Minimality check for the vertex sets :mod:`repro.geometry.hull` returns."""

from __future__ import annotations

import numpy as np

from repro.geometry.linalg import as_points_array
from repro.geometry.projection import project_onto_hull


def is_extreme_point_set(vertices: np.ndarray) -> bool:
    """True when no vertex is a convex combination of the others.

    Quadratic in the number of vertices: each vertex is projected onto
    the hull of the rest.
    """
    verts = as_points_array(vertices)
    m = verts.shape[0]
    if m <= 1:
        return True
    scale = max(float(np.max(np.abs(verts))), 1.0)
    for i in range(m):
        others = np.delete(verts, i, axis=0)
        projected, _ = project_onto_hull(verts[i], others)
        if np.linalg.norm(projected - verts[i]) <= 1e-7 * scale:
            return False
    return True
