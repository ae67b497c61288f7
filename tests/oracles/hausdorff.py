"""Exhaustive Hausdorff scans: the oracles of the bound-and-prune kernels.

:mod:`repro.geometry.batch` promises the same float as these loops, which
evaluate every source vertex and every pair with no pruning or dedup.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.errors import DimensionMismatchError, EmptyPolytopeError
from repro.geometry.polytope import ConvexPolytope
from repro.geometry.projection import project_onto_hull


def directed_hausdorff_scalar(
    source: ConvexPolytope, target: ConvexPolytope
) -> float:
    """Exhaustive per-vertex maximisation of ``d_E(p, target)``."""
    if source.dim != target.dim:
        raise DimensionMismatchError(
            f"polytope dims differ: {source.dim} vs {target.dim}"
        )
    if source.is_empty or target.is_empty:
        raise EmptyPolytopeError("directed Hausdorff undefined for empty polytopes")
    worst = 0.0
    target_vertices = target.vertices
    for vertex in source.vertices:
        projection, _ = project_onto_hull(vertex, target_vertices)
        dist = float(np.linalg.norm(projection - vertex))
        if dist > worst:
            worst = dist
    return worst


def hausdorff_distance_scalar(h1: ConvexPolytope, h2: ConvexPolytope) -> float:
    """Symmetric ``d_H`` from two exhaustive directed scans."""
    return max(
        directed_hausdorff_scalar(h1, h2), directed_hausdorff_scalar(h2, h1)
    )


def disagreement_diameter_scalar(polytopes: Sequence[ConvexPolytope]) -> float:
    """Exhaustive all-pairs scan of ``max_{i,j} d_H(h_i, h_j)``."""
    polys = list(polytopes)
    worst = 0.0
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            dist = hausdorff_distance_scalar(polys[i], polys[j])
            if dist > worst:
                worst = dist
    return worst
