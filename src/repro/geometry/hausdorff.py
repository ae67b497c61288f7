"""Hausdorff distance between convex polytopes (paper Eq. (1)).

The epsilon-agreement property of convex hull consensus is stated in terms
of the Hausdorff distance

    d_H(h1, h2) = max( max_{p in h1} min_{q in h2} d_E(p, q),
                       max_{q in h2} min_{p in h1} d_E(p, q) )

For *convex* operands the outer maximisation is attained at a vertex: the
function ``p -> d_E(p, Q)`` (distance to a convex set) is convex, and a
convex function attains its maximum over a polytope at an extreme point.
So the exact Hausdorff distance reduces to finitely many point-to-polytope
projections, which :mod:`repro.geometry.projection` solves.

The entry points run the bound-and-prune kernels of
:mod:`repro.geometry.batch`: certified per-candidate upper bounds in one
vectorized pass, and the projection kernel only on candidates that can
still attain the maximum.  They return the same floats as the exhaustive
scan (see that module's equivalence contract).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .batch import batch_directed_hausdorff, batch_disagreement_diameter
from .errors import DimensionMismatchError, EmptyPolytopeError
from .polytope import ConvexPolytope


def directed_hausdorff(source: ConvexPolytope, target: ConvexPolytope) -> float:
    """``max_{p in source} d_E(p, target)`` for convex polytopes.

    Exact up to the projection solver's tolerance: the maximum over the
    convex ``source`` of the convex distance-to-``target`` function is
    attained at one of ``source``'s vertices.
    """
    return batch_directed_hausdorff(source, target)


def hausdorff_distance(h1: ConvexPolytope, h2: ConvexPolytope) -> float:
    """Symmetric Hausdorff distance ``d_H`` of Eq. (1)."""
    return max(directed_hausdorff(h1, h2), directed_hausdorff(h2, h1))


def disagreement_diameter(polytopes: Sequence[ConvexPolytope]) -> float:
    """``max_{i,j} d_H(h_i, h_j)`` — the quantity epsilon-agreement bounds.

    This is the per-round metric experiment E1 tracks against the paper's
    ``(1 - 1/n)^t * Omega`` envelope (Eq. 18).
    """
    return batch_disagreement_diameter(polytopes)


def hausdorff_to_point(poly: ConvexPolytope, point) -> float:
    """``d_H(poly, {point})`` — the farthest vertex from ``point``.

    Useful for the degenerate-case experiment (E6): when the output has
    collapsed to (numerically) a single point, this measures how far any
    part of a polytope strays from it.
    """
    if poly.is_empty:
        raise EmptyPolytopeError("hausdorff_to_point undefined for empty polytope")
    p = np.asarray(point, dtype=float).reshape(-1)
    if p.size != poly.dim:
        raise DimensionMismatchError("point dimension mismatch")
    return float(np.max(np.linalg.norm(poly.vertices - p, axis=1)))
