"""Bound-and-prune kernels behind the public Hausdorff functions.

Algorithm CC's analysis evaluates ``d_H`` (Eq. 1) for every pair of
process states in every round.  The exhaustive evaluation runs one
FISTA projection per source vertex (~1.2M tiny numpy calls for one n=16
analysis pass).  The kernels here compute a certified upper bound for
every candidate in one vectorized pass and run the projection kernel
only on candidates that can still attain the maximum:
:func:`batch_directed_hausdorff` prunes source vertices,
:func:`batch_disagreement_diameter` deduplicates bit-identical members
and prunes pairs.  :mod:`repro.geometry.hausdorff` exposes them as
``directed_hausdorff``, ``hausdorff_distance`` and
``disagreement_diameter``.

Equivalence contract
--------------------
Every kernel returns **bit-identical** results to the exhaustive scalar
scan (kept as the test oracles in ``tests/oracles/hausdorff.py``), by
one of two arguments:

* *same-kernel*: the kernel performs exactly the scalar scan's
  floating-point operations on exactly its operands — dedup and
  vectorized bound computation never change what the surviving
  projection calls compute; or
* *certified pruning*: a maximisation skips a candidate only when a
  certified upper bound on its value lies below an already-*achieved*
  kernel value minus a safety margin (:data:`PRUNE_MARGIN`, resolution
  orders of magnitude above the projection solver's accuracy), so the
  returned maximum is the same float the exhaustive scan produces.

The seeded property suites in ``tests/property/test_batch_properties.py``
assert exact (``==``) equality with the oracles.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .cache import PERF, array_key
from .errors import DimensionMismatchError, EmptyPolytopeError
from .polytope import ConvexPolytope
from .projection import project_onto_hull

__all__ = [
    "PRUNE_MARGIN",
    "batch_directed_hausdorff",
    "batch_disagreement_diameter",
]

#: Relative safety margin for certified pruning: a candidate is skipped
#: only when its certified upper bound lies this far (times the
#: coordinate scale) below an achieved exact value.  The projection
#: solver is accurate to ~1e-11 relative, so the margin leaves two
#: orders of magnitude of slack while still pruning everything that is
#: not within a hair of the maximum.
PRUNE_MARGIN = 1e-9


def batch_enabled() -> bool:
    """Always True: the bound-and-prune kernels are the only path.

    Kept only for the benchmark harness (``perfbench/run.py``), which
    checks it before measuring.
    """
    return True


# ----------------------------------------------------------------------
# Batched Hausdorff maximisation
# ----------------------------------------------------------------------

def _cross_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact pairwise Euclidean distances, shape ``(|a|, |b|)``.

    Elementwise subtraction, per-entry sequential squared-sum over the
    coordinate axis (einsum), and sqrt — the same operations, in the same
    order, that the scalar kernels apply to each individual pair.
    """
    diff = a[:, None, :] - b[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    return np.sqrt(d2)


def batch_directed_hausdorff(
    source: ConvexPolytope, target: ConvexPolytope
) -> float:
    """``max_{p in source} d_E(p, target)`` via batched bound-and-prune.

    Bit-identical to the scalar ``directed_hausdorff``:

    * identical vertex arrays short-circuit to ``0.0`` — the scalar loop
      provably returns exactly ``0.0`` there (every projection takes the
      coincident-vertex fast exit);
    * otherwise the per-vertex distances-to-``target``'s-*vertex-set* are
      computed in one vectorized call.  Each is a certified upper bound
      on the vertex's distance to ``target`` (the hull contains its
      vertices).  Source vertices are visited in decreasing bound order;
      each visit runs the *scalar projection kernel* unchanged.  Once the
      remaining bounds fall :data:`PRUNE_MARGIN` below the best exact
      distance already achieved, no remaining vertex can change the
      maximum and the scan stops.  The returned value is therefore always
      produced by the same kernel arithmetic as the exhaustive loop.
    """
    if source.dim != target.dim:
        raise DimensionMismatchError(
            f"polytope dims differ: {source.dim} vs {target.dim}"
        )
    if source.is_empty or target.is_empty:
        raise EmptyPolytopeError("directed Hausdorff undefined for empty polytopes")
    src = source.vertices
    tgt = target.vertices
    if array_key(src) == array_key(tgt):
        return 0.0
    bounds = _cross_distances(src, tgt).min(axis=1)
    order = np.argsort(-bounds, kind="stable")
    scale = max(
        float(np.max(np.abs(src))), float(np.max(np.abs(tgt))), 1.0
    )
    margin = PRUNE_MARGIN * scale
    one_d = source.dim == 1
    worst = 0.0
    for rank, idx in enumerate(order):
        if bounds[idx] <= worst - margin:
            PERF.batch_hausdorff_vertex_prunes += order.size - rank
            break
        vertex = src[idx]
        gap = project_onto_hull(vertex, tgt)[0] - vertex
        # |gap| directly in 1-d, as in distance_to_hull: the squared norm
        # underflows below ~1e-154 and overflows above ~1e154.
        dist = abs(float(gap[0])) if one_d else float(np.linalg.norm(gap))
        if dist > worst:
            worst = dist
    return worst


def batch_disagreement_diameter(polytopes: Sequence[ConvexPolytope]) -> float:
    """``max_{i,j} d_H(h_i, h_j)`` via batch dedup + pair bound-and-prune.

    The scalar loop evaluates all ``k(k-1)/2`` pairs with a full per-vertex
    projection pass each.  Here:

    1. members are grouped by bit-level content; within-group pairs are
       exactly ``0.0`` in the scalar loop, and cross-group pair values
       depend only on the two groups' (identical) vertex arrays — so the
       diameter over the multiset equals the diameter over one
       representative per group;
    2. for every representative pair a certified upper bound on ``d_H``
       is assembled from one vectorized all-vertex distance computation
       (the max-min vertex-set Hausdorff distance, which dominates the
       hull distance in both directions);
    3. pairs are evaluated in decreasing bound order with the pair
       kernel (two :func:`batch_directed_hausdorff` calls); once bounds
       drop :data:`PRUNE_MARGIN` below the best achieved pair value the
       scan stops.

    The returned float is the one the exhaustive scalar scan produces.
    """
    polys = list(polytopes)
    if len(polys) < 2:
        return 0.0
    # Group bit-identical members; one representative each.
    reps: list[ConvexPolytope] = []
    seen: dict[tuple, int] = {}
    for poly in polys:
        key = (poly.dim, array_key(poly.vertices)) if not poly.is_empty else (
            poly.dim,
            "empty",
        )
        if key not in seen:
            seen[key] = len(reps)
            reps.append(poly)
    PERF.batch_hausdorff_dedup_groups += len(reps)
    k = len(reps)
    if k == 1:
        # All members identical: every scalar pair evaluation returns 0.0.
        # (Empty members raise in the scalar loop; preserve that.)
        if polys[0].is_empty:
            raise EmptyPolytopeError(
                "directed Hausdorff undefined for empty polytopes"
            )
        return 0.0
    for poly in reps:
        if poly.dim != reps[0].dim:
            raise DimensionMismatchError("polytopes of mixed dimensions")
        if poly.is_empty:
            raise EmptyPolytopeError(
                "directed Hausdorff undefined for empty polytopes"
            )

    # Stack the representatives' vertices; member i owns the rows
    # stacked[offsets[i]:offsets[i + 1]].
    offsets = np.zeros(k + 1, dtype=np.int64)
    np.cumsum([p.num_vertices for p in reps], out=offsets[1:])
    stacked = np.vstack([p.vertices for p in reps])
    # One all-vertices distance matrix serves every pair's bound.
    dm = _cross_distances(stacked, stacked)
    pair_bounds: list[tuple[float, int, int]] = []
    for i in range(k):
        si, ei = offsets[i], offsets[i + 1]
        for j in range(i + 1, k):
            sj, ej = offsets[j], offsets[j + 1]
            block = dm[si:ei, sj:ej]
            ub = max(
                float(block.min(axis=1).max()),  # bounds directed i -> j
                float(block.min(axis=0).max()),  # bounds directed j -> i
            )
            pair_bounds.append((ub, i, j))
    pair_bounds.sort(key=lambda t: -t[0])
    margin = PRUNE_MARGIN * max(float(np.max(np.abs(stacked))), 1.0)
    worst = 0.0
    for rank, (ub, i, j) in enumerate(pair_bounds):
        if ub <= worst - margin:
            PERF.batch_hausdorff_pair_prunes += len(pair_bounds) - rank
            break
        PERF.batch_hausdorff_pairs += 1
        dist = max(
            batch_directed_hausdorff(reps[i], reps[j]),
            batch_directed_hausdorff(reps[j], reps[i]),
        )
        if dist > worst:
            worst = dist
    return worst
