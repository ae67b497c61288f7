"""The paper's function **L** (Definition 2): weighted polytope combination.

    L([h_1..h_v]; [c_1..c_v]) = { sum_i c_i p_i : p_i in h_i }

with ``c_i >= 0`` and ``sum c_i = 1``.  This is the weighted Minkowski sum
of the scaled polytopes ``c_i h_i``; for non-empty convex operands it is a
non-empty convex polytope (the paper notes the proof is straightforward —
the test suite verifies it property-based instead).

Every round ``t >= 1`` of Algorithm CC computes its new state with equal
weights ``1/|Y_i[t]|`` (line 14); the matrix-analysis layer re-computes the
same combinations with the rows of reconstructed transition matrices.

Implementation: iterated pairwise vertex sums with hull pruning after each
step.  Pruning keeps the intermediate vertex count equal to the true vertex
count of the partial sum, so the overall cost is polynomial in practice for
the polytopes CC produces.  1-d operands use interval arithmetic.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .cache import COMBINATION_CACHE, PERF, array_key, memoized_polytope
from .errors import DimensionMismatchError, EmptyPolytopeError
from .hull import hull_vertices
from .polytope import ConvexPolytope

#: Weights smaller than this contribute nothing within float64 resolution
#: relative to the coordinate scales used in the library.
_NEGLIGIBLE_WEIGHT = 1e-15

#: Candidate-product block size for one pairwise Minkowski step.  At or
#: below this size the full product is materialized and hulled in one
#: shot (the historical path); above it the product is folded into a
#: running hull block by block, so the peak intermediate array is bounded
#: by roughly this many points instead of ``|acc| * |term|``.
_PAIR_BLOCK = 2048


def validate_weights(weights: Sequence[float], count: int) -> np.ndarray:
    """Check that ``weights`` is a stochastic vector of length ``count``."""
    w = np.asarray(list(weights), dtype=float)
    if w.size != count:
        raise ValueError(f"expected {count} weights, got {w.size}")
    if np.any(w < -1e-12):
        raise ValueError(f"weights must be non-negative, got {w}")
    total = float(w.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got sum={total}")
    return np.clip(w, 0.0, None)


def _combine_1d(polytopes: Sequence[ConvexPolytope], w: np.ndarray) -> ConvexPolytope:
    lo = 0.0
    hi = 0.0
    for poly, weight in zip(polytopes, w):
        p_lo, p_hi = poly.interval()
        lo += weight * p_lo
        hi += weight * p_hi
    return ConvexPolytope.from_interval(lo, hi)


def linear_combination(
    polytopes: Sequence[ConvexPolytope],
    weights: Sequence[float],
    *,
    max_intermediate_vertices: int = 100_000,
) -> ConvexPolytope:
    """Compute ``L(polytopes; weights)`` per Definition 2 of the paper.

    All polytopes must be non-empty and share one ambient dimension; the
    weights must form a stochastic vector of matching length.  Zero-weight
    terms are skipped (they contribute the origin scaled by zero regardless
    of the operand, exactly as in Eq. (3)).
    """
    polys = list(polytopes)
    if not polys:
        raise ValueError("linear_combination requires at least one polytope")
    w = validate_weights(weights, len(polys))
    dim = polys[0].dim
    for poly in polys:
        if poly.dim != dim:
            raise DimensionMismatchError("polytopes of mixed dimensions in L")
        if poly.is_empty:
            raise EmptyPolytopeError("L is undefined for empty operands")

    active = [(poly, float(c)) for poly, c in zip(polys, w) if c > _NEGLIGIBLE_WEIGHT]
    if not active:
        raise ValueError("all weights are (numerically) zero")

    if dim == 1:
        return _combine_1d([p for p, _ in active], np.array([c for _, c in active]))

    # Content-addressed on the ordered active operands and weights: the
    # iterated pairwise sums below are order-sensitive in floating point,
    # so the key must preserve operand order to stay bit-identical with
    # the computation.  Processes that freeze the same (sender-sorted)
    # ``Y_i[t]`` multiset share one computation.
    return memoized_polytope(
        COMBINATION_CACHE,
        (
            dim,
            max_intermediate_vertices,
            tuple(array_key(poly.vertices) for poly, _ in active),
            tuple(c for _, c in active),
        ),
        lambda: _combine_minkowski(active, dim, max_intermediate_vertices),
    )


def _combine_minkowski(
    active: list[tuple[ConvexPolytope, float]],
    dim: int,
    max_intermediate_vertices: int,
) -> ConvexPolytope:
    """Iterated pairwise weighted Minkowski sums with hull pruning."""
    first_poly, first_c = active[0]
    acc = first_c * first_poly.vertices
    for poly, c in active[1:]:
        term = c * poly.vertices
        acc = _minkowski_pair_hull(acc, term, dim, max_intermediate_vertices)
    # ``acc`` is the output of a hull computation (or a single scaled
    # vertex set), i.e. already minimal — construct via the trusted path
    # instead of re-running the hull on its own output.
    if len(active) == 1:
        return ConvexPolytope.from_points(acc, dim=dim)
    return ConvexPolytope(acc, dim, _trusted=True)


def _minkowski_pair_hull(
    acc: np.ndarray,
    term: np.ndarray,
    dim: int,
    max_intermediate_vertices: int,
) -> np.ndarray:
    """Hull of ``{a + t : a in acc, t in term}`` without the full product.

    The candidate product has ``|acc| * |term|`` points, but almost all of
    them are interior: the true Minkowski-sum vertex count is bounded by
    ``|acc| + |term|`` in the plane.  Small products (the common case for
    Algorithm CC's per-round combinations) are materialized whole; large
    ones are folded block by block into a *running hull*, which prunes the
    dominated sums of each block before the next block is generated, so
    peak memory stays ~``_PAIR_BLOCK`` points instead of the full product.
    The ``max_intermediate_vertices`` cap keeps its historical meaning as
    a guard on the total candidate-product size.
    """
    total = acc.shape[0] * term.shape[0]
    PERF.minkowski_pairs += 1
    PERF.minkowski_candidates += total
    if total > max_intermediate_vertices:
        raise MemoryError(
            f"Minkowski intermediate of {total} candidate vertices "
            f"exceeds the safety cap {max_intermediate_vertices}"
        )
    if total <= _PAIR_BLOCK:
        sums = (acc[:, None, :] + term[None, :, :]).reshape(-1, dim)
        return hull_vertices(sums)
    rows_per_block = max(1, _PAIR_BLOCK // term.shape[0])
    running: np.ndarray | None = None
    for start in range(0, acc.shape[0], rows_per_block):
        chunk = acc[start : start + rows_per_block]
        block = (chunk[:, None, :] + term[None, :, :]).reshape(-1, dim)
        if running is None:
            running = hull_vertices(block)
        else:
            running = hull_vertices(np.vstack([running, block]))
    assert running is not None  # acc is never empty here
    return running


def equal_weight_combination(polytopes: Sequence[ConvexPolytope]) -> ConvexPolytope:
    """Line 14 of Algorithm CC: ``L(Y; [1/|Y| .. 1/|Y|])``."""
    polys = list(polytopes)
    if not polys:
        raise ValueError("need at least one polytope")
    nu = len(polys)
    return linear_combination(polys, [1.0 / nu] * nu)


def stochastic_row_combination(
    row: Sequence[float], polytopes: Sequence[ConvexPolytope]
) -> ConvexPolytope:
    """Matrix-form product ``A_i v`` of Eq. (5): ``L(v^T; A_i)``.

    Entries of ``row`` that are zero skip their polytope, mirroring the
    transition-matrix rule that unheard processes get weight 0.
    """
    return linear_combination(list(polytopes), list(row))
