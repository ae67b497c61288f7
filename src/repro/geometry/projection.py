"""Euclidean projection of a point onto the convex hull of a point set.

This is the workhorse behind point-to-polytope distances (and hence the
Hausdorff metric of the paper's epsilon-agreement property).  The problem

    minimise   || V^T lam - p ||^2
    subject to lam >= 0,  sum(lam) = 1

is a simplex-constrained least-squares QP.  In one dimension the hull is
an interval and the answer is an exact clamp.  Otherwise we solve it with
FISTA (accelerated projected gradient) using the exact O(m log m)
projection onto the probability simplex, followed by a support-polish step
that solves the equality-constrained least-squares problem restricted to
the active support and verifies the KKT conditions.  No external QP solver
is required.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyPolytopeError, SolverError
from .linalg import as_points_array


def project_onto_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of vector ``v`` onto the probability simplex.

    Implements the sort-based algorithm of Held/Wolfe/Crowder (popularised
    by Duchi et al. 2008).  Exact up to floating point.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    if n == 0:
        raise ValueError("cannot project an empty vector onto the simplex")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, n + 1)
    cond = u - css / ks > 0
    if not np.any(cond):
        # Numerically pathological input; fall back to uniform.
        return np.full(n, 1.0 / n)
    rho = int(np.nonzero(cond)[0][-1])
    theta = css[rho] / (rho + 1)
    return np.maximum(v - theta, 0.0)


def _solve_equality_kkt(
    point: np.ndarray, vertices: np.ndarray, support: np.ndarray
) -> np.ndarray | None:
    """Minimise ``||V^T s - p||^2`` over ``sum s = 1`` on the given support.

    Returns the (possibly sign-violating) coefficients on the support, or
    None when the KKT system is numerically unusable.
    """
    sub = vertices[support]
    k = sub.shape[0]
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = sub @ sub.T
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[:k] = sub @ point
    rhs[k] = 1.0
    try:
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    except np.linalg.LinAlgError:
        return None
    s = sol[:k]
    if not np.all(np.isfinite(s)) or abs(s.sum() - 1.0) > 1e-7:
        return None
    return s


def _active_set_refine(
    point: np.ndarray,
    vertices: np.ndarray,
    lam: np.ndarray,
    *,
    max_rounds: int = 200,
) -> np.ndarray:
    """Active-set refinement of a warm-start ``lam`` to exact KKT optimality.

    This is the classical min-norm-point style active-set method for the
    simplex-constrained least-squares QP.  Each round solves the equality
    KKT system on the current support, drops negative coefficients, and
    admits the most violated off-support vertex (one whose gradient falls
    below the support's common multiplier).  Terminates at a KKT point —
    the exact projection — in finitely many steps; we also cap rounds for
    numerical safety (the warm start makes the cap generous).
    """
    m = vertices.shape[0]
    scale_sq = max(float(np.max(np.abs(vertices))), 1.0) ** 2
    kkt_tol = 1e-11 * scale_sq

    def objective(coeffs: np.ndarray) -> float:
        diff = coeffs @ vertices - point
        return float(diff @ diff)

    support = set(np.nonzero(lam > 1e-9)[0].tolist())
    if not support:
        support = {int(np.argmax(lam))}
    current = np.zeros(m)
    idx = np.array(sorted(support), dtype=int)
    current[idx] = np.maximum(lam[idx], 0.0)
    total = current.sum()
    if total > 0.0:
        current /= total
    else:
        current[idx] = 1.0 / idx.size
    best_lam = current.copy()
    best_obj = objective(best_lam)

    for _ in range(max_rounds):
        support_idx = np.array(sorted(support), dtype=int)
        s = _solve_equality_kkt(point, vertices, support_idx)
        if s is None:
            return best_lam
        if np.any(s < -1e-12):
            # Wolfe step: walk from the current feasible point toward the
            # affine optimum until the first coefficient hits zero, then
            # drop it and re-solve.  Unlike clamping the negative entries,
            # this keeps the objective monotone, so the support cannot
            # cycle back to a previously dropped configuration.
            cur = current[support_idx]
            crossing = s < -1e-12
            alpha = float(np.min(cur[crossing] / (cur[crossing] - s[crossing])))
            alpha = min(max(alpha, 0.0), 1.0)
            stepped = np.maximum((1.0 - alpha) * cur + alpha * s, 0.0)
            total = stepped.sum()
            if total <= 0.0:
                return best_lam
            current = np.zeros(m)
            current[support_idx] = stepped / total
            support = set(np.nonzero(current > 1e-12)[0].tolist())
            if not support:
                return best_lam
            obj = objective(current)
            if obj < best_obj:
                best_obj, best_lam = obj, current.copy()
            continue
        candidate = np.zeros(m)
        candidate[support_idx] = np.maximum(s, 0.0)
        candidate /= candidate.sum()
        current = candidate
        obj = objective(candidate)
        if obj < best_obj:
            best_obj, best_lam = obj, candidate.copy()
        # KKT check: gradient g_i = v_i . (x - p) must satisfy
        # g_i == nu on the support, g_i >= nu off it.
        x = candidate @ vertices
        grad = vertices @ (x - point)
        nu = float(np.min(grad[support_idx]))
        off = np.setdiff1d(np.arange(m), support_idx, assume_unique=False)
        if off.size == 0:
            return best_lam
        worst = int(off[np.argmin(grad[off])])
        if grad[worst] >= nu - kkt_tol:
            return best_lam
        support.add(worst)
    return best_lam


def _as_query_point(point) -> np.ndarray:
    """``point`` as a flat float array, validated like the vertices."""
    p = np.asarray(point, dtype=float).reshape(-1)
    if not np.all(np.isfinite(p)):
        raise ValueError("points must be finite (no NaN/inf)")
    return p


def _clamp_onto_interval(
    p: np.ndarray, verts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact 1-d projection: clamp ``p`` to the interval the vertices span.

    ``lam`` weights only the argmin and argmax vertices.
    """
    column = verts[:, 0]
    lo = int(np.argmin(column))
    hi = int(np.argmax(column))
    lam = np.zeros(verts.shape[0])
    x = p[0]
    if x <= column[lo]:
        lam[lo] = 1.0
        return verts[lo].copy(), lam
    if x >= column[hi]:
        lam[hi] = 1.0
        return verts[hi].copy(), lam
    weight = (x - column[lo]) / (column[hi] - column[lo])
    lam[lo] = 1.0 - weight
    lam[hi] = weight
    return p.copy(), lam


def project_onto_hull(
    point,
    vertices,
    *,
    max_iter: int = 2000,
    tol: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """Project ``point`` onto ``conv(vertices)``.

    Returns ``(projection, lam)`` where ``projection = lam @ vertices`` is
    the closest point of the hull and ``lam`` are the convex-combination
    coefficients (one per input vertex).

    A point with one coordinate is clamped to ``[min, max]`` of the
    vertices, which is exact; higher dimensions run FISTA and the
    active-set polish.

    Raises :class:`EmptyPolytopeError` for an empty vertex set and
    ``ValueError`` for a non-finite point.
    """
    p = _as_query_point(point)
    verts = as_points_array(vertices, dim=p.size)
    m = verts.shape[0]
    if m == 0:
        raise EmptyPolytopeError("cannot project onto the hull of zero points")
    if m == 1:
        return verts[0].copy(), np.array([1.0])
    if p.size == 1:
        return _clamp_onto_interval(p, verts)

    # Fast exit: if the point coincides with a vertex.
    dists_sq = np.einsum("ij,ij->i", verts - p, verts - p)
    best = int(np.argmin(dists_sq))
    if dists_sq[best] == 0.0:
        lam = np.zeros(m)
        lam[best] = 1.0
        return verts[best].copy(), lam

    # FISTA on f(lam) = 0.5 ||verts^T lam - p||^2 over the simplex.
    gram_scale = np.linalg.norm(verts, ord=2)
    lipschitz = max(gram_scale * gram_scale, 1e-30)
    step = 1.0 / lipschitz

    lam = np.full(m, 1.0 / m)
    momentum = lam.copy()
    t_k = 1.0
    prev_obj = np.inf
    for _ in range(max_iter):
        residual = momentum @ verts - p
        grad = verts @ residual
        lam_next = project_onto_simplex(momentum - step * grad)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k))
        momentum = lam_next + ((t_k - 1.0) / t_next) * (lam_next - lam)
        lam, t_k = lam_next, t_next
        diff = lam @ verts - p
        obj = float(diff @ diff)
        if abs(prev_obj - obj) <= tol * max(1.0, obj):
            break
        prev_obj = obj
    else:
        # FISTA is guaranteed O(1/k^2); not converging in max_iter means the
        # problem is pathologically scaled.  We still polish and return.
        pass

    lam = _active_set_refine(p, verts, lam)
    projection = lam @ verts
    if not np.all(np.isfinite(projection)):
        raise SolverError("projection produced non-finite coordinates")
    return projection, lam


def distance_to_hull(point, vertices) -> float:
    """Euclidean distance from ``point`` to ``conv(vertices)``."""
    p = _as_query_point(point)
    projection, _ = project_onto_hull(p, vertices)
    diff = projection - p
    if diff.size == 1:
        # |diff| directly: the squared norm would underflow below ~1e-154.
        return abs(float(diff[0]))
    return float(np.linalg.norm(diff))


def point_in_hull(point, vertices, tol: float = 1e-7) -> bool:
    """Membership test ``point in conv(vertices)`` up to tolerance ``tol``.

    Scale-aware: the tolerance is interpreted relative to the magnitude of
    the coordinates involved (with a floor of the absolute tolerance).
    """
    p = _as_query_point(point)
    verts = as_points_array(vertices, dim=p.size)
    if verts.shape[0] == 0:
        return False
    scale = max(float(np.max(np.abs(verts))), float(np.max(np.abs(p))), 1.0)
    return distance_to_hull(p, verts) <= tol * scale
