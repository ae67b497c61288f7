"""Tverberg machinery — the engine behind Lemma 2's non-emptiness proof.

Tverberg's theorem (paper Theorem 5): any multiset of at least
``(d+1)f + 1`` points in d-space admits a partition into ``f + 1`` parts
whose hulls share a common point.  Lemma 2 uses this to show ``h_i[0]`` is
non-empty whenever ``n >= (d+2)f + 1`` (so ``|X_i| >= n - f >= (d+1)f+1``).

Provided here:

* :func:`radon_partition` — the f=1 base case (Radon's theorem, exact in
  any dimension via a null-space computation);
* :func:`tverberg_partition_1d` — exact constructive partition on the line
  (pair extremes, middle block);
* :func:`tverberg_partition` — general-dimension search: exact for f <= 1,
  seeded random-restart search certified by an LP feasibility check for
  f >= 2 (the theorem guarantees a witness exists at the size bound, the
  LP certifies whichever candidate we find);
* :func:`common_point_of_hulls` — LP computing a point in the intersection
  of the part hulls (the *certificate*), or ``None`` when there is none.

The test suite uses these constructive witnesses to check Lemma 2 on its
own terms; no module under ``src/`` calls them (the subset intersection's
Tverberg-bound shortcut needs only the theorem's size bound).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.linalg import as_points_array
from repro.geometry.tolerances import ABS_TOL


def radon_partition(points) -> tuple[list[int], list[int], np.ndarray]:
    """Radon partition of ``d + 2`` (or more) points in d-space.

    Returns ``(part_a, part_b, radon_point)`` — index lists whose hulls
    intersect in ``radon_point``.  Uses the classical null-space argument:
    any ``m >= d + 2`` points admit coefficients ``a`` with
    ``sum a_i x_i = 0``, ``sum a_i = 0``, ``a != 0``; the sign split is the
    partition.
    """
    pts = as_points_array(points)
    m, dim = pts.shape
    if m < dim + 2:
        raise ValueError(f"Radon partition needs >= d+2 = {dim + 2} points, got {m}")
    # Null space of the (d+1) x m system [x_i; 1].
    system = np.vstack([pts.T, np.ones(m)])
    _u, _s, vt = np.linalg.svd(system)
    coeffs = vt[-1]
    pos = [i for i in range(m) if coeffs[i] > ABS_TOL]
    neg = [i for i in range(m) if coeffs[i] < -ABS_TOL]
    if not pos or not neg:
        # Numerically defective (e.g. duplicated points): split duplicates.
        raise np.linalg.LinAlgError("degenerate Radon coefficients")
    pos_sum = float(np.sum(coeffs[pos]))
    point = np.sum(coeffs[pos, None] * pts[pos], axis=0) / pos_sum
    return pos, neg, point


def tverberg_partition_1d(values, parts: int) -> list[list[int]]:
    """Exact Tverberg partition on the line into ``parts`` groups.

    Sort the values; pair the j-th smallest with the j-th largest for the
    first ``parts - 1`` groups and put the middle block in the last group.
    Every group's interval contains the (parts)-th smallest value, so the
    hulls share a point.
    """
    vals = np.asarray(values, dtype=float).reshape(-1)
    m = vals.size
    if m < 2 * (parts - 1) + 1:
        raise ValueError(
            f"1-d Tverberg partition into {parts} parts needs >= {2 * parts - 1} "
            f"points, got {m}"
        )
    order = list(np.argsort(vals, kind="stable"))
    groups: list[list[int]] = []
    for j in range(parts - 1):
        groups.append([order[j], order[m - 1 - j]])
    groups.append(order[parts - 1 : m - (parts - 1)])
    return groups


def common_point_of_hulls(vertex_sets: list[np.ndarray]) -> np.ndarray | None:
    """A point in the intersection of ``conv(V_j)`` over all j, or None.

    Feasibility LP in barycentric coordinates: find ``lambda^j >= 0`` with
    ``sum_i lambda^j_i = 1`` and all parts' mixtures equal.  The common
    point is the shared mixture value.
    """
    from scipy.optimize import linprog

    if not vertex_sets:
        raise ValueError("need at least one hull")
    sets = [as_points_array(v) for v in vertex_sets]
    dim = sets[0].shape[1]
    sizes = [s.shape[0] for s in sets]
    total = sum(sizes)
    num_parts = len(sets)
    # Variables: all lambdas concatenated.  Constraints:
    #   per part: sum lambda^j = 1
    #   per part j >= 1: V_j^T lambda^j - V_0^T lambda^0 = 0 (d rows each)
    a_eq_rows = []
    b_eq = []
    offset = np.cumsum([0] + sizes)
    for j in range(num_parts):
        row = np.zeros(total)
        row[offset[j] : offset[j + 1]] = 1.0
        a_eq_rows.append(row)
        b_eq.append(1.0)
    for j in range(1, num_parts):
        for coord in range(dim):
            row = np.zeros(total)
            row[offset[0] : offset[1]] = -sets[0][:, coord]
            row[offset[j] : offset[j + 1]] = sets[j][:, coord]
            a_eq_rows.append(row)
            b_eq.append(0.0)
    res = linprog(
        np.zeros(total),
        A_eq=np.array(a_eq_rows),
        b_eq=np.array(b_eq),
        bounds=[(0, None)] * total,
        method="highs",
    )
    if not res.success:
        return None
    lam0 = res.x[offset[0] : offset[1]]
    return lam0 @ sets[0]


def verify_tverberg_partition(points, groups: list[list[int]]) -> np.ndarray | None:
    """LP certificate that the hulls of ``groups`` share a point."""
    pts = as_points_array(points)
    if any(len(g) == 0 for g in groups):
        return None
    flat = [idx for group in groups for idx in group]
    if sorted(flat) != list(range(pts.shape[0])):
        raise ValueError("groups must partition the index range exactly")
    return common_point_of_hulls([pts[g] for g in groups])


def tverberg_partition(
    points, parts: int, *, seed: int = 0, max_tries: int = 500
) -> tuple[list[list[int]], np.ndarray]:
    """Find a Tverberg partition into ``parts`` groups, with certificate.

    Exact for 1-d inputs and for ``parts <= 2`` (Radon).  Otherwise a
    seeded random-restart search over balanced partitions, each candidate
    certified via :func:`common_point_of_hulls`.  Raises ``RuntimeError``
    if no certified partition is found within ``max_tries`` (with point
    counts at the Tverberg bound a witness always exists; the search is a
    heuristic only in that it may need several restarts).

    Returns ``(groups, common_point)``.
    """
    pts = as_points_array(points)
    m, dim = pts.shape
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if parts == 1:
        return [list(range(m))], pts.mean(axis=0)
    if dim == 1:
        groups = tverberg_partition_1d(pts[:, 0], parts)
        witness = verify_tverberg_partition(pts, groups)
        if witness is None:  # pragma: no cover - construction is exact
            raise RuntimeError("1-d Tverberg construction failed certification")
        return groups, witness
    if parts == 2:
        part_a, part_b, point = radon_partition(pts)
        return [part_a, part_b], point

    required = (dim + 1) * (parts - 1) + 1
    if m < required:
        raise ValueError(
            f"Tverberg partition into {parts} parts in {dim}-d needs >= "
            f"{required} points, got {m}"
        )
    rng = np.random.default_rng(seed)
    indices = np.arange(m)
    for attempt in range(max_tries):
        if attempt == 0:
            # Deterministic first try: round-robin by angle about centroid.
            center = pts.mean(axis=0)
            rel = pts - center
            angles = np.arctan2(rel[:, 1], rel[:, 0]) if dim >= 2 else rel[:, 0]
            order = np.argsort(angles, kind="stable")
        else:
            order = rng.permutation(indices)
        groups = [list(order[j::parts]) for j in range(parts)]
        groups = [sorted(int(i) for i in g) for g in groups]
        witness = verify_tverberg_partition(pts, groups)
        if witness is not None:
            return groups, witness
    raise RuntimeError(
        f"no certified Tverberg partition found in {max_tries} attempts "
        f"(m={m}, d={dim}, parts={parts})"
    )
