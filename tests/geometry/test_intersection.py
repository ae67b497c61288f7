"""Unit tests for subset-hull intersections (line 5 of Algorithm CC)."""

import numpy as np
import pytest
from itertools import combinations
from scipy.optimize import linprog

from repro.geometry.intersection import (
    intersect_hulls,
    intersect_subset_hulls,
    optimal_polytope_iz,
    subset_count,
    subset_intersection_is_nonempty,
)
from repro.geometry.polytope import ConvexPolytope


def _in_hull_lp(q, verts):
    m = len(verts)
    res = linprog(
        np.zeros(m),
        A_eq=np.vstack([np.asarray(verts, dtype=float).T, np.ones(m)]),
        b_eq=np.concatenate([np.asarray(q, dtype=float), [1.0]]),
        bounds=[(0, None)] * m,
        method="highs",
    )
    return res.success


def _true_membership(q, points, f):
    return all(
        _in_hull_lp(q, np.delete(points, list(drop), axis=0))
        for drop in combinations(range(len(points)), f)
    )


class TestSubsetCount:
    def test_values(self):
        assert subset_count(5, 1) == 5
        assert subset_count(6, 2) == 15
        assert subset_count(7, 0) == 1


class Test1d:
    def test_order_statistics(self):
        pts = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
        poly = intersect_subset_hulls(pts, f=1)
        assert poly.interval() == (1.0, 3.0)

    def test_f2(self):
        pts = np.arange(7, dtype=float).reshape(-1, 1)
        poly = intersect_subset_hulls(pts, f=2)
        assert poly.interval() == (2.0, 4.0)

    def test_empty_when_too_few(self):
        pts = np.array([[0.0], [10.0]])
        poly = intersect_subset_hulls(pts, f=1)
        assert poly.is_empty

    def test_duplicates_matter(self):
        # Two copies of 0 protect it: dropping one leaves the other.
        pts = np.array([[0.0], [0.0], [5.0]])
        poly = intersect_subset_hulls(pts, f=1)
        assert poly.interval()[0] == pytest.approx(0.0)

    def test_f0_is_hull(self):
        pts = np.array([[3.0], [1.0]])
        poly = intersect_subset_hulls(pts, f=0)
        assert poly.interval() == (1.0, 3.0)


class Test2d:
    def test_square_plus_center(self):
        pts = np.array([[0, 0], [4, 0], [0, 4], [4, 4], [2, 2]], dtype=float)
        poly = intersect_subset_hulls(pts, f=1)
        assert poly.is_point
        np.testing.assert_allclose(poly.vertices[0], [2.0, 2.0], atol=1e-7)

    def test_agrees_with_lp_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            pts = rng.normal(size=(7, 2)) * 2
            poly = intersect_subset_hulls(pts, f=1)
            for _ in range(15):
                q = rng.normal(size=2) * 2
                expected = _true_membership(q, pts, 1)
                got = (not poly.is_empty) and poly.contains_point(q, tol=1e-7)
                assert got == expected, f"trial {trial}, q={q}"

    def test_f2(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(9, 2))
        poly = intersect_subset_hulls(pts, f=2)
        for _ in range(10):
            q = rng.normal(size=2)
            expected = _true_membership(q, pts, 2)
            got = (not poly.is_empty) and poly.contains_point(q, tol=1e-7)
            assert got == expected

    def test_collinear_points(self):
        pts = np.outer(np.arange(5, dtype=float), [1.0, 1.0])
        poly = intersect_subset_hulls(pts, f=1)
        assert not poly.is_empty
        assert poly.affine_dim <= 1
        assert poly.contains_point([2.0, 2.0])
        assert not poly.contains_point([0.0, 0.0])

    def test_all_identical(self):
        pts = np.tile([1.0, 2.0], (5, 1))
        poly = intersect_subset_hulls(pts, f=1)
        assert poly.is_point


class Test3d:
    def test_agrees_with_lp_oracle(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(9, 3))
        poly = intersect_subset_hulls(pts, f=1)
        for _ in range(20):
            q = rng.normal(size=3) * 0.8
            expected = _true_membership(q, pts, 1)
            got = (not poly.is_empty) and poly.contains_point(q, tol=1e-7)
            assert got == expected

    def test_contained_in_full_hull(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(10, 3))
        poly = intersect_subset_hulls(pts, f=1)
        from repro.geometry.polytope import ConvexPolytope

        hull = ConvexPolytope.from_points(pts)
        assert hull.contains_polytope(poly)


class TestValidation:
    def test_negative_f(self):
        with pytest.raises(ValueError):
            intersect_subset_hulls(np.zeros((3, 2)), f=-1)

    def test_f_too_large(self):
        with pytest.raises(ValueError):
            intersect_subset_hulls(np.zeros((3, 2)), f=3)

    def test_intersect_hulls_empty_list(self):
        with pytest.raises(ValueError):
            intersect_hulls([], dim=2)


class TestNonemptiness:
    def test_tverberg_guarantee(self):
        # m >= (d+1)f + 1 guarantees non-empty (Lemma 2 via Theorem 5).
        rng = np.random.default_rng(9)
        for d in (1, 2, 3):
            for f in (1, 2):
                m = (d + 1) * f + 1
                for seed in range(5):
                    pts = np.random.default_rng(seed).normal(size=(m, d))
                    assert subset_intersection_is_nonempty(pts, f), (d, f, seed)
                    poly = intersect_subset_hulls(pts, f)
                    assert not poly.is_empty

    def test_below_guarantee_can_be_empty(self):
        # d=2, f=1, m=3 (< (d+1)f+1 = 4): a triangle's subset
        # intersection of its three edges is empty.
        pts = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        assert not subset_intersection_is_nonempty(pts, 1)
        assert intersect_subset_hulls(pts, 1).is_empty

    def test_nonempty_agrees_with_full_computation(self):
        rng = np.random.default_rng(10)
        for m in (3, 4, 5, 6):
            pts = rng.normal(size=(m, 2))
            fast = subset_intersection_is_nonempty(pts, 1)
            full = not intersect_subset_hulls(pts, 1).is_empty
            assert fast == full, m


#: Falsifying examples hypothesis found for
#: tests/property/test_intersection_properties.py::test_tverberg_nonemptiness_3d
#: (m = 7 >= (d+1)f + 1 = 5 for d = 3, f = 1, so never empty), and one
#: (chart-noise) from a seeded search over the same kind of input.
#: The intersections are slivers 1e-8..1e-7 thick, below the 1e-7 default
#: feasibility tolerance of HiGHS: the Chebyshev LP put its centre outside
#: the region or stopped on its boundary, and Qhull raised
#: HullComputationError or the result came back empty.  In
#: chart-noise the centre is accurate, but a constraint nearly normal to
#: the region's chart projects its offset noise to a bound that empties
#: the chart.
_SLIVERS = {
    "pinched-point": [[0, 1e-8, 1], [-1, 1e-8, 1e-8], [1e-8, 0, 1e-8],
                      [1e-8, 1e-8, 1e-8], [1e-8, 1, 1e-8], [1e-8, 1e-8, 1e-8],
                      [1e-8, 1e-8, 1e-8]],
    "flat-pinched-point": [[-1, 1e-8, 1e-8], [1e-8, 0, 1e-8],
                           [1e-8, 1e-8, 1e-8], [1e-8, 1e-8, 1e-8],
                           [1e-8, 1, 1e-8], [1e-8, 1e-8, 1e-8],
                           [1e-8, 1e-8, 1e-8]],
    "point-at-origin": [[-1e-5, 0, 0], [0, 2, 0], [0, 0, 0], [0, 0, 0],
                        [7, 0, 0.0625], [0, 0, 0], [0, 0, 0]],
    "flat-wedge-apex": [[-1e-5, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 0],
                        [8, 0.0625, 0], [0, 0, 0], [0, 0, 0]],
    "flat-segment": [[1, 3, 0], [0, 5.96046448e-08, 0], [1, 0, 0], [0, 0, 0],
                     [0, 0, 0], [0, 0, 0], [0, 0, 0]],
    "tilted-point": [[1, 2, 0], [0, 0, 5.96046448e-08], [1, 0, 0], [0, 0, 0],
                     [0, 0, 0], [0, 0, 0], [0, 0, 0]],
    "segment-on-axis": [[1, 0, 0], [-1.1920929e-07, 5, 0], [0, 0, 0],
                        [0, 0, 0], [0, 0, 1], [0, 2, 0], [0, 0, 0]],
    "boundary-centre": [[-4, 0, 1.1920929e-07], [0, -0.5, -1], [-2, 0, 0],
                        [0, 0, 0], [0, -1, 0], [0, 0, 0], [0, 0, 1]],
    "flat-thin-triangle": [[3, 1.1920929e-07, 0], [-1, 0, 0], [0, 0, 0],
                           [1, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]],
    "pinched-cluster": [[7, 1e-7, 1e-7], [0, 0, 1e-7], [0, 1e-7, 1e-7],
                        [1e-7, 1e-7, 1e-7], [1e-7, 1e-7, 1e-7],
                        [1e-7, 1e-7, 1e-7], [1e-7, 1e-7, 0]],
    "chart-noise": [[0, 0, 0.0625], [0, 0, 0.0625], [1, 0, 1e-05],
                    [0, 0, 0.0625], [3, 5.96046448e-08, -1e-08],
                    [6.159934911139757, 5, 5.96046448e-08],
                    [-4.114223338167784, 0, -1e-05]],
}


class TestSliverIntersections:
    @pytest.mark.parametrize("name", sorted(_SLIVERS))
    def test_never_empty(self, name):
        pts = np.array(_SLIVERS[name], dtype=float)
        assert subset_intersection_is_nonempty(pts, 1)
        assert not intersect_subset_hulls(pts, 1).is_empty

    @pytest.mark.parametrize(
        "name",
        # flat-wedge-apex is left out: its stacked H-rep is inconsistent
        # at ~2e-8 (infeasible at tight tolerances below that slack), and
        # the region is the apex of a wedge of opening ~8e-3, so any
        # point meeting the constraints to within the LP tolerance may lie
        # ~1e-5 from the apex.
        sorted(set(_SLIVERS) - {"flat-wedge-apex"}),
    )
    def test_vertices_in_every_subset_hull(self, name):
        pts = np.array(_SLIVERS[name], dtype=float)
        poly = intersect_subset_hulls(pts, 1)
        for k in range(pts.shape[0]):
            hull = ConvexPolytope.from_points(np.delete(pts, [k], axis=0))
            for v in poly.vertices:
                assert hull.distance_to_point(v) <= 1e-7, (k, v)


class TestIz:
    def test_iz_equals_subset_intersection(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(6, 2))
        iz = optimal_polytope_iz(pts, 1)
        direct = intersect_subset_hulls(pts, 1)
        assert iz.approx_equal(direct)
