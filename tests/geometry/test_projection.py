"""Unit tests for simplex projection and hull projection (the QP solver)."""

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.geometry.errors import EmptyPolytopeError
from repro.geometry.polytope import ConvexPolytope
from repro.geometry.projection import (
    distance_to_hull,
    point_in_hull,
    project_onto_hull,
    project_onto_simplex,
)


def _in_hull_lp(q, verts):
    """Exact membership oracle via LP (independent of the code under test)."""
    m = len(verts)
    res = linprog(
        np.zeros(m),
        A_eq=np.vstack([np.asarray(verts).T, np.ones(m)]),
        b_eq=np.concatenate([np.asarray(q, dtype=float), [1.0]]),
        bounds=[(0, None)] * m,
        method="highs",
    )
    return res.success


class TestSimplexProjection:
    def test_already_on_simplex(self):
        v = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_onto_simplex(v), v, atol=1e-12)

    def test_output_is_stochastic(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = project_onto_simplex(rng.normal(size=7) * 3)
            assert out.min() >= 0
            assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_coordinate(self):
        assert project_onto_simplex(np.array([5.0])) == pytest.approx(1.0)

    def test_dominant_coordinate(self):
        out = project_onto_simplex(np.array([100.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-12)

    def test_projection_optimality(self):
        # The projection must be the closest simplex point: check against
        # random feasible alternatives.
        rng = np.random.default_rng(1)
        v = rng.normal(size=5) * 2
        proj = project_onto_simplex(v)
        base = np.linalg.norm(proj - v)
        for _ in range(100):
            alt = rng.dirichlet(np.ones(5))
            assert np.linalg.norm(alt - v) >= base - 1e-10

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            project_onto_simplex(np.array([]))


class TestProjectOntoHull:
    def test_interior_point_maps_to_itself(self):
        verts = np.array([[0, 0], [4, 0], [0, 4]], dtype=float)
        proj, lam = project_onto_hull([1.0, 1.0], verts)
        np.testing.assert_allclose(proj, [1.0, 1.0], atol=1e-9)
        assert lam.sum() == pytest.approx(1.0, abs=1e-9)

    def test_vertex_maps_to_itself(self):
        verts = np.array([[0, 0], [4, 0], [0, 4]], dtype=float)
        proj, lam = project_onto_hull([4.0, 0.0], verts)
        np.testing.assert_allclose(proj, [4.0, 0.0], atol=1e-12)

    def test_outside_projects_to_face(self):
        verts = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float)
        proj, _ = project_onto_hull([1.0, 5.0], verts)
        np.testing.assert_allclose(proj, [1.0, 2.0], atol=1e-9)

    def test_coefficients_reconstruct_projection(self):
        rng = np.random.default_rng(2)
        verts = rng.normal(size=(10, 3))
        proj, lam = project_onto_hull(rng.normal(size=3) * 2, verts)
        np.testing.assert_allclose(lam @ verts, proj, atol=1e-10)
        assert lam.min() >= -1e-12

    def test_exactness_against_lp_membership(self):
        # Interior points (per LP oracle) must project to distance ~0;
        # this is the regression test for the premature-FISTA-stop bug.
        rng = np.random.default_rng(3)
        for _ in range(30):
            verts = rng.normal(size=(8, 2)) * 2
            q = rng.normal(size=2)
            inside = _in_hull_lp(q, verts)
            dist = distance_to_hull(q, verts)
            if inside:
                assert dist < 1e-8
            else:
                assert dist > 0

    def test_single_vertex(self):
        proj, lam = project_onto_hull([5.0, 5.0], [[1.0, 1.0]])
        np.testing.assert_allclose(proj, [1.0, 1.0])
        assert lam == pytest.approx([1.0])

    def test_active_set_does_not_cycle(self):
        # Regression: on this hull the active-set refinement used to cycle
        # {1} -> {1,3} -> {2} -> {0,2} -> {1} (clamping negative equality
        # coefficients instead of taking a Wolfe line-search step breaks
        # objective monotonicity) and returned distance 2.28 for a point
        # 0.386 from the hull.
        verts = np.array(
            [[-3.0, 7.5], [-2.0, 0.0], [1.0, -2.0], [21.0, -15.0], [0.0, 5.5]]
        )
        q = np.array([-2.16103239, -0.35684282])
        proj, lam = project_onto_hull(q, verts)
        assert np.linalg.norm(proj - q) == pytest.approx(0.3862358717, abs=1e-8)
        np.testing.assert_allclose(lam @ verts, proj, atol=1e-10)
        assert lam.min() >= -1e-12

    def test_translated_hull_distance_is_shift_norm(self):
        # d_H(P, P + v) == ||v||; each vertex of the shifted hull must
        # project across, not get stuck at a far KKT-violating point.
        verts = np.array(
            [[-3.0, 7.5], [-2.0, 0.0], [1.0, -2.0], [21.0, -15.0], [0.0, 5.5]]
        )
        shift = np.array([-0.16103239, -0.35684282])
        worst = max(
            float(np.linalg.norm(project_onto_hull(v, verts)[0] - v))
            for v in verts + shift
        )
        assert worst == pytest.approx(float(np.linalg.norm(shift)), abs=1e-8)

    def test_empty_raises(self):
        with pytest.raises(EmptyPolytopeError):
            project_onto_hull([0.0], np.zeros((0, 1)))

    def test_distance_symmetry_of_segment(self):
        verts = np.array([[-1.0, 0.0], [1.0, 0.0]])
        assert distance_to_hull([0.0, 3.0], verts) == pytest.approx(3.0)
        assert distance_to_hull([2.0, 0.0], verts) == pytest.approx(1.0)

    def test_high_dim(self):
        rng = np.random.default_rng(4)
        verts = rng.normal(size=(20, 5))
        q = verts.mean(axis=0)  # centroid is inside
        assert distance_to_hull(q, verts) < 1e-8


class TestPointInHull:
    def test_inside(self):
        verts = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
        assert point_in_hull([0.2, 0.2], verts)

    def test_outside(self):
        verts = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
        assert not point_in_hull([1.0, 1.0], verts)

    def test_boundary_with_tolerance(self):
        verts = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
        assert point_in_hull([0.5, 0.5], verts, tol=1e-6)

    def test_empty_vertex_set(self):
        assert not point_in_hull([0.0], np.zeros((0, 1)))

    def test_scale_awareness(self):
        verts = np.array([[0, 0], [1e6, 0], [0, 1e6]], dtype=float)
        assert point_in_hull([1e5, 1e5], verts)
        assert not point_in_hull([1e6, 1e6], verts)


class TestNonFiniteQueryPoint:
    """A NaN or infinite query point is rejected, never projected.

    Before this check a NaN point projected to the centroid (in 1-d, to
    the midpoint), ``distance_to_hull`` returned NaN, and
    ``check_validity`` read ``NaN > tol`` as false: a state with a NaN
    vertex counted as valid.
    """

    SIMPLICES = {
        1: [[0.0], [1.0]],
        2: [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        3: [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    }

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_every_entry_point_raises(self, dim, bad):
        verts = np.array(self.SIMPLICES[dim])
        point = np.full(dim, 0.25)
        point[-1] = bad
        poly = ConvexPolytope.from_points(verts)
        for query in (
            lambda: project_onto_hull(point, verts),
            lambda: distance_to_hull(point, verts),
            lambda: point_in_hull(point, verts),
            lambda: poly.distance_to_point(point),
        ):
            with pytest.raises(ValueError, match="points must be finite"):
                query()

    def test_single_vertex_and_empty_paths_raise_too(self):
        with pytest.raises(ValueError, match="points must be finite"):
            project_onto_hull([np.nan], [[2.0]])
        with pytest.raises(ValueError, match="points must be finite"):
            point_in_hull([np.nan], np.zeros((0, 1)))
