"""Unit tests for convex hull computation, including degenerate inputs."""

import numpy as np
import pytest

from repro.geometry.hull import hull_vertices, hull_vertices_1d, hull_vertices_2d
from tests.oracles.hull import is_extreme_point_set


class TestHull1d:
    def test_basic(self):
        out = hull_vertices_1d(np.array([[3.0], [1.0], [2.0]]))
        assert sorted(out.ravel()) == [1.0, 3.0]

    def test_single_value(self):
        out = hull_vertices_1d(np.array([[2.0], [2.0]]))
        assert out.shape == (1, 1)

    def test_empty(self):
        out = hull_vertices_1d(np.zeros((0, 1)))
        assert out.shape[0] == 0


class TestHull2d:
    def test_square_with_interior(self):
        pts = np.array([[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5]], dtype=float)
        out = hull_vertices_2d(pts)
        assert out.shape == (4, 2)
        assert (0.5, 0.5) not in {tuple(v) for v in out}

    def test_ccw_orientation(self):
        pts = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float)
        ring = hull_vertices_2d(pts)
        area2 = 0.0
        m = ring.shape[0]
        for i in range(m):
            x1, y1 = ring[i]
            x2, y2 = ring[(i + 1) % m]
            area2 += x1 * y2 - x2 * y1
        assert area2 > 0  # CCW rings have positive signed area

    def test_collinear_returns_segment(self):
        pts = np.array([[0, 0], [1, 1], [2, 2], [3, 3]], dtype=float)
        out = hull_vertices_2d(pts)
        assert out.shape[0] == 2

    def test_boundary_collinear_points_dropped(self):
        pts = np.array([[0, 0], [1, 0], [2, 0], [2, 2], [0, 2]], dtype=float)
        out = hull_vertices_2d(pts)
        assert out.shape[0] == 4  # (1,0) is on the bottom edge

    def test_duplicates(self):
        pts = np.array([[0, 0], [0, 0], [1, 0], [1, 0], [0, 1]], dtype=float)
        out = hull_vertices_2d(pts)
        assert out.shape[0] == 3


class TestHullGeneral:
    def test_matches_2d_fast_path(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(30, 2))
        fast = {tuple(np.round(v, 9)) for v in hull_vertices_2d(pts)}
        general = {tuple(np.round(v, 9)) for v in hull_vertices(pts)}
        assert fast == general

    def test_3d_cube(self):
        corners = np.array(
            [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
            dtype=float,
        )
        inner = np.vstack([corners, [[0.5, 0.5, 0.5]]])
        out = hull_vertices(inner)
        assert out.shape == (8, 3)

    def test_collinear_in_3d(self):
        pts = np.outer(np.linspace(-1, 1, 7), [1.0, 2.0, -1.0])
        out = hull_vertices(pts)
        assert out.shape[0] == 2
        norms = np.linalg.norm(out, axis=1)
        assert norms.max() == pytest.approx(np.linalg.norm([1.0, 2.0, -1.0]))

    def test_planar_in_3d(self):
        rng = np.random.default_rng(1)
        basis = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        pts = rng.uniform(-1, 1, size=(20, 2)) @ basis
        out = hull_vertices(pts)
        # All hull vertices must be original points of the planar set.
        for v in out:
            assert np.min(np.linalg.norm(pts - v, axis=1)) < 1e-9

    def test_single_point(self):
        out = hull_vertices([[1.0, 2.0, 3.0]])
        assert out.shape == (1, 3)

    def test_all_coincident(self):
        pts = np.tile([2.0, 3.0], (5, 1))
        out = hull_vertices(pts)
        assert out.shape == (1, 2)

    def test_empty(self):
        out = hull_vertices(np.zeros((0, 2)))
        assert out.shape[0] == 0

    def test_simplex_all_extreme(self):
        pts = np.vstack([np.zeros(4), np.eye(4)])
        out = hull_vertices(pts)
        assert out.shape == (5, 4)

    def test_minimality_4d(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(30, 4))
        out = hull_vertices(pts)
        assert is_extreme_point_set(out)

    def test_interior_points_removed_1d(self):
        out = hull_vertices(np.array([[0.0], [0.25], [0.5], [1.0]]))
        assert out.shape == (2, 1)


class TestIsExtremePointSet:
    def test_detects_interior_point(self):
        pts = np.array([[0, 0], [1, 0], [0, 1], [0.2, 0.2]], dtype=float)
        assert not is_extreme_point_set(pts)

    def test_accepts_extreme_set(self):
        pts = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
        assert is_extreme_point_set(pts)

    def test_single_point(self):
        assert is_extreme_point_set(np.array([[1.0, 1.0]]))
