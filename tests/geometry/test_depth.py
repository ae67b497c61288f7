"""Unit tests for Tukey depth (the independent oracle for line 5)."""

import numpy as np
import pytest

from tests.oracles.depth import (
    in_depth_region,
    tukey_depth,
    tukey_depth_1d,
    tukey_depth_2d,
    tukey_depth_sampled,
)


class Test1d:
    def test_median_has_max_depth(self):
        vals = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        assert tukey_depth_1d(2.0, vals) == 3

    def test_extreme_has_depth_one(self):
        vals = np.array([0.0, 1.0, 2.0])
        assert tukey_depth_1d(0.0, vals) == 1

    def test_outside_has_depth_zero(self):
        vals = np.array([0.0, 1.0, 2.0])
        assert tukey_depth_1d(5.0, vals) == 0

    def test_duplicates(self):
        vals = np.array([1.0, 1.0, 1.0])
        assert tukey_depth_1d(1.0, vals) == 3


class Test2d:
    SQUARE5 = np.array([[0, 0], [4, 0], [0, 4], [4, 4], [2, 2]], dtype=float)

    def test_center(self):
        assert tukey_depth_2d([2.0, 2.0], self.SQUARE5) == 3

    def test_corner(self):
        assert tukey_depth_2d([0.0, 0.0], self.SQUARE5) == 1

    def test_interior_but_shallow(self):
        # Regression for the probe-direction bug: (1,1) has depth exactly 1.
        assert tukey_depth_2d([1.0, 1.0], self.SQUARE5) == 1

    def test_outside(self):
        assert tukey_depth_2d([10.0, 10.0], self.SQUARE5) == 0

    def test_coincident_points_count(self):
        pts = np.array([[0, 0], [0, 0], [1, 0], [0, 1]], dtype=float)
        assert tukey_depth_2d([0.0, 0.0], pts) >= 2

    def test_1d_consistency_on_line(self):
        # Points embedded on the x-axis: 2-d depth equals 1-d depth.
        vals = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        pts = np.column_stack([vals, np.zeros(5)])
        for q in (0.0, 1.5, 2.0):
            assert tukey_depth_2d([q, 0.0], pts) == tukey_depth_1d(q, vals)


class TestSampledAndDispatch:
    def test_sampled_upper_bounds_exact(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(12, 2))
        for _ in range(10):
            q = rng.normal(size=2)
            exact = tukey_depth_2d(q, pts)
            sampled = tukey_depth_sampled(q, pts, num_directions=4000, seed=1)
            assert sampled >= exact
            assert sampled - exact <= 1  # dense sampling is near-exact in 2d

    def test_dispatch_matches_dimension(self):
        vals = np.array([[0.0], [1.0], [2.0]])
        assert tukey_depth([1.0], vals) == tukey_depth_1d(1.0, vals[:, 0])

    def test_3d_center_depth(self):
        cube = np.array(
            [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
            dtype=float,
        )
        assert tukey_depth([0.5, 0.5, 0.5], cube) == 4

    def test_in_depth_region(self):
        pts = Test2d.SQUARE5
        assert in_depth_region([2.0, 2.0], pts, 2)
        assert not in_depth_region([1.0, 1.0], pts, 2)


class TestVectorizedSweepMatchesBruteForce:
    """The batched direction sweep must agree with a literal per-direction
    loop (the pre-vectorization implementation) on every probe set."""

    @staticmethod
    def _brute_force(point, points):
        p = np.asarray(point, dtype=float).reshape(-1)
        pts = np.asarray(points, dtype=float)
        rel = pts - p
        norms = np.linalg.norm(rel, axis=1)
        coincident = int(np.sum(norms <= 1e-9))
        rel = rel[norms > 1e-9]
        if rel.shape[0] == 0:
            return coincident
        angles = np.arctan2(rel[:, 1], rel[:, 0])
        critical = np.concatenate([angles + np.pi / 2, angles - np.pi / 2])
        critical = np.unique(np.mod(critical, 2 * np.pi))
        gaps = np.diff(critical, append=critical[0] + 2 * np.pi)
        probes = np.concatenate([critical, critical + gaps / 2.0])
        side_tol = 1e-9 * max(1.0, norms.max())
        best = rel.shape[0]
        for theta in probes:
            u = np.array([np.cos(theta), np.sin(theta)])
            best = min(best, int(np.sum(rel @ u >= -side_tol)))
        return best + coincident

    def test_random_queries(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            pts = rng.normal(size=(int(rng.integers(3, 15)), 2)) * 2.0
            q = rng.normal(size=2) * 2.0
            assert tukey_depth_2d(q, pts) == self._brute_force(q, pts)

    def test_data_point_queries_with_duplicates(self):
        rng = np.random.default_rng(8)
        base = rng.normal(size=(5, 2))
        pts = base[rng.integers(0, 5, size=12)]
        for q in pts[:6]:
            assert tukey_depth_2d(q, pts) == self._brute_force(q, pts)
