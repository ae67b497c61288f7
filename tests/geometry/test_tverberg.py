"""Unit tests for Radon/Tverberg machinery (Lemma 2 support)."""

import numpy as np
import pytest

from repro.geometry.projection import point_in_hull
from tests.oracles.tverberg import (
    common_point_of_hulls,
    radon_partition,
    tverberg_partition,
    tverberg_partition_1d,
    verify_tverberg_partition,
)


class TestRadon:
    def test_four_points_in_plane(self):
        pts = np.array([[0, 0], [2, 0], [0, 2], [0.5, 0.5]], dtype=float)
        part_a, part_b, point = radon_partition(pts)
        assert set(part_a) | set(part_b) <= set(range(4))
        assert point_in_hull(point, pts[part_a])
        assert point_in_hull(point, pts[part_b])

    def test_random_instances(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 3):
            for _ in range(5):
                pts = rng.normal(size=(d + 2, d))
                a, b, point = radon_partition(pts)
                assert point_in_hull(point, pts[a], tol=1e-6)
                assert point_in_hull(point, pts[b], tol=1e-6)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            radon_partition(np.zeros((3, 2)))


class Test1dPartition:
    def test_three_points_two_parts(self):
        groups = tverberg_partition_1d([0.0, 1.0, 2.0], 2)
        assert len(groups) == 2
        witness = verify_tverberg_partition(
            np.array([[0.0], [1.0], [2.0]]), groups
        )
        assert witness is not None

    def test_many_points(self):
        vals = np.arange(9, dtype=float)
        groups = tverberg_partition_1d(vals, 4)
        witness = verify_tverberg_partition(vals.reshape(-1, 1), groups)
        assert witness is not None

    def test_too_few(self):
        with pytest.raises(ValueError):
            tverberg_partition_1d([0.0, 1.0], 3)


class TestCommonPoint:
    def test_disjoint_hulls_return_none(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[5.0, 5.0], [6.0, 5.0]])
        assert common_point_of_hulls([a, b]) is None

    def test_overlapping_hulls(self):
        a = np.array([[0, 0], [2, 0], [0, 2]], dtype=float)
        b = np.array([[1, 1], [3, 1], [1, 3]], dtype=float)
        point = common_point_of_hulls([a, b])
        assert point is not None
        assert point_in_hull(point, a, tol=1e-6)
        assert point_in_hull(point, b, tol=1e-6)

    def test_empty_list(self):
        with pytest.raises(ValueError):
            common_point_of_hulls([])


class TestTverbergPartition:
    def test_at_bound_2d(self):
        # (d+1)(r-1)+1 = 7 points, r=3 parts, d=2.
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(7, 2))
        groups, witness = tverberg_partition(pts, 3, seed=0)
        assert len(groups) == 3
        for g in groups:
            assert point_in_hull(witness, pts[g], tol=1e-6)

    def test_parts_two_uses_radon(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(5, 3))
        groups, witness = tverberg_partition(pts, 2)
        assert len(groups) == 2

    def test_1d_exact(self):
        pts = np.linspace(0, 1, 7).reshape(-1, 1)
        groups, witness = tverberg_partition(pts, 3)
        for g in groups:
            assert point_in_hull(witness, pts[g], tol=1e-9)

    def test_single_part(self):
        pts = np.random.default_rng(3).normal(size=(4, 2))
        groups, _ = tverberg_partition(pts, 1)
        assert groups == [list(range(4))]

    def test_below_bound_raises(self):
        with pytest.raises(ValueError):
            tverberg_partition(np.zeros((5, 2)), 3)  # needs 7

    def test_partition_is_exact_cover(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(10, 2))
        groups, _ = tverberg_partition(pts, 3, seed=1)
        flat = sorted(i for g in groups for i in g)
        assert flat == list(range(10))


class TestVerify:
    def test_rejects_non_partition(self):
        pts = np.zeros((4, 2))
        with pytest.raises(ValueError):
            verify_tverberg_partition(pts, [[0, 1], [2]])  # misses 3

    def test_none_for_empty_group(self):
        pts = np.random.default_rng(5).normal(size=(4, 2))
        assert verify_tverberg_partition(pts, [[0, 1, 2, 3], []]) is None
