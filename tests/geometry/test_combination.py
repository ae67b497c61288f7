"""Unit tests for the polytope combination L (Definition 2)."""

import numpy as np
import pytest

from repro.geometry.combination import (
    MAX_INTERMEDIATE_VERTICES,
    equal_weight_combination,
    linear_combination,
    stochastic_row_combination,
    validate_weights,
)
from repro.geometry.errors import DimensionMismatchError, EmptyPolytopeError
from repro.geometry.polytope import ConvexPolytope


def tri(offset=(0.0, 0.0), scale=1.0):
    base = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
    return ConvexPolytope.from_points(base * scale + np.asarray(offset))


def regular_polygon(k, phase=0.0):
    angles = phase + 2 * np.pi * np.arange(k) / k
    return ConvexPolytope.from_points(np.column_stack([np.cos(angles), np.sin(angles)]))


class TestValidateWeights:
    def test_valid(self):
        w = validate_weights([0.25, 0.75], 2)
        assert w.sum() == pytest.approx(1.0)

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            validate_weights([1.0], 2)

    def test_negative(self):
        with pytest.raises(ValueError):
            validate_weights([1.5, -0.5], 2)

    def test_not_normalised(self):
        with pytest.raises(ValueError):
            validate_weights([0.5, 0.6], 2)


class TestIntervals:
    def test_interval_arithmetic(self):
        a = ConvexPolytope.from_interval(0.0, 2.0)
        b = ConvexPolytope.from_interval(10.0, 14.0)
        out = linear_combination([a, b], [0.5, 0.5])
        assert out.interval() == (5.0, 8.0)

    def test_single_operand_identity(self):
        a = ConvexPolytope.from_interval(-1.0, 3.0)
        out = linear_combination([a], [1.0])
        assert out.interval() == (-1.0, 3.0)

    def test_point_intervals(self):
        a = ConvexPolytope.from_interval(1.0, 1.0)
        b = ConvexPolytope.from_interval(3.0, 3.0)
        out = linear_combination([a, b], [0.25, 0.75])
        lo, hi = out.interval()
        assert lo == pytest.approx(2.5)
        assert hi == pytest.approx(2.5)


class Test2d:
    def test_translation_by_point_operand(self):
        a = tri()
        b = ConvexPolytope.singleton([10.0, 10.0])
        out = linear_combination([a, b], [0.5, 0.5])
        expected = ConvexPolytope.from_points(a.vertices * 0.5 + 5.0)
        assert out.approx_equal(expected)

    def test_identical_operands_reproduce(self):
        a = tri()
        out = equal_weight_combination([a, a, a])
        assert out.approx_equal(a)

    def test_membership_definition(self):
        # Every combination sum(c_i p_i) with p_i in h_i must be inside L.
        rng = np.random.default_rng(0)
        polys = [tri(), tri((2, 1), 2.0), tri((-1, 3), 0.5)]
        weights = [0.2, 0.5, 0.3]
        out = linear_combination(polys, weights)
        for _ in range(50):
            point = np.zeros(2)
            for poly, c in zip(polys, weights):
                lam = rng.dirichlet(np.ones(poly.num_vertices))
                point += c * (lam @ poly.vertices)
            assert out.contains_point(point, tol=1e-8)

    def test_extreme_points_attained(self):
        # Conversely every vertex of L decomposes into operand points.
        polys = [tri(), tri((3, 0))]
        out = linear_combination(polys, [0.5, 0.5])
        for v in out.vertices:
            # support decomposition: v = 0.5 p0 + 0.5 p1 with p_i in h_i
            # => 2v - p0 must be in h1 for some vertex p0.
            found = any(
                polys[1].contains_point(2 * v - p0, tol=1e-7)
                for p0 in polys[0].vertices
            )
            assert found

    def test_zero_weight_skips_operand(self):
        a, b = tri(), tri((100, 100))
        out = linear_combination([a, b], [1.0, 0.0])
        assert out.approx_equal(a)

    def test_weights_shift_toward_heavier_operand(self):
        a, b = tri(), tri((10, 0))
        heavy_b = linear_combination([a, b], [0.1, 0.9])
        assert heavy_b.centroid[0] > 8.0

    def test_large_product_hulls_every_candidate(self):
        # 60 x 60 = 3,600 candidate sums, hulled in one shot.
        a, b = regular_polygon(60), regular_polygon(60, phase=0.01)
        out = linear_combination([a, b], [0.5, 0.5])
        assert out.num_vertices <= 120
        sums = (0.5 * a.vertices[:, None, :] + 0.5 * b.vertices[None, :, :]).reshape(-1, 2)
        assert np.max(out.violation(sums)) <= 1e-9

    def test_product_above_the_cap_raises(self):
        a, b = regular_polygon(320), regular_polygon(320, phase=0.003)
        assert a.num_vertices * b.num_vertices > MAX_INTERMEDIATE_VERTICES
        with pytest.raises(MemoryError):
            linear_combination([a, b], [0.5, 0.5])


class TestErrors:
    def test_empty_operand(self):
        with pytest.raises(EmptyPolytopeError):
            linear_combination([tri(), ConvexPolytope.empty(2)], [0.5, 0.5])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linear_combination(
                [tri(), ConvexPolytope.from_interval(0, 1)], [0.5, 0.5]
            )

    def test_no_operands(self):
        with pytest.raises(ValueError):
            linear_combination([], [])

    def test_all_zero_weights(self):
        with pytest.raises(ValueError):
            linear_combination([tri()], [0.0])


class TestMatrixRowForm:
    def test_row_with_zeros(self):
        polys = [tri(), tri((5, 5)), tri((-5, 0))]
        row = [0.5, 0.5, 0.0]
        out = stochastic_row_combination(row, polys)
        expected = linear_combination(polys[:2], [0.5, 0.5])
        assert out.approx_equal(expected)

    def test_equal_weight_helper(self):
        polys = [tri(), tri((1, 1))]
        assert equal_weight_combination(polys).approx_equal(
            linear_combination(polys, [0.5, 0.5])
        )

    def test_equal_weight_empty_list(self):
        with pytest.raises(ValueError):
            equal_weight_combination([])


class Test3d:
    def test_convexity_and_dimension(self):
        rng = np.random.default_rng(1)
        polys = [
            ConvexPolytope.from_points(rng.normal(size=(6, 3)))
            for _ in range(3)
        ]
        out = linear_combination(polys, [1 / 3] * 3)
        assert out.dim == 3
        assert not out.is_empty
        # Centroid mixture is a member.
        mix = sum(p.centroid for p in polys) / 3
        assert out.contains_point(mix, tol=1e-7)
