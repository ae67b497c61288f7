"""Unit tests for the Hausdorff bound-and-prune kernels (repro.geometry.batch)."""

import numpy as np
import pytest

from repro.geometry.batch import (
    batch_directed_hausdorff,
    batch_disagreement_diameter,
    batch_enabled,
)
from repro.geometry.cache import PERF
from repro.geometry.errors import DimensionMismatchError, EmptyPolytopeError
from repro.geometry.hausdorff import (
    directed_hausdorff,
    disagreement_diameter,
    hausdorff_distance,
)
from repro.geometry.polytope import ConvexPolytope
from tests.oracles.hausdorff import (
    directed_hausdorff_scalar,
    disagreement_diameter_scalar,
    hausdorff_distance_scalar,
)


def square(offset=(0.0, 0.0), side=1.0):
    base = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float) * side
    return ConvexPolytope.from_points(base + np.asarray(offset))


def random_polys(k, d, seed, verts=10):
    rng = np.random.default_rng(seed)
    return [
        ConvexPolytope.from_points(
            rng.normal(size=(verts, d)) * rng.uniform(0.5, 2.0)
        )
        for _ in range(k)
    ]


class TestSwitch:
    def test_default_on(self, monkeypatch):
        # The harness's switch check: the kernels have no off setting,
        # and the retired REPRO_GEOMETRY_BATCH variable is not read.
        monkeypatch.setenv("REPRO_GEOMETRY_BATCH", "0")
        assert batch_enabled()


class TestBatchHausdorff:
    def test_identical_content_short_circuits(self):
        a = square()
        b = ConvexPolytope.from_points(a.vertices.copy())
        assert batch_directed_hausdorff(a, b) == 0.0

    def test_translation_exact(self):
        assert hausdorff_distance(
            square(), square(offset=(0.0, 3.0))
        ) == hausdorff_distance_scalar(square(), square(offset=(0.0, 3.0)))

    def test_errors_match_scalar(self):
        with pytest.raises(EmptyPolytopeError):
            batch_directed_hausdorff(square(), ConvexPolytope.empty(2))
        with pytest.raises(DimensionMismatchError):
            batch_directed_hausdorff(square(), ConvexPolytope.from_interval(0, 1))

    def test_prunes_are_counted(self):
        polys = random_polys(8, 3, seed=3)
        before = PERF.batch_hausdorff_pairs
        d_batch = batch_disagreement_diameter(polys)
        assert PERF.batch_hausdorff_pairs > before
        assert d_batch == disagreement_diameter_scalar(polys)

    def test_diameter_trivial_sizes(self):
        assert batch_disagreement_diameter([]) == 0.0
        assert batch_disagreement_diameter([square()]) == 0.0

    def test_diameter_all_identical(self):
        s = square()
        copies = [ConvexPolytope.from_points(s.vertices.copy()) for _ in range(4)]
        assert batch_disagreement_diameter(copies) == 0.0

    def test_diameter_with_empty_raises(self):
        with pytest.raises(EmptyPolytopeError):
            batch_disagreement_diameter([square(), ConvexPolytope.empty(2)])
        with pytest.raises(EmptyPolytopeError):
            batch_disagreement_diameter(
                [ConvexPolytope.empty(2), ConvexPolytope.empty(2)]
            )

    def test_diameter_with_mixed_dims_raises(self):
        with pytest.raises(DimensionMismatchError):
            batch_disagreement_diameter(
                [square(), ConvexPolytope.from_interval(0, 1)]
            )

    def test_public_entry_points_match_oracles(self):
        a, b = random_polys(2, 2, seed=4)
        assert directed_hausdorff(a, b) == directed_hausdorff_scalar(a, b)
        assert hausdorff_distance(a, b) == hausdorff_distance_scalar(a, b)
        assert disagreement_diameter([a, b]) == disagreement_diameter_scalar(
            [a, b]
        )
