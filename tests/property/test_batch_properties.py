"""Bit-identity of the Hausdorff bound-and-prune kernels against the oracles.

The kernels' contract (see :mod:`repro.geometry.hausdorff`) is *exact* ``==``
equality with the exhaustive scalar scans in ``tests/oracles/`` — not
approximate agreement.  These suites drive both over seeded random,
duplicate-heavy, degenerate, and adversarially-scaled inputs and assert
float-for-float identical results, through the kernels and through the
public entry points of :mod:`repro.geometry.hausdorff`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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

finite_floats = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


def poly_strategy(dims=(1, 2, 3), max_points=10):
    return st.integers(min_value=min(dims), max_value=max(dims)).flatmap(
        lambda d: hnp.arrays(
            np.float64,
            st.tuples(st.integers(min_value=1, max_value=max_points), st.just(d)),
            elements=finite_floats,
        ).map(ConvexPolytope.from_points)
    )


def poly_family(d, k, seed, *, dupes=False, degenerate=False):
    """Seeded family of k polytopes in one dimension, optionally degenerate."""
    rng = np.random.default_rng(seed)
    polys = []
    for i in range(k):
        m = int(rng.integers(1, 11))
        pts = rng.normal(size=(m, d)) * rng.uniform(0.1, 10.0)
        if degenerate and i % 3 == 0:
            pts[:, -1] = pts[0, -1]  # collapse one coordinate
        polys.append(ConvexPolytope.from_points(pts))
    if dupes:
        polys += [
            ConvexPolytope.from_points(polys[i % len(polys)].vertices.copy())
            for i in range(max(1, k // 2))
        ]
    return polys


class TestDirectedIdentity:
    @given(poly_strategy(), poly_strategy())
    @settings(max_examples=80, deadline=None)
    def test_directed_bit_identical(self, a, b):
        if a.dim != b.dim:
            with pytest.raises(Exception):
                directed_hausdorff(a, b)
            return
        assert directed_hausdorff(a, b) == directed_hausdorff_scalar(a, b)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_seeded_families(self, d, seed):
        polys = poly_family(d, 6, seed * 31 + d)
        for a in polys:
            for b in polys:
                assert directed_hausdorff(a, b) == directed_hausdorff_scalar(
                    a, b
                ), (a.vertices, b.vertices)

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e6])
    def test_extreme_scales(self, scale):
        rng = np.random.default_rng(9)
        a = ConvexPolytope.from_points(rng.normal(size=(8, 2)) * scale)
        b = ConvexPolytope.from_points(rng.normal(size=(8, 2)) * scale)
        assert directed_hausdorff(a, b) == directed_hausdorff_scalar(a, b)
        assert hausdorff_distance(a, b) == hausdorff_distance_scalar(a, b)


class TestDiameterIdentity:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_seeded_families(self, d, seed):
        polys = poly_family(d, 7, seed * 17 + d, dupes=True)
        assert disagreement_diameter(polys) == disagreement_diameter_scalar(
            polys
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_degenerate_members(self, seed):
        polys = poly_family(3, 6, seed + 100, degenerate=True, dupes=True)
        assert disagreement_diameter(polys) == disagreement_diameter_scalar(
            polys
        )

    def test_near_tie_pairs(self):
        # Families engineered so several pairs are within the prune margin
        # of the maximum: translated copies at equal spacing.
        base = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
        polys = [
            ConvexPolytope.from_points(base + np.array([k * 2.0, 0.0]))
            for k in range(5)
        ]
        assert disagreement_diameter(polys) == disagreement_diameter_scalar(
            polys
        )


class TestDispatchIdentity:
    """The public entry points return the oracles' floats."""

    @pytest.mark.parametrize("seed", range(8))
    def test_public_api_both_settings(self, seed):
        # The two settings compared: the production kernels behind the
        # public entry points, and the exhaustive scalar oracles.
        polys = poly_family(2, 5, seed + 500, dupes=True)
        assert disagreement_diameter(polys) == disagreement_diameter_scalar(polys)
        assert hausdorff_distance(polys[0], polys[1]) == hausdorff_distance_scalar(
            polys[0], polys[1]
        )
        assert directed_hausdorff(polys[0], polys[1]) == directed_hausdorff_scalar(
            polys[0], polys[1]
        )
