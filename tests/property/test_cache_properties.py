"""Property tests: memoized geometry is bit-identical to unmemoized.

The cache layer's contract is absolute: for every input, the cached path
must return *the same bytes* as the computation behind it — not
approximately equal vertices, the identical float64 array.
Content-addressed keys make this true by construction (a cached value was
computed by the same code on the same bytes); these tests enforce the
contract end to end through both memoized primitives, including on warm
caches where results are served without recomputation.  The reference is
the primitive's computation called directly, past the cache.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.geometry import intersection
from repro.geometry.cache import clear_geometry_caches
from repro.geometry.combination import (
    _combine_minkowski,
    linear_combination,
    validate_weights,
)
from repro.geometry.intersection import intersect_subset_hulls
from repro.geometry.polytope import ConvexPolytope

finite_floats = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


@pytest.fixture(autouse=True)
def _cold_cache():
    clear_geometry_caches()
    yield
    clear_geometry_caches()


def points(min_rows, max_rows, dims=st.integers(1, 3)):
    return dims.flatmap(
        lambda d: st.integers(min_rows, max_rows).flatmap(
            lambda m: hnp.arrays(np.float64, (m, d), elements=finite_floats)
        )
    )


@st.composite
def polytope_list(draw, min_polys=1, max_polys=4):
    dim = draw(st.integers(1, 3))
    count = draw(st.integers(min_polys, max_polys))
    polys = []
    for _ in range(count):
        m = draw(st.integers(1, 6))
        pts = draw(hnp.arrays(np.float64, (m, dim), elements=finite_floats))
        polys.append(ConvexPolytope.from_points(pts))
    return polys


@st.composite
def weights_for_count(draw, count):
    raw = draw(
        st.lists(st.floats(0.01, 1.0, allow_nan=False),
                 min_size=count, max_size=count)
    )
    total = sum(raw)
    return [w / total for w in raw]


def assert_same_bytes(a: np.ndarray, b: np.ndarray, what: str):
    assert a.dtype == b.dtype, what
    assert a.shape == b.shape, what
    assert a.tobytes() == b.tobytes(), f"{what}: cached result diverged"


def uncached_combination(polys, weights):
    """``linear_combination``'s computation, called past the cache."""
    if polys[0].dim == 1:  # intervals are never cached
        return linear_combination(polys, weights)
    w = validate_weights(weights, len(polys))
    active = [(p, float(c)) for p, c in zip(polys, w)]
    return _combine_minkowski(active, polys[0].dim)


class TestSubsetIntersectionIdentity:
    @given(points(3, 8, dims=st.integers(1, 2)), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_cached_equals_uncached(self, pts, f):
        if pts.shape[0] <= f:
            f = pts.shape[0] - 1
        m, d = pts.shape
        reference = intersection._intersect_subset_hulls_uncached(pts, m, d, f)
        clear_geometry_caches()
        cold = intersect_subset_hulls(pts, f)
        warm = intersect_subset_hulls(pts, f)
        for result, label in ((cold, "cold"), (warm, "warm")):
            assert result.is_empty == reference.is_empty
            if not reference.is_empty:
                assert_same_bytes(
                    reference.vertices, result.vertices,
                    f"subset intersection ({label} cache)",
                )


class TestCombinationIdentity:
    @given(polytope_list(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_cached_equals_uncached(self, polys, data):
        weights = data.draw(weights_for_count(len(polys)))
        reference = uncached_combination(polys, weights)
        clear_geometry_caches()
        cold = linear_combination(polys, weights)
        warm = linear_combination(polys, weights)
        assert_same_bytes(
            reference.vertices, cold.vertices, "combination (cold cache)"
        )
        assert_same_bytes(
            reference.vertices, warm.vertices, "combination (warm cache)"
        )

    @given(polytope_list(min_polys=2, max_polys=3), st.data())
    @settings(max_examples=20, deadline=None)
    def test_operand_order_respected(self, polys, data):
        """Permuted operands must NOT be served from one shared entry.

        Float addition is order-sensitive, so the cache keys on the exact
        operand sequence; a canonicalising cache could silently change
        results for reordered (but mathematically equal) calls.
        """
        weights = data.draw(weights_for_count(len(polys)))
        perm = list(range(len(polys)))[::-1]
        forward = linear_combination(polys, weights)
        backward = linear_combination(
            [polys[i] for i in perm], [weights[i] for i in perm]
        )
        backward_ref = uncached_combination(
            [polys[i] for i in perm], [weights[i] for i in perm]
        )
        # The cached permuted call must match ITS OWN uncached result —
        # not the forward one — byte for byte.
        assert_same_bytes(
            backward.vertices, backward_ref.vertices, "permuted combination"
        )
        assert forward.dim == backward.dim
