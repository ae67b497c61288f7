"""Unit tests for the Tukey-depth subset-intersection fast path.

Covers the pieces the property suite
(``tests/property/test_subset_fastpath_properties.py``) exercises only
end-to-end: the cost-rule routing, the candidate-halfspace generator's
validation and counters, and the Tverberg short-circuit in the
nonemptiness test.
"""

import numpy as np
import pytest

from repro.geometry import intersection
from repro.geometry.cache import PERF, clear_geometry_caches
from repro.geometry.errors import DegenerateInputError
from repro.geometry.halfspaces import vertices_of_halfspace_system
from repro.geometry.intersection import (
    depth_region_halfspaces,
    intersect_subset_hulls,
    subset_count,
    subset_intersection_is_nonempty,
    subset_mode,
)


@pytest.fixture(autouse=True)
def _fresh_state():
    clear_geometry_caches()
    yield
    clear_geometry_caches()


class TestModeSelection:
    def test_default_mode_is_auto(self, monkeypatch):
        # The harness's switch check: the cost rule is the only router,
        # and the retired REPRO_SUBSET_MODE variable is not read.
        monkeypatch.setenv("REPRO_SUBSET_MODE", "enumerate")
        assert subset_mode() == "auto"


class TestAutoRouting:
    """``auto`` takes the depth path exactly when C(m, f) > C(m, d)."""

    def _fast_hits(self, pts, f):
        clear_geometry_caches()
        before = PERF.snapshot()
        intersect_subset_hulls(pts, f)
        return PERF.diff(before)["subset_fast_path_hits"]

    def test_routes_to_depth_when_enumeration_larger(self):
        pts = np.random.default_rng(1).normal(size=(12, 2))
        assert subset_count(12, 5) > subset_count(12, 2)
        assert self._fast_hits(pts, 5) == 1

    def test_routes_to_enumeration_when_smaller(self):
        pts = np.random.default_rng(1).normal(size=(8, 2))
        assert subset_count(8, 1) < subset_count(8, 2)
        assert self._fast_hits(pts, 1) == 0

    def test_forced_depth_ignores_cost_rule(self, monkeypatch):
        pts = np.random.default_rng(1).normal(size=(8, 2))
        monkeypatch.setattr(intersection, "_takes_depth_path", lambda m, f, d: True)
        assert self._fast_hits(pts, 1) == 1

    def test_forced_enumerate_ignores_cost_rule(self, monkeypatch):
        pts = np.random.default_rng(1).normal(size=(12, 2))
        monkeypatch.setattr(intersection, "_takes_depth_path", lambda m, f, d: False)
        assert self._fast_hits(pts, 5) == 0


class TestDepthRegionHalfspaces:
    def test_rejects_dimension_below_two(self):
        with pytest.raises(ValueError, match="dimension >= 2"):
            depth_region_halfspaces(np.zeros((4, 1)), 1)

    def test_rejects_out_of_range_f(self):
        pts = np.random.default_rng(2).normal(size=(5, 2))
        with pytest.raises(ValueError, match="0 <= f <= m - 1"):
            depth_region_halfspaces(pts, 5)
        with pytest.raises(ValueError, match="0 <= f <= m - 1"):
            depth_region_halfspaces(pts, -1)

    def test_degenerate_input_raises(self):
        # Coincident points span no hyperplane at all; callers must
        # chart-project degenerate multisets before calling.
        pts = np.ones((4, 2)) * 2.5
        with pytest.raises(DegenerateInputError):
            depth_region_halfspaces(pts, 1)

    def test_f_zero_system_is_the_hull(self):
        square = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
        a, b = depth_region_halfspaces(square, 0)
        # Every input point satisfies the system (it describes conv(X)) ...
        assert np.all(square @ a.T <= b[None, :] + 1e-9)
        # ... and its vertices are exactly the square's corners.
        verts = vertices_of_halfspace_system(a, b)
        got = {tuple(np.round(v, 9)) for v in verts}
        assert got == {(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)}

    def test_system_is_bounded_region(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(10, 2)) * 3.0
        a, b = depth_region_halfspaces(pts, 1)
        verts = vertices_of_halfspace_system(a, b)
        assert verts.shape[0] >= 1
        assert float(np.abs(verts).max()) <= 2 * float(np.abs(pts).max())

    def test_perf_counters_advance(self):
        pts = np.random.default_rng(4).normal(size=(9, 2))
        before = PERF.snapshot()
        depth_region_halfspaces(pts, 2)
        delta = PERF.diff(before)
        assert delta["depth_halfspace_candidates"] > 0
        assert 0 < delta["depth_halfspaces_kept"] <= delta["depth_halfspace_candidates"]

    def test_block_size_does_not_change_result(self):
        # Blocking changes only the order rows are generated in, never the
        # region they describe.
        pts = np.random.default_rng(5).normal(size=(11, 2))
        a1, b1 = depth_region_halfspaces(pts, 2)
        a2, b2 = depth_region_halfspaces(pts, 2, block=7)
        sys1 = sorted(map(tuple, np.round(np.column_stack([a1, b1]), 9)))
        sys2 = sorted(map(tuple, np.round(np.column_stack([a2, b2]), 9)))
        assert sys1 == sys2


class TestAutoRoutingNonemptiness:
    """The nonemptiness LP applies the same cost rule as the constructor."""

    def _fast_hits(self, pts, f):
        clear_geometry_caches()
        before = PERF.snapshot()
        subset_intersection_is_nonempty(pts, f, use_tverberg_shortcut=False)
        return PERF.diff(before)["subset_fast_path_hits"]

    def test_routes_to_enumeration_when_smaller(self):
        pts = np.random.default_rng(1).normal(size=(8, 2))
        assert subset_count(8, 1) < subset_count(8, 2)
        assert self._fast_hits(pts, 1) == 0

    def test_routes_to_depth_when_enumeration_larger(self):
        pts = np.random.default_rng(1).normal(size=(8, 2))
        assert subset_count(8, 5) > subset_count(8, 2)
        assert self._fast_hits(pts, 5) == 1


class TestTranslatedData:
    """Tolerance scales must derive from the data's *extent*, not its
    coordinate magnitude: deriving span_tol from max |coordinate| made
    depth_region_halfspaces reject every candidate hyperplane for a unit
    cluster translated to ~1e6 and raise DegenerateInputError."""

    def test_translated_cluster_does_not_crash(self):
        # The exact crash configuration: m=12, d=3, f=4, N(0,1) + 1e6,
        # default auto mode (C(12,4) = 495 > C(12,3) = 220 routes depth).
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(12, 3)) + 1e6
        poly = intersect_subset_hulls(pts, 4)
        nonempty = subset_intersection_is_nonempty(
            pts, 4, use_tverberg_shortcut=False
        )
        assert nonempty == (not poly.is_empty)

    def test_kept_system_is_translation_invariant(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(9, 2))
        a0, b0 = depth_region_halfspaces(pts, 2)
        shift = np.array([1e6, -1e6])
        a1, b1 = depth_region_halfspaces(pts + shift, 2)
        assert a0.shape == a1.shape
        np.testing.assert_allclose(a1, a0, atol=1e-9)
        np.testing.assert_allclose(b1 - a1 @ shift, b0, atol=1e-6)


class TestTverbergShortcut:
    def test_shortcut_answers_without_geometry(self):
        # m = 10 >= (2+1)*3 + 1: guaranteed non-empty by Tverberg.
        pts = np.random.default_rng(6).normal(size=(10, 2))
        before = PERF.snapshot()
        assert subset_intersection_is_nonempty(pts, 3)
        delta = PERF.diff(before)
        assert delta["subset_fast_path_hits"] == 0
        assert delta["depth_halfspace_candidates"] == 0

    def test_disable_flag_forces_the_lp(self):
        pts = np.random.default_rng(6).normal(size=(10, 2))
        before = PERF.snapshot()
        assert subset_intersection_is_nonempty(
            pts, 3, use_tverberg_shortcut=False
        )
        assert PERF.diff(before)["subset_fast_path_hits"] == 1

    def test_below_guarantee_detects_emptiness(self):
        # A triangle with f = 1 intersects its three edges: empty.
        tri = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        assert not subset_intersection_is_nonempty(tri, 1)
        assert not subset_intersection_is_nonempty(
            tri, 1, use_tverberg_shortcut=False
        )

    def test_f_zero_and_undersized_multisets(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert subset_intersection_is_nonempty(pts, 0)
        assert not subset_intersection_is_nonempty(pts, 2)
        # A negative f is rejected, not answered by the Tverberg shortcut
        # (m >= (d+1)f + 1 holds for every f < 0), exactly as
        # intersect_subset_hulls rejects it.
        six = np.random.default_rng(6).normal(size=(6, 2))
        for check in (subset_intersection_is_nonempty, intersect_subset_hulls):
            with pytest.raises(ValueError, match="f must be non-negative, got -1"):
                check(six, -1)
