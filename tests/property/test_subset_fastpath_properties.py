"""Equivalence suite: depth fast path vs the line-5 enumeration oracle.

PR 4 replaces the ``C(m, f)``-hull enumeration behind
:func:`repro.geometry.intersection.intersect_subset_hulls` with a
polynomial Tukey-depth construction.  These tests are the correctness
contract for that swap: on a few hundred seeded multisets — random,
duplicate-heavy, rank-deficient, translated far off the origin, and
empty-at-the-boundary — the two paths must produce the *same polytope*
(canonical vertex sets within tolerance, emptiness verdicts exactly),
and the memoized path must stay bit-identical to the unmemoized one.
Each path is forced by patching the router ``_takes_depth_path`` inside
the test, so rank-deficient inputs still pass through the chart
projection in front of it.

Every case is deterministic (seeded generators, no hypothesis) so a
failure here is a repro, not a flake.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.geometry import intersection
from repro.geometry.cache import PERF, clear_geometry_caches
from repro.geometry.intersection import (
    intersect_subset_hulls,
    subset_intersection_is_nonempty,
)

# ----------------------------------------------------------------------
# Case generators (all seeded; together they exceed 200 distinct cases)
# ----------------------------------------------------------------------

RANDOM_SEEDS = range(30)
DUP_SEEDS = range(20)
DEFICIENT_SEEDS = range(18)
TRANSLATED_SEEDS = range(12)
BOUNDARY_SEEDS = range(5)


def _random_case(seed: int, d: int):
    """General-position multiset with a feasible (m, f) drawn per seed."""
    rng = np.random.default_rng(1000 * d + seed)
    m = int(rng.integers(d + 2, 10))
    f = int(rng.integers(1, min(3, m)))
    pts = rng.normal(size=(m, d)) * float(rng.uniform(0.5, 3.0))
    return pts, f


def _duplicate_heavy_case(seed: int, d: int):
    """Multiset drawn with repetition from few base points (multiplicity
    is semantically load-bearing for line 5)."""
    rng = np.random.default_rng(2000 * d + seed)
    base = rng.normal(size=(d + 2, d)) * 2.0
    m = int(rng.integers(d + 3, 11))
    pts = base[rng.integers(0, base.shape[0], size=m)]
    f = int(rng.integers(1, 3))
    if m - f < 1:
        f = m - 1
    return pts, f


def _rank_deficient_case(seed: int, d: int):
    """Points confined to a k-flat (k < d) of the ambient space."""
    rng = np.random.default_rng(3000 * d + seed)
    k = int(rng.integers(1, d))
    m = int(rng.integers(k + 3, 10))
    local = rng.normal(size=(m, k)) * 2.0
    basis, _ = np.linalg.qr(rng.normal(size=(d, k)))
    offset = rng.normal(size=d)
    pts = local @ basis.T + offset
    f = int(rng.integers(1, min(3, m)))
    return pts, f


def _translated_case(seed: int, d: int):
    """Unit-extent cluster translated ~1e6 from the origin: every
    tolerance in the pipeline must derive from the data's extent, not its
    coordinate magnitude (deriving span_tol from max |coordinate| made
    the depth path reject every candidate hyperplane and crash on exactly
    this input class)."""
    rng = np.random.default_rng(5000 * d + seed)
    m = int(rng.integers(d + 2, 12))
    f = int(rng.integers(1, min(4, m)))
    shift = rng.choice([-1e6, 1e6], size=d)
    pts = rng.normal(size=(m, d)) + shift
    return pts, f


def _boundary_case(seed: int, d: int, f: int):
    """m = (d+1)f — one point below the Tverberg guarantee: f-fold
    clusters at simplex corners, whose intersection is typically empty."""
    rng = np.random.default_rng(4000 * d + 10 * f + seed)
    corners = rng.normal(size=(d + 1, d)) * 3.0
    pts = np.repeat(corners, f, axis=0)[: (d + 1) * f]
    pts = pts + rng.normal(size=pts.shape) * 1e-3
    return pts, f


# ----------------------------------------------------------------------
# Equivalence predicate
# ----------------------------------------------------------------------

def _vertex_set_hausdorff(va: np.ndarray, vb: np.ndarray) -> float:
    dists = np.linalg.norm(va[:, None, :] - vb[None, :, :], axis=2)
    return float(max(dists.min(axis=1).max(), dists.min(axis=0).max()))


def _canonical(vertices: np.ndarray) -> np.ndarray:
    v = np.asarray(vertices, dtype=float)
    return v[np.lexsort(v.T[::-1])]


@contextmanager
def _forced(depth: bool):
    """Route every full-dimensional call to one path, with cold caches.

    The subset-intersection cache is keyed by ``(points, f)`` alone, so it
    is emptied on the way in and out: neither arm may be served the
    other's entry, and no forced entry may outlive the block.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intersection, "_takes_depth_path", lambda m, f, d: depth)
        clear_geometry_caches()
        try:
            yield
        finally:
            clear_geometry_caches()


def _both_paths(pts, f):
    """The same intersection through each forced path, cold caches."""
    with _forced(depth=True):
        fast = intersect_subset_hulls(pts, f)
        fast_nonempty = subset_intersection_is_nonempty(
            pts, f, use_tverberg_shortcut=False
        )
    with _forced(depth=False):
        oracle = intersect_subset_hulls(pts, f)
        oracle_nonempty = subset_intersection_is_nonempty(
            pts, f, use_tverberg_shortcut=False
        )
    return fast, oracle, fast_nonempty, oracle_nonempty


def _assert_equivalent(pts, f, context: str):
    fast, oracle, fast_ne, oracle_ne = _both_paths(pts, f)
    assert fast.is_empty == oracle.is_empty, (
        f"{context}: emptiness disagrees (depth={fast.is_empty}, "
        f"enumerate={oracle.is_empty})"
    )
    assert fast_ne == oracle_ne, f"{context}: nonemptiness LP disagrees"
    assert fast_ne == (not fast.is_empty), (
        f"{context}: nonemptiness test contradicts the constructed polytope"
    )
    if fast.is_empty:
        return
    # Scale the agreement tolerance by the data's extent about its
    # centroid, not by max |coordinate|: for the translated families the
    # latter is ~1e6 while the region is unit-sized, which would make the
    # vertex comparison vacuously loose (measured path agreement there is
    # ~1e-9, so the extent-scaled tolerance still has ample margin).
    scale = max(1.0, float(np.max(np.abs(pts - pts.mean(axis=0)))))
    # 3-d regions route through Qhull + vertex polishing on both paths,
    # whose agreement is a few ulps worse than the exact 2-d clipping.
    tol = (1e-6 if pts.shape[1] <= 2 else 1e-5) * scale
    gap = _vertex_set_hausdorff(
        _canonical(fast.vertices), _canonical(oracle.vertices)
    )
    assert gap <= tol, (
        f"{context}: vertex sets differ by {gap:.3e} "
        f"(depth {fast.vertices.shape[0]} vs enumerate "
        f"{oracle.vertices.shape[0]} vertices)"
    )


# ----------------------------------------------------------------------
# The suite: 250+ seeded cases across the five families, d = 1, 2, 3
# ----------------------------------------------------------------------

class TestDepthPathMatchesEnumerationOracle:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_random_general_position(self, seed, d):
        pts, f = _random_case(seed, d)
        _assert_equivalent(pts, f, f"random d={d} seed={seed} f={f}")

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("seed", DUP_SEEDS)
    def test_duplicate_heavy(self, seed, d):
        pts, f = _duplicate_heavy_case(seed, d)
        _assert_equivalent(pts, f, f"dup d={d} seed={seed} f={f}")

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", DEFICIENT_SEEDS)
    def test_rank_deficient(self, seed, d):
        pts, f = _rank_deficient_case(seed, d)
        _assert_equivalent(pts, f, f"deficient d={d} seed={seed} f={f}")

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", TRANSLATED_SEEDS)
    def test_translated_cluster(self, seed, d):
        pts, f = _translated_case(seed, d)
        _assert_equivalent(pts, f, f"translated d={d} seed={seed} f={f}")

    @pytest.mark.parametrize("d,f", [(2, 1), (2, 2), (3, 1), (3, 2)])
    @pytest.mark.parametrize("seed", BOUNDARY_SEEDS)
    def test_lemma2_boundary(self, seed, d, f):
        pts, f = _boundary_case(seed, d, f)
        _assert_equivalent(pts, f, f"boundary d={d} seed={seed} f={f}")

    def test_boundary_cases_do_produce_empties(self):
        """The boundary generator must actually exercise the empty branch."""
        empties = 0
        for d, f in [(2, 1), (2, 2), (3, 1), (3, 2)]:
            for seed in BOUNDARY_SEEDS:
                pts, ff = _boundary_case(seed, d, f)
                with _forced(depth=True):
                    empties += int(intersect_subset_hulls(pts, ff).is_empty)
        assert empties >= 10, f"only {empties} empty boundary cases"

    def test_known_empty_simplices(self):
        """Deterministic empties: a simplex at m = (d+1), f = 1 intersects
        its d+1 facets, which share no common point."""
        tri = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        tetra = np.array(
            [[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 3.0]]
        )
        for pts in (tri, tetra):
            fast, oracle, fast_ne, oracle_ne = _both_paths(pts, 1)
            assert fast.is_empty and oracle.is_empty
            assert not fast_ne and not oracle_ne


class TestCacheTransparency:
    """The memoized path must be bit-identical to the unmemoized one."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", range(10))
    def test_cache_on_off_bit_identity(self, seed, d):
        pts, f = _random_case(seed, d)
        m = pts.shape[0]
        with _forced(depth=True):
            cold = intersection._intersect_subset_hulls_uncached(pts, m, d, f)
            miss = intersect_subset_hulls(pts, f)
            hit = intersect_subset_hulls(pts, f)
        assert cold.is_empty == miss.is_empty
        if not cold.is_empty:
            assert cold.vertices.tobytes() == miss.vertices.tobytes()
        assert hit is miss  # the hit returns the interned object itself

    def test_cache_hit_counters(self):
        rng = np.random.default_rng(99)
        pts = rng.normal(size=(8, 2))
        with _forced(depth=True):
            before = PERF.snapshot()
            intersect_subset_hulls(pts, 2)
            intersect_subset_hulls(pts, 2)
            delta = PERF.diff(before)
        assert delta["subset_intersection_calls"] == 2
        assert delta["subset_intersection_cache_hits"] == 1
        assert delta["subset_fast_path_hits"] == 1  # computed only once
