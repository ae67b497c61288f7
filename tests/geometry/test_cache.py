"""Unit tests for the geometry memoization layer (cache.py).

Covers the LRU mechanics, the shared lookup path of the memoized
primitives (subset intersection and combination), counter accounting,
and the read-only discipline of shared results.
"""

import numpy as np
import pytest

from repro.geometry.cache import (
    COMBINATION_CACHE,
    PERF,
    SUBSET_CACHE,
    LruCache,
    _REGISTRY,
    array_key,
    clear_geometry_caches,
)
from repro.geometry.combination import linear_combination
from repro.geometry.intersection import intersect_subset_hulls
from repro.geometry.polytope import ConvexPolytope


@pytest.fixture(autouse=True)
def _cold_cache():
    """Each test starts with cold caches."""
    clear_geometry_caches()
    yield
    clear_geometry_caches()


class TestLruCache:
    def test_get_put_roundtrip(self):
        cache = LruCache(maxsize=4, name="t")
        assert cache.get("k") is None
        assert cache.get("k", 7) == 7
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert "k" in cache
        assert len(cache) == 1

    def test_eviction_drops_least_recently_used(self):
        cache = LruCache(maxsize=2, name="t")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a" — "b" becomes the LRU entry
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.evictions == 1

    def test_put_existing_key_refreshes_without_evicting(self):
        cache = LruCache(maxsize=2, name="t")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # overwrite: no growth, "b" stays
        assert len(cache) == 2
        assert cache.evictions == 0
        assert cache.get("a") == 10
        assert cache.get("b") == 2

    def test_size_bound_holds_under_churn(self):
        cache = LruCache(maxsize=8, name="t")
        for i in range(100):
            cache.put(i, i)
        assert len(cache) == 8
        assert cache.evictions == 92
        assert all(i in cache for i in range(92, 100))

    def test_clear_keeps_eviction_count(self):
        cache = LruCache(maxsize=1, name="t")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0
        assert cache.evictions == 1

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            LruCache(maxsize=0)


class TestMemoizedPrimitives:
    def test_subset_second_call_hits(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0], [1.0, 0.5]])
        before = PERF.snapshot()
        first = intersect_subset_hulls(pts, 1)
        second = intersect_subset_hulls(pts.copy(), 1)  # same bytes, new object
        delta = PERF.diff(before)
        assert delta["subset_intersection_calls"] == 2
        assert delta["subset_intersection_cache_misses"] == 1
        assert delta["subset_intersection_cache_hits"] == 1
        assert first is second  # the shared cached polytope, not a copy

    def test_combination_second_call_hits(self):
        square = ConvexPolytope.from_points([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        tri = ConvexPolytope.from_points([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        before = PERF.snapshot()
        first = linear_combination([square, tri], [0.5, 0.5])
        second = linear_combination([square, tri], [0.5, 0.5])
        delta = PERF.diff(before)
        assert delta["combination_calls"] == 2
        assert delta["combination_cache_hits"] == 1
        assert first is second

    def test_cached_arrays_are_readonly(self):
        pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0], [3.0, 3.0], [1.0, 1.0]])
        intersect_subset_hulls(pts, 1)
        hit = intersect_subset_hulls(pts, 1)
        assert not hit.vertices.flags.writeable
        with pytest.raises(ValueError):
            hit.vertices[0, 0] = 99.0

    def test_different_bytes_different_entries(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.2]])
        b = a + 1e-12  # different bits -> different key, no false sharing
        intersect_subset_hulls(a, 1)
        before = PERF.snapshot()
        intersect_subset_hulls(b, 1)
        assert PERF.diff(before)["subset_intersection_cache_misses"] == 1


class TestStatsAndKeys:
    def test_registry_covers_all_caches(self):
        assert _REGISTRY == {
            "subset_intersection": SUBSET_CACHE,
            "combination": COMBINATION_CACHE,
        }
        for name, cache in _REGISTRY.items():
            assert cache.name == name
            assert len(cache) == 0  # cold-started by the fixture
            assert cache.maxsize >= 1

    def test_clear_geometry_caches_empties_every_cache(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        poly = ConvexPolytope.from_points(pts)
        intersect_subset_hulls(pts, 1)
        linear_combination([poly, poly], [0.5, 0.5])
        for cache in (SUBSET_CACHE, COMBINATION_CACHE):
            assert len(cache) == 1
        clear_geometry_caches()
        for cache in (SUBSET_CACHE, COMBINATION_CACHE):
            assert len(cache) == 0

    def test_array_key_is_content_addressed(self):
        a = np.array([[1.0, 2.0]])
        assert array_key(a) == array_key(a.copy())
        assert array_key(a) != array_key(a.reshape(2, 1))  # same bytes, new shape
        assert array_key(a) != array_key(a + 1.0)


class TestCounters:
    def test_snapshot_diff_reset(self):
        before = PERF.snapshot()
        PERF.hull_calls += 3
        delta = PERF.diff(before)
        assert delta["hull_calls"] == 3
        assert delta["lp_solves"] == 0
        fresh = PERF.snapshot()
        fresh.reset()
        assert fresh.hull_calls == 0
        assert PERF.hull_calls >= 3  # resetting a snapshot leaves PERF alone
