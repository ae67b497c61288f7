"""Content-addressed memoization layer for the geometry kernel.

Algorithm CC performs the *same* geometric computations many times per
execution: all processes sharing a stable-vector view compute the
identical round-0 subset intersection, and processes freezing the same
``Y_i[t]`` multiset compute the identical combination ``L``.  This module
provides the shared machinery that collapses that redundancy:

* :class:`LruCache` — a bounded, insertion-ordered cache, one per
  memoized layer: the subset intersection and the combination ``L``;
* :func:`memoized_polytope` — the one lookup path of both layers: the
  in-memory LRU, then the computation itself;
* content-addressed keys (:func:`array_key`) — a geometry value is keyed
  by the raw bytes of its float64 vertex array, so *results are shared
  if and only if the inputs are bit-identical*.  Every memoized path is
  therefore bit-identical to the unmemoized path by construction: the
  cached value was produced by the very same code on the very same bytes;
* the :class:`PerfCounters` singleton :data:`PERF` — cheap monotonic
  counters (hull calls, cache calls and hits, LP solves, Minkowski
  candidate counts, depth fast-path routing and candidate-halfspace
  tallies)
  incremented by the geometry hot paths and surfaced by the simulator
  report, the experiment engine, the CLI and the benchmark harness.

Cached polytopes are immutable by design, so no invalidation story is
needed.  The caches are process-global and not thread-safe (the
simulator is a single-threaded discrete-event loop).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Any, Callable, Hashable

import numpy as np

#: Default bound on each cache's entry count.  Entries are whole vertex
#: arrays / polytopes of the sizes Algorithm CC produces (tens of floats),
#: so the worst-case footprint is a few MB per cache.
DEFAULT_CACHE_SIZE = 4096


# ----------------------------------------------------------------------
# Perf counters
# ----------------------------------------------------------------------

@dataclass
class PerfCounters:
    """Monotonic counters for the geometry/runtime hot paths.

    All fields are plain ints; incrementing one is a single attribute
    add, cheap enough to leave enabled unconditionally.
    """

    hull_calls: int = 0
    subset_intersection_calls: int = 0
    subset_intersection_cache_hits: int = 0
    subset_fast_path_hits: int = 0
    depth_halfspace_candidates: int = 0
    depth_halfspaces_kept: int = 0
    combination_calls: int = 0
    combination_cache_hits: int = 0
    # Always 0: round messages carry the sender's polytope, so nothing is
    # interned.  Kept because perfbench/run.py reads both by name.
    polytope_intern_hits: int = 0
    polytope_intern_misses: int = 0
    lp_solves: int = 0
    minkowski_candidates: int = 0
    # Hausdorff bound-and-prune counters (repro.geometry.hausdorff): pairs
    # evaluated, pairs pruned, and distinct members after dedup.
    batch_hausdorff_pairs: int = 0
    batch_hausdorff_pair_prunes: int = 0
    batch_hausdorff_dedup_groups: int = 0
    # Transport-layer counters (repro.runtime.transport): incremented by
    # the lossy fabric and reliable-delivery layer, surfaced through
    # SimulationReport.perf_counters like the geometry counters above.
    retransmissions: int = 0
    dup_drops: int = 0
    ack_messages: int = 0
    partition_heals: int = 0
    link_drops: int = 0
    link_dups: int = 0
    # Crash-recovery counters (repro.runtime.checkpoint / .recovery):
    # checkpoint traffic, restore outcomes (a corruption degrades a
    # durable recovery to amnesia), reanimations per durability mode,
    # and application frames consumed while the receiver was crashed
    # (acked by the transport infrastructure, never delivered upward).
    checkpoint_saves: int = 0
    checkpoint_restores: int = 0
    checkpoint_corruptions: int = 0
    process_recoveries: int = 0
    recovery_restarts: int = 0
    crashed_app_drops: int = 0
    # Byzantine counters (repro.runtime.byzantine / .transport): frames
    # scrambled on a corrupting link and dropped at the checksum gate,
    # and the adversary's per-behavior mutation tallies.
    corrupt_drops: int = 0
    byz_equivocations: int = 0
    byz_forgeries: int = 0
    byz_omissions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def snapshot(self) -> "PerfCounters":
        return PerfCounters(**self.as_dict())

    def diff(self, earlier: "PerfCounters") -> dict[str, int]:
        """Counter deltas since ``earlier`` (a prior :meth:`snapshot`)."""
        now = self.as_dict()
        before = earlier.as_dict()
        return {name: now[name] - before[name] for name in now}

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)


#: The process-global counter singleton.
PERF = PerfCounters()


def cache_enabled() -> bool:
    """Always True: memoization has no off switch.

    Kept only for the benchmark harness (``perfbench/run.py``), which
    checks it before measuring.
    """
    return True


# ----------------------------------------------------------------------
# Bounded LRU cache
# ----------------------------------------------------------------------

class LruCache:
    """A bounded mapping with least-recently-used eviction.

    A thin :class:`OrderedDict` wrapper: ``get`` refreshes recency,
    ``put`` evicts the oldest entry beyond ``maxsize``.  Hit/miss
    accounting is left to the call site, :func:`memoized_polytope`, which
    reports into the cache's own :class:`PerfCounters` fields.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE, name: str = ""):
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.name = name
        self._data: OrderedDict[Hashable, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        try:
            value = self._data[key]
        except KeyError:
            return default
        self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        while len(data) > self.maxsize:
            data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()


#: Registry of every named cache, for bulk clearing.
_REGISTRY: dict[str, LruCache] = {}


def _register(name: str, maxsize: int = DEFAULT_CACHE_SIZE) -> LruCache:
    cache = LruCache(maxsize=maxsize, name=name)
    _REGISTRY[name] = cache
    return cache


#: intersect_subset_hulls results: (shape, bytes, f) -> ConvexPolytope.
SUBSET_CACHE = _register("subset_intersection")
#: linear_combination results: (operand keys..., weight bytes) -> ConvexPolytope.
COMBINATION_CACHE = _register("combination")


def clear_geometry_caches() -> None:
    """Empty every geometry cache (counters are left untouched)."""
    for cache in _REGISTRY.values():
        cache.clear()


# ----------------------------------------------------------------------
# Content-addressed keys
# ----------------------------------------------------------------------

def array_key(arr: np.ndarray) -> tuple:
    """Content key of a float64 point array: its shape plus raw bytes.

    Bit-identical arrays — and only those — share a key, which is what
    makes every cached path provably equivalent to the uncached one.
    """
    return (arr.shape, arr.tobytes())


# ----------------------------------------------------------------------
# The memoized lookup path
# ----------------------------------------------------------------------

def _bump(counter: str) -> None:
    setattr(PERF, counter, getattr(PERF, counter) + 1)


def memoized_polytope(
    cache: LruCache, key: Hashable, compute: Callable[[], Any]
) -> Any:
    """``compute()``, served from ``cache`` when ``key`` is present.

    On a miss the result of ``compute()`` is stored under ``key``.
    ``cache.name`` names the counters: ``<name>_calls`` counts every call
    and ``<name>_cache_hits`` the calls served from the LRU (the misses
    are the difference).
    """
    name = cache.name
    _bump(f"{name}_calls")
    cached = cache.get(key)
    if cached is not None:
        _bump(f"{name}_cache_hits")
        return cached
    result = compute()
    cache.put(key, result)
    return result
