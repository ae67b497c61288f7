#!/usr/bin/env python
"""A/B benchmark for the subset-intersection depth fast path (PR 4).

Times the same line-5 polytope through both paths of
``intersect_subset_hulls(X, f)`` — the literal ``C(m, f)``-hull
enumeration and the polynomial Tukey-depth construction, each called
directly, past the router and the cache — on seeded random multisets,
and records the crossover curve into ``BENCH_subset.json`` at the
repository root.

Claims asserted (full mode):

* the depth path is at least 5x faster at the headline configuration
  ``(m, d, f) = (16, 2, 3)``;
* the speedup widens monotonically as ``f`` grows at fixed ``(m, d)``
  (enumeration scales like ``C(m, f)``; the depth path does not depend
  on ``f`` at all);
* both paths construct the same polytope on every measured configuration;
* the public entry point routes each configuration by the cost rule
  ``C(m, f) > C(m, d)``.

``--smoke`` runs a two-configuration subset in a few seconds for CI's
fast tier; it fails (exit 1 via assert) if the public entry point
misroutes or never takes the depth path — the regression guard for the
router.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import record_bench  # noqa: E402
from repro.geometry.cache import PERF, clear_geometry_caches  # noqa: E402
from repro.geometry.hausdorff import hausdorff_distance  # noqa: E402
from repro.geometry.intersection import (  # noqa: E402
    _intersect_subsets_depth,
    _intersect_subsets_enumerate,
    intersect_subset_hulls,
    subset_count,
)
from repro.geometry.polytope import ConvexPolytope  # noqa: E402

HEADLINE = (16, 2, 3)
FULL_CONFIGS = [
    # (m, d, f): the d=2 column is the crossover curve at m=16.
    (16, 2, 1),
    (16, 2, 2),
    (16, 2, 3),
    (16, 2, 4),
    (16, 2, 5),
    (12, 3, 1),
    (12, 3, 2),
    (12, 3, 3),
]
SMOKE_CONFIGS = [(8, 2, 2), (10, 2, 3)]


def _points(m: int, d: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(10_000 * d + 100 * m + seed)
    return rng.normal(size=(m, d)) * 2.0


def _time_path(path, pts: np.ndarray, f: int, repeats: int) -> tuple[float, ConvexPolytope]:
    """Best-of-``repeats`` wall-clock of one path, called directly (no cache)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = path(pts, pts.shape[1], f)
        best = min(best, time.perf_counter() - start)
    return best, result


def _routes_to_depth(pts: np.ndarray, f: int) -> bool:
    """Whether the public entry point takes the depth path (cold cache)."""
    clear_geometry_caches()
    before = PERF.snapshot()
    intersect_subset_hulls(pts, f)
    return PERF.diff(before)["subset_fast_path_hits"] == 1


def _agree(a: ConvexPolytope, b: ConvexPolytope, scale: float) -> bool:
    if a.is_empty or b.is_empty:
        return a.is_empty == b.is_empty
    return hausdorff_distance(a, b) <= 1e-5 * scale


def measure(configs: list[tuple[int, int, int]], repeats: int) -> dict:
    rows = {}
    for m, d, f in configs:
        pts = _points(m, d)
        sec_depth, poly_depth = _time_path(_intersect_subsets_depth, pts, f, repeats)
        sec_enum, poly_enum = _time_path(_intersect_subsets_enumerate, pts, f, repeats)
        scale = max(1.0, float(np.abs(pts).max()))
        assert _agree(poly_depth, poly_enum, scale), (
            f"paths disagree at (m={m}, d={d}, f={f})"
        )
        routed = _routes_to_depth(pts, f)
        assert routed == (subset_count(m, f) > subset_count(m, d)), (
            f"misrouted at (m={m}, d={d}, f={f}): depth path taken = {routed}"
        )
        speedup = sec_enum / sec_depth
        rows[(m, d, f)] = {
            "m": m,
            "dim": d,
            "f": f,
            "enumeration_hulls": subset_count(m, f),
            "candidate_subsets": subset_count(m, d),
            "auto_routes_to_depth": routed,
            "seconds_enumerate": sec_enum,
            "seconds_depth": sec_depth,
            "speedup": speedup,
        }
        print(
            f"m={m:3d} d={d} f={f}  C(m,f)={subset_count(m, f):5d}  "
            f"enum {sec_enum * 1e3:9.2f} ms  depth {sec_depth * 1e3:8.2f} ms  "
            f"speedup {speedup:7.2f}x"
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fast subset for CI: checks routing, skips speedup floors",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per path (best-of)"
    )
    args = parser.parse_args(argv)

    configs = SMOKE_CONFIGS if args.smoke else FULL_CONFIGS
    repeats = 1 if args.smoke else args.repeats
    rows = measure(configs, repeats)

    assert any(r["auto_routes_to_depth"] for r in rows.values()), (
        "regression: the depth fast path was never taken"
    )

    for (m, d, f), row in rows.items():
        record_bench("subset", f"m{m}_d{d}_f{f}", **row)

    if not args.smoke:
        # Headline floor: >= 5x at (16, 2, 3).
        headline = rows[HEADLINE]
        assert headline["speedup"] >= 5.0, (
            f"headline speedup only {headline['speedup']:.2f}x at {HEADLINE}"
        )
        # Crossover curve at (m=16, d=2): the gap widens monotonically in f.
        curve = [rows[(16, 2, f)]["speedup"] for f in (1, 2, 3, 4, 5)]
        assert all(b > a for a, b in zip(curve, curve[1:])), (
            f"speedup curve not monotone in f: {curve}"
        )
        crossover_f = next(
            (f for f in (1, 2, 3, 4, 5) if rows[(16, 2, f)]["speedup"] > 1.0),
            None,
        )
        predicted_f = next(
            (f for f in (1, 2, 3, 4, 5) if subset_count(16, f) > subset_count(16, 2)),
            None,
        )
        record_bench(
            "subset",
            "crossover_m16_d2",
            speedup_by_f={str(f): rows[(16, 2, f)]["speedup"] for f in (1, 2, 3, 4, 5)},
            measured_crossover_f=crossover_f,
            cost_rule_crossover_f=predicted_f,
        )
        print(
            f"crossover at m=16, d=2: measured f={crossover_f}, "
            f"cost rule C(m,f)>C(m,d) predicts f={predicted_f}"
        )
    print("BENCH_subset.json updated")
    return 0


def bench_subset_crossover(benchmark):
    """pytest-benchmark entry (slow tier): the full crossover curve."""
    benchmark.pedantic(lambda: main([]), rounds=1, iterations=1)


if __name__ == "__main__":
    sys.exit(main())
