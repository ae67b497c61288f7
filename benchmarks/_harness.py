"""Shared helpers for the experiment benchmark suite.

Every ``bench_eXX_*.py`` regenerates one experiment from DESIGN.md's
per-experiment index: it runs the workload under ``pytest-benchmark``
timing, prints the experiment's table/series through
:mod:`repro.analysis.reporting`, and *asserts the claim's shape* (who
wins, what is bounded by what) so a regression in the reproduced result
fails the suite rather than silently changing a number.

The suite also leaves machine-readable artifacts behind: every helper
that runs a workload can record its wall-clock time and the geometry
perf-counter deltas (hull calls, cache hits/misses, LP solves, Minkowski
candidates) into ``BENCH_<stem>.json`` at the repository root, keyed by
benchmark name.  Files are read-modified-written per record, so a partial
run updates only the entries it re-measured.

Run with ``pytest benchmarks/ --benchmark-only``; add ``-s`` to see the
tables inline (they are also printed into the captured output).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.analysis.reporting import print_report, render_series, render_table
from repro.geometry.cache import PERF

__all__ = [
    "REPO_ROOT",
    "bench_json_path",
    "cache_hit_rate",
    "print_report",
    "record_bench",
    "record_calibrated",
    "render_series",
    "render_table",
    "run_once",
    "run_recorded",
    "np",
]

REPO_ROOT = Path(__file__).resolve().parent.parent


def cache_hit_rate(counters: dict[str, int]) -> float:
    """Fraction of memoizable geometry calls served from the in-memory LRU.

    Aggregates subset-intersection and combination lookups; 0.0 when
    nothing was looked up.  This is an **intra-worker** metric: the LRU
    caches are per-process, so a rate summed over engine workers says
    nothing about sharing between them.
    """
    lookups = counters.get("subset_intersection_calls", 0) + counters.get(
        "combination_calls", 0
    )
    hits = counters.get("subset_intersection_cache_hits", 0) + counters.get(
        "combination_cache_hits", 0
    )
    return hits / lookups if lookups else 0.0


def bench_json_path(stem: str) -> Path:
    """Path of the artifact file for one benchmark module, e.g. ``geometry``."""
    return REPO_ROOT / f"BENCH_{stem}.json"


def record_bench(stem: str, name: str, **entry) -> Path:
    """Merge one named measurement into ``BENCH_<stem>.json``.

    ``entry`` is any JSON-serialisable mapping; by convention it holds
    ``seconds`` (wall-clock for one run), ``counters`` (geometry
    perf-counter deltas) and optionally ``cache_hit_rate`` plus workload
    parameters.  Re-running a benchmark overwrites only its own key.
    """
    path = bench_json_path(stem)
    data: dict = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            data = {}
    data[name] = entry
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def run_once(benchmark, fn, *args, **kwargs):
    """Time ``fn`` once through pytest-benchmark and return its result.

    Experiment workloads are deterministic and expensive; a single timed
    round keeps the suite fast while still recording wall-clock cost.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def record_calibrated(benchmark, stem, name, fn, *args, **kwargs):
    """Calibrated pytest-benchmark timing plus one counter-attributed run.

    ``benchmark(fn, ...)`` runs the workload many times for statistics;
    the perf counters for the artifact come from one additional bracketed
    call, so the recorded deltas describe exactly one invocation (on a
    warm cache, when caching is enabled — the counters make that visible
    through their hit fields).
    """
    result = benchmark(fn, *args, **kwargs)
    before = PERF.snapshot()
    start = time.perf_counter()
    fn(*args, **kwargs)
    seconds = time.perf_counter() - start
    counters = PERF.diff(before)
    record_bench(
        stem,
        name,
        seconds=seconds,
        counters=counters,
        cache_hit_rate=cache_hit_rate(counters),
    )
    return result


def run_recorded(benchmark, stem, name, fn, *args, **kwargs):
    """:func:`run_once` plus a ``BENCH_<stem>.json`` record for ``name``.

    The single pedantic round is bracketed by a perf-counter snapshot, so
    the recorded counters are exactly the geometry work of one run, and
    the recorded wall-clock is the same run pytest-benchmark reports.
    """
    before = PERF.snapshot()
    start = time.perf_counter()
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
    seconds = time.perf_counter() - start
    counters = PERF.diff(before)
    record_bench(
        stem,
        name,
        seconds=seconds,
        counters=counters,
        cache_hit_rate=cache_hit_rate(counters),
    )
    return result
