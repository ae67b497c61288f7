"""Benchmark harness for the parallel experiment engine.

Three assertions, one per engine guarantee:

* **Determinism** — a fixed sweep grid produces *byte-identical*
  aggregate rows (canonical JSON) at ``--workers 1`` and ``--workers N``,
  and again when resumed from a half-completed checkpoint.
* **Speedup** — sharding a CPU-bound grid across 4 workers cuts
  wall-clock by at least 2x.  This is a hardware claim, so the assertion
  is gated on ``len(os.sched_getaffinity(0)) >= 4``; on smaller machines
  the harness still measures and records the (necessarily ~1x) numbers
  but skips the assertion rather than asserting the impossible.
* **Resume** — a sweep interrupted halfway finishes from its checkpoint
  without recomputing finished cells.

Wall-clocks, speedup, merged perf counters, and the hardware context all
land in ``BENCH_sweep.json`` at the repository root.
"""

import json
import os

import pytest

from _harness import cache_hit_rate, record_bench
from repro.analysis.engine import run_grid
from repro.analysis.sweeps import scenario_grid

pytestmark = pytest.mark.slow

#: Cheap cells for the identity/resume checks (~0.1 s each).
FAST_GRID = dict(name="view-split", seeds=range(12))
#: Expensive cells for the timing comparison (~3 s each: the full
#: property-check at n=6 dominates, which is the realistic sweep shape).
HEAVY_GRID = dict(
    name="benign",
    seeds=range(6),
    scenario_kwargs={"n": 6, "d": 2, "eps": 0.1},
)


def _rows_bytes(report) -> str:
    """Canonical JSON of the grid-ordered aggregate rows."""
    return json.dumps(report.rows(), sort_keys=True)


def _grid(spec):
    return scenario_grid(
        spec["name"],
        spec["seeds"],
        scenario_kwargs=spec.get("scenario_kwargs"),
    )


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def bench_sweep_byte_identity():
    seq = run_grid(_grid(FAST_GRID), workers=1)
    par = run_grid(_grid(FAST_GRID), workers=4)
    assert seq.failed == 0 and par.failed == 0
    assert _rows_bytes(seq) == _rows_bytes(par), (
        "aggregate rows differ between --workers 1 and --workers 4"
    )
    record_bench(
        "sweep",
        "byte_identity",
        cells=len(seq.results),
        identical=True,
        sequential_seconds=seq.wall_seconds,
        parallel_seconds=par.wall_seconds,
    )


def bench_sweep_resume_without_recompute(tmp_path):
    """A killed-then-resumed sweep completes without re-running cells."""
    full = run_grid(_grid(FAST_GRID), workers=1)
    run_dir = tmp_path / "interrupted"
    half = list(_grid(FAST_GRID))[: len(full.results) // 2]
    run_grid(half, workers=1, run_dir=run_dir)  # the "killed" partial sweep
    resumed = run_grid(
        _grid(FAST_GRID), workers=2, run_dir=run_dir, resume=True
    )
    assert resumed.reused == len(half)
    assert resumed.executed == len(full.results) - len(half)
    assert resumed.failed == 0
    assert _rows_bytes(resumed) == _rows_bytes(full), (
        "resumed rows differ from an uninterrupted run"
    )
    record_bench(
        "sweep",
        "resume",
        cells=len(full.results),
        reused=resumed.reused,
        executed=resumed.executed,
        identical_to_fresh=True,
    )


def bench_sweep_parallel_speedup():
    cpus = _usable_cpus()
    workers = 4
    seq = run_grid(_grid(HEAVY_GRID), workers=1)
    par = run_grid(_grid(HEAVY_GRID), workers=workers)
    assert seq.failed == 0 and par.failed == 0
    assert _rows_bytes(seq) == _rows_bytes(par)
    speedup = seq.wall_seconds / max(par.wall_seconds, 1e-9)
    counters = par.counters
    record_bench(
        "sweep",
        "parallel_speedup",
        cells=len(seq.results),
        workers=workers,
        usable_cpus=cpus,
        sequential_seconds=seq.wall_seconds,
        parallel_seconds=par.wall_seconds,
        speedup=speedup,
        counters=counters,
        intra_worker_lru_hit_rate=cache_hit_rate(counters),
        note=(
            "intra_worker_lru_hit_rate sums per-worker LRU counters: it "
            "measures redundancy collapse WITHIN each worker process and "
            "says nothing about sharing BETWEEN workers (a rate of 1.0 is "
            "consistent with every worker paying every cold miss itself). "
            "Cross-worker sharing is the shared_cache_hits_foreign counter "
            "/ shared_cache_hit_rate, measured with --cache-dir; see "
            "BENCH_batch.json's multiworker_shared_cache entry and "
            "docs/PERFORMANCE.md."
        ),
        asserted=cpus >= workers,
    )
    if cpus < workers:
        pytest.skip(
            f"speedup assertion needs >= {workers} usable CPUs, "
            f"have {cpus} (measured {speedup:.2f}x; recorded anyway)"
        )
    assert speedup >= 2.0, (
        f"expected >= 2x wall-clock speedup at {workers} workers, "
        f"got {speedup:.2f}x ({seq.wall_seconds:.1f}s -> "
        f"{par.wall_seconds:.1f}s)"
    )
