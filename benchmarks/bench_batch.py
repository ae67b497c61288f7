#!/usr/bin/env python
"""Cross-worker benchmark of the shared on-disk geometry cache.

One claim, recorded into ``BENCH_batch.json`` at the repository root:
**the shared cache is genuinely cross-worker.**  A two-worker
``run_grid`` sweep over seeded scenarios runs twice against one
``cache_dir``: the warm pass — fresh worker processes, same directory —
answers its cold misses from entries the first pass's workers wrote
(``shared_cache_hits_foreign > 0``) and returns byte-identical rows.  No
wall-clock floor is asserted: on single-CPU runners (see ``usable_cpus``
in ``BENCH_sweep.json``) worker parallelism cannot speed anything up,
only the sharing itself is the claim.

``--smoke`` runs a two-cell sweep in under a minute for CI's fast tier.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import record_bench  # noqa: E402
from repro.analysis.engine import TaskSpec, run_grid, task_key  # noqa: E402
from repro.analysis.metrics import convergence_series  # noqa: E402
from repro.analysis.perf_counters import shared_cache_hit_rate  # noqa: E402
from repro.workloads.scenarios import benign  # noqa: E402


def scenario_cell(*, seed: int, n: int, d: int, eps: float) -> dict:
    """One sweep cell: simulate + analyse, return a digest row.

    Module-level and JSON-safe so spawned workers can unpickle and
    journal it.  All geometry kernels inside route through the shared
    disk cache whenever the engine exports ``REPRO_CACHE_DIR``.
    """
    scenario = benign(n=n, d=d, eps=eps, seed=seed)
    result = scenario.run(seed=seed)
    series = convergence_series(result.trace)
    return {
        "seed": seed,
        "t_end": result.trace.t_end,
        "disagreement_bits": np.asarray(series.disagreement).tobytes().hex(),
        "outputs_digest": hashlib.sha256(
            b"".join(
                poly.vertices.tobytes()
                for _, poly in sorted(result.outputs.items())
            )
        ).hexdigest(),
    }


def measure_multiworker(*, seeds: int, n: int, d: int, eps: float) -> dict:
    """Cold-then-warm two-worker sweeps against one cache directory."""
    grid = [
        TaskSpec(
            key=task_key(seed=s, n=n, d=d),
            runner=scenario_cell,
            params={"seed": s, "n": n, "d": d, "eps": eps},
        )
        for s in range(seeds)
    ]
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cache = Path(tmp) / "cache"
        start = time.perf_counter()
        cold = run_grid(grid, workers=2, cache_dir=cache, start_method="spawn")
        sec_cold = time.perf_counter() - start
        start = time.perf_counter()
        warm = run_grid(grid, workers=2, cache_dir=cache, start_method="spawn")
        sec_warm = time.perf_counter() - start
        entries = sum(
            1 for path in cache.rglob("*.npz") if path.is_file()
        )

    assert cold.failed == 0 and warm.failed == 0
    cold_rows = json.dumps(cold.rows(), sort_keys=True)
    warm_rows = json.dumps(warm.rows(), sort_keys=True)
    assert warm_rows == cold_rows, (
        "warm-cache sweep rows differ from the cold-cache run"
    )
    warm_stats = {
        k: int(v)
        for k, v in warm.counters.items()
        if k.startswith("shared_cache")
    }
    hit_rate = shared_cache_hit_rate(warm.counters)
    assert warm_stats.get("shared_cache_hits_foreign", 0) > 0, (
        f"no cross-worker hits on a warm directory: {warm_stats}"
    )
    assert warm_stats.get("shared_cache_errors", 0) == 0, warm_stats
    row = {
        "workers": 2,
        "cells": seeds,
        "n": n,
        "d": d,
        "eps": eps,
        "seconds_cold": sec_cold,
        "seconds_warm": sec_warm,
        "cache_entries": entries,
        "rows_bit_identical_to_cold": True,
        "cross_worker_hit_rate": hit_rate,
        "shared_cache_counters": warm_stats,
        "note": (
            "No wall-clock floor asserted: on single-CPU runners worker "
            "parallelism cannot help; the claim is the sharing itself "
            "(foreign hits > 0, rows byte-identical to the cold run)."
        ),
    }
    print(
        f"multiworker: {seeds} cells, warm pass foreign hits "
        f"{warm_stats.get('shared_cache_hits_foreign', 0)}, "
        f"cross-worker hit rate {hit_rate:.2f}, "
        f"cold {sec_cold:.1f} s warm {sec_warm:.1f} s"
    )
    record_bench("batch", "multiworker_shared_cache", **row)
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fast configuration for CI: two cells instead of four",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        measure_multiworker(seeds=2, n=8, d=2, eps=0.1)
    else:
        measure_multiworker(seeds=4, n=8, d=2, eps=0.05)
    print("BENCH_batch.json updated")
    return 0


def bench_batch_smoke(benchmark):
    """pytest-benchmark entry: the smoke sweep."""
    benchmark.pedantic(lambda: main(["--smoke"]), rounds=1, iterations=1)


if __name__ == "__main__":
    sys.exit(main())
