"""Process-pool experiment engine: sharded, checkpointed, deterministic grids.

Every quantitative claim in the paper is validated by running Algorithm CC
over a *grid* of independent seeded cells — seed sweeps (E4/E9-style
per-seed tables), scheduler x fault-plan matrices (the fault-injection
lab), scaling grids (E10).  Each cell is pure and deterministic given its
parameters, which makes the grid embarrassingly parallel; this module is
the one place that exploits that.

The engine takes a list of :class:`TaskSpec` (a deterministic ``key``, a
picklable ``runner``, JSON-safe ``params``), shards it across
``multiprocessing`` workers, and returns an :class:`EngineReport` with one
:class:`TaskResult` per cell **in grid order**, regardless of completion
order.

Determinism contract
--------------------
Same grid + same per-cell seeds => identical result rows, independent of
``workers``, start method, scheduling jitter, or resume history:

* each cell re-derives *everything* from its ``params`` (workers share no
  mutable state — scenario objects are rebuilt per cell, and the geometry
  cache from PR 1 is bit-identical by construction);
* results are re-ordered into the caller's grid order before aggregation,
  so order-dependent aggregates (means, "first failing seed") are stable;
* wall-clock and perf-counter fields live *next to* the row, never inside
  it, so timing noise cannot leak into aggregate comparisons.

``run_grid(tasks, workers=4)`` is therefore byte-identical (after JSON
canonicalisation) to ``run_grid(tasks, workers=1)`` — the property the
``benchmarks/bench_sweep.py`` harness asserts on every run.

The contract covers *result rows and their aggregates*, not the merged
perf counters: cache hit/miss counts depend on which cells share a
worker's geometry cache (and, under ``fork``, on the parent cache at
fork time), so they describe the run's cost truthfully but are not
worker-count invariant.

Checkpoint / resume
-------------------
Pass ``run_dir`` to journal every completed cell as one JSON line in
``<run_dir>/results.jsonl`` (append-only, flushed per cell, so a killed
sweep loses at most the in-flight cells).  Pass ``resume=True`` to load
the journal first and skip every cell whose latest journal entry
succeeded; failed cells are retried on resume.  A ``grid.json`` manifest
(the ordered cell keys) is rewritten on every invocation for inspection.

Failure isolation
-----------------
A cell that raises is captured as a ``status == "error"`` result carrying
the exception text and traceback — the sweep continues.  ``retries=k``
re-runs a raising cell up to ``k`` extra times (inside the same worker)
before recording the failure.  ``retry_backoff=b`` sleeps between
attempts with exponential backoff and jitter; the delays are *seeded from
the cell key*, so they are identical across runs and worker layouts, and
every delay actually slept is journalled in the result row
(``retry_delays``) — a resumed sweep can be audited for flaky cells.

Typical use::

    from repro.analysis.engine import TaskSpec, run_grid, task_key

    tasks = [
        TaskSpec(
            key=task_key(scenario="crash-storm", seed=s),
            runner="repro.analysis.sweeps:scenario_cell",
            params={"scenario": "crash-storm", "seed": s},
        )
        for s in range(32)
    ]
    report = run_grid(tasks, workers=4, run_dir="runs/storm", resume=True)
    rows = report.rows()              # grid-ordered list of row dicts
    merged = report.counters          # geometry perf counters, all workers

The higher-level :mod:`repro.analysis.sweeps` wraps this for scenario
sweeps, and ``repro sweep --workers N --resume DIR`` exposes it on the
command line.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import os
import random
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from ..geometry.cache import PERF

__all__ = [
    "EngineReport",
    "RESULTS_FILENAME",
    "MANIFEST_FILENAME",
    "TaskResult",
    "TaskSpec",
    "default_start_method",
    "load_results",
    "resolve_runner",
    "retry_delay",
    "run_grid",
    "task_key",
]

#: Per-cell journal inside a run directory (one JSON object per line).
RESULTS_FILENAME = "results.jsonl"
#: Ordered cell-key manifest inside a run directory.
MANIFEST_FILENAME = "grid.json"

STATUS_OK = "ok"
STATUS_ERROR = "error"


def task_key(**fields: Any) -> str:
    """Deterministic, human-readable cell key from keyword fields.

    Fields are sorted by name, so the key is independent of call-site
    argument order; nested values are canonical JSON.  Two cells with the
    same parameters always map to the same key — the property checkpoint
    resume and order-independent result assembly both rely on.
    """
    parts = []
    for name in sorted(fields):
        value = fields[name]
        if isinstance(value, float):
            text = repr(value)
        elif isinstance(value, (str, int, bool)) or value is None:
            text = str(value)
        else:
            text = json.dumps(
                value, sort_keys=True, separators=(",", ":"), default=str
            )
        parts.append(f"{name}={text}")
    return "&".join(parts)


def resolve_runner(runner: str | Callable[..., Any]) -> Callable[..., Any]:
    """Resolve a runner reference to a callable.

    ``runner`` is either a callable already (must be picklable, i.e. a
    module-level function) or a ``"package.module:qualname"`` dotted path
    resolved by import — the robust form for spawned workers.
    """
    if callable(runner):
        return runner
    module_name, sep, qualname = runner.partition(":")
    if not sep or not qualname:
        raise ValueError(
            f"runner reference must be 'module:qualname', got {runner!r}"
        )
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


@dataclass(frozen=True)
class TaskSpec:
    """One grid cell: a deterministic key, a runner, and its parameters.

    ``params`` must be JSON-serialisable (they are journalled alongside
    results) and ``runner(**params)`` must return a JSON-safe mapping —
    the cell's *row*.
    """

    key: str
    runner: str | Callable[..., Any]
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class TaskResult:
    """Outcome of one cell (successful, failed, or loaded from journal)."""

    key: str
    status: str  # "ok" | "error"
    row: dict | None = None
    params: dict = field(default_factory=dict)
    error: str | None = None
    traceback: str | None = None
    seconds: float = 0.0
    counters: dict = field(default_factory=dict)
    attempts: int = 1
    retry_delays: list = field(default_factory=list)
    cached: bool = False  # True when loaded from a resume journal

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_json_dict(self) -> dict:
        return {
            "key": self.key,
            "status": self.status,
            "row": self.row,
            "params": self.params,
            "error": self.error,
            "traceback": self.traceback,
            "seconds": self.seconds,
            "counters": self.counters,
            "attempts": self.attempts,
            "retry_delays": self.retry_delays,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "TaskResult":
        return cls(
            key=data["key"],
            status=data.get("status", STATUS_ERROR),
            row=data.get("row"),
            params=dict(data.get("params") or {}),
            error=data.get("error"),
            traceback=data.get("traceback"),
            seconds=float(data.get("seconds", 0.0)),
            counters=dict(data.get("counters") or {}),
            attempts=int(data.get("attempts", 1)),
            retry_delays=[float(x) for x in data.get("retry_delays") or []],
        )


@dataclass
class EngineReport:
    """Everything ``run_grid`` learned: per-cell results plus run stats.

    ``results`` is in grid (submission) order — *not* completion order —
    so downstream aggregation is independent of worker count.
    """

    results: list[TaskResult] = field(default_factory=list)
    workers: int = 1
    wall_seconds: float = 0.0
    executed: int = 0  # cells actually run by this invocation
    reused: int = 0  # cells satisfied from the resume journal
    run_dir: str | None = None

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    @property
    def counters(self) -> dict[str, int]:
        """Geometry perf counters summed over every cell (all workers).

        Integer summation is order-independent, so the merge is part of
        the determinism contract.
        """
        merged: dict[str, int] = {}
        for result in self.results:
            for name, value in result.counters.items():
                merged[name] = merged.get(name, 0) + int(value)
        return merged

    @property
    def cell_seconds(self) -> float:
        """Total per-cell compute time (sums across workers, so it can
        exceed ``wall_seconds`` under parallelism)."""
        return float(sum(r.seconds for r in self.results))

    def rows(self) -> list[dict]:
        """Grid-ordered row dicts of the successful cells."""
        return [r.row for r in self.results if r.ok and r.row is not None]


def default_start_method() -> str:
    """Multiprocessing start method: ``REPRO_ENGINE_START_METHOD`` env
    override, else ``fork`` where available (cheap workers), else the
    platform default."""
    override = os.environ.get("REPRO_ENGINE_START_METHOD")
    if override:
        return override
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else multiprocessing.get_start_method()


def retry_delay(key: str, attempt: int, backoff: float) -> float:
    """Deterministic backoff before retry ``attempt`` of cell ``key``.

    Exponential (``backoff * 2**(attempt-1)``) with multiplicative jitter
    in ``[0.5, 1.0)`` drawn from a PRNG seeded by the *cell key and
    attempt number* — ``random.Random(str)`` hashes the seed with
    SHA-512, so the schedule is identical across runs, platforms, and
    ``PYTHONHASHSEED`` values.  Jitter de-synchronises cells that fail
    together (e.g. a shared resource hiccup) without sacrificing
    reproducibility: the journalled ``retry_delays`` of a cell are a pure
    function of ``(key, attempt, backoff)``.
    """
    if backoff <= 0.0:
        return 0.0
    rng = random.Random(f"{key}#retry{attempt}")
    return backoff * (2 ** (attempt - 1)) * (0.5 + 0.5 * rng.random())


def _execute_task(
    spec: TaskSpec, retries: int, retry_backoff: float = 0.0
) -> TaskResult:
    """Worker entry point: run one cell, measuring time and counters.

    Runs in a worker process (or inline for ``workers <= 1`` — the same
    code path, so sequential and parallel semantics cannot diverge).
    Counter deltas are read from this process's global perf counters, so
    they attribute exactly the geometry work of this cell (workers run
    one cell at a time).
    """
    before = PERF.snapshot()
    start = time.perf_counter()
    attempts = 0
    error: BaseException | None = None
    tb: str | None = None
    row: Any = None
    delays: list[float] = []
    while attempts <= retries:
        attempts += 1
        try:
            runner = resolve_runner(spec.runner)
            row = runner(**dict(spec.params))
            error = None
            break
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            error = exc
            tb = traceback.format_exc()
            if attempts <= retries:
                delay = retry_delay(spec.key, attempts, retry_backoff)
                delays.append(delay)
                if delay > 0.0:
                    time.sleep(delay)
    seconds = time.perf_counter() - start
    counters = PERF.diff(before)
    if error is not None:
        return TaskResult(
            key=spec.key,
            status=STATUS_ERROR,
            params=dict(spec.params),
            error=f"{type(error).__name__}: {error}",
            traceback=tb,
            seconds=seconds,
            counters=counters,
            attempts=attempts,
            retry_delays=delays,
        )
    return TaskResult(
        key=spec.key,
        status=STATUS_OK,
        row=dict(row) if isinstance(row, Mapping) else row,
        params=dict(spec.params),
        seconds=seconds,
        counters=counters,
        attempts=attempts,
        retry_delays=delays,
    )


def _json_default(value: Any) -> Any:
    """Journal fallback for numpy scalars and other numerics."""
    for cast in (int, float):
        try:
            return cast(value)
        except (TypeError, ValueError):
            continue
    return str(value)


def _append_result(run_dir: Path, result: TaskResult) -> None:
    line = json.dumps(
        result.to_json_dict(), sort_keys=True, default=_json_default
    )
    with (run_dir / RESULTS_FILENAME).open("a", encoding="utf-8") as fh:
        fh.write(line + "\n")
        fh.flush()


def load_results(run_dir: str | Path) -> dict[str, TaskResult]:
    """Parse a run directory's journal; the last entry per key wins.

    Tolerates a truncated final line (a sweep killed mid-write) by
    skipping unparsable lines.
    """
    path = Path(run_dir) / RESULTS_FILENAME
    loaded: dict[str, TaskResult] = {}
    if not path.exists():
        return loaded
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except ValueError:
                continue
            if isinstance(data, dict) and "key" in data:
                loaded[data["key"]] = TaskResult.from_json_dict(data)
    return loaded


def _write_manifest(run_dir: Path, keys: list[str]) -> None:
    manifest = {"cells": len(keys), "keys": keys}
    (run_dir / MANIFEST_FILENAME).write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )


def run_grid(
    tasks: Iterable[TaskSpec],
    *,
    workers: int = 1,
    run_dir: str | Path | None = None,
    resume: bool = False,
    retries: int = 0,
    retry_backoff: float = 0.0,
    start_method: str | None = None,
    on_result: Callable[[TaskResult], None] | None = None,
    cache_dir: str | Path | None = None,
) -> EngineReport:
    """Run every cell of a grid, optionally sharded across processes.

    Parameters
    ----------
    tasks:
        The grid; cell keys must be unique (duplicate keys would make
        checkpoint entries ambiguous).
    workers:
        ``<= 1`` runs every cell inline in this process — the sequential
        reference semantics; ``> 1`` shards cells across a process pool.
    run_dir:
        Journal directory; created if missing.  Every completed cell is
        appended to ``results.jsonl`` immediately.
    resume:
        Load ``run_dir``'s journal first and skip cells whose latest
        entry succeeded.  Previously *failed* cells are re-run.
    retries:
        Extra in-worker attempts for a cell that raises.
    retry_backoff:
        Base seconds of the deterministic exponential backoff slept
        between attempts (see :func:`retry_delay`); ``0`` retries
        immediately.  Delays slept are journalled per cell.
    start_method:
        Multiprocessing start method (default: :func:`default_start_method`).
    on_result:
        Progress callback invoked in the parent for each freshly
        completed cell (in completion order).
    cache_dir:
        Directory of the shared cross-worker geometry cache
        (:mod:`repro.geometry.shared_cache`); created if missing.  The
        engine exports it as ``REPRO_CACHE_DIR`` for the duration of the
        run, so every worker — forked or spawned — consults and feeds the
        same content-addressed store, and sibling workers stop paying
        cold misses for hulls another worker already computed.  Cached
        entries are outputs of the same kernels on bit-identical inputs,
        so result rows keep the determinism contract; only the
        ``shared_cache_*`` counters (and wall time) change.

    Returns an :class:`EngineReport` whose ``results`` follow the grid
    order of ``tasks``.
    """
    specs = list(tasks)
    keys = [spec.key for spec in specs]
    if len(set(keys)) != len(keys):
        seen: set[str] = set()
        dupes = sorted({k for k in keys if k in seen or seen.add(k)})
        raise ValueError(f"duplicate task keys: {dupes[:5]}")

    dir_path: Path | None = None
    reused: dict[str, TaskResult] = {}
    if run_dir is not None:
        dir_path = Path(run_dir)
        dir_path.mkdir(parents=True, exist_ok=True)
        if resume:
            wanted = set(keys)
            reused = {
                key: result
                for key, result in load_results(dir_path).items()
                if key in wanted and result.ok
            }
        _write_manifest(dir_path, keys)

    pending = [spec for spec in specs if spec.key not in reused]
    fresh: dict[str, TaskResult] = {}
    start = time.perf_counter()

    def record(result: TaskResult) -> None:
        fresh[result.key] = result
        if dir_path is not None:
            _append_result(dir_path, result)
        if on_result is not None:
            on_result(result)

    # Export the shared-cache directory through the environment for the
    # duration of the run: the geometry layer re-reads REPRO_CACHE_DIR on
    # every lookup, so this configures the inline path and both fork- and
    # spawn-started workers alike (workers inherit the parent environment
    # at pool creation).
    cache_env_prev: str | None = None
    cache_env_set = False
    if cache_dir is not None:
        cache_path = Path(cache_dir)
        cache_path.mkdir(parents=True, exist_ok=True)
        cache_env_prev = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = str(cache_path)
        cache_env_set = True
    try:
        if workers <= 1 or len(pending) <= 1:
            for spec in pending:
                record(_execute_task(spec, retries, retry_backoff))
        else:
            context = multiprocessing.get_context(
                start_method or default_start_method()
            )
            with ProcessPoolExecutor(
                max_workers=min(workers, len(pending)), mp_context=context
            ) as pool:
                futures = [
                    pool.submit(_execute_task, spec, retries, retry_backoff)
                    for spec in pending
                ]
                for future in as_completed(futures):
                    record(future.result())
    finally:
        if cache_env_set:
            if cache_env_prev is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = cache_env_prev

    wall_seconds = time.perf_counter() - start
    results = [
        replace(reused[key], cached=True) if key in reused else fresh[key]
        for key in keys
    ]
    return EngineReport(
        results=results,
        workers=max(1, workers),
        wall_seconds=wall_seconds,
        executed=len(fresh),
        reused=len(reused),
        run_dir=str(dir_path) if dir_path is not None else None,
    )
