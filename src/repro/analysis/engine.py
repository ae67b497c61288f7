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
``workers``, scheduling jitter, or resume history:

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
worker-count invariant.  Counters and cell time belong to the invocation
that ran the cells: cells loaded from a resume journal contribute
neither.

Checkpoint / resume
-------------------
Pass ``run_dir`` to journal every completed cell as one JSON line in
``<run_dir>/results.jsonl`` (append-only, flushed per cell, so a killed
sweep loses at most the in-flight cells; a line it tore mid-write is
ended before the next entry is appended).  Pass ``resume=True`` to load
the journal first and skip every cell whose latest journal entry
succeeded; failed cells are retried on resume.  A ``grid.json`` manifest
(the ordered cell keys) is rewritten on every invocation for inspection.

Failure isolation
-----------------
A cell that raises is captured as a ``status == "error"`` result carrying
the exception text and traceback — the sweep continues.  A raising cell
is not retried: it is a pure function of its ``params``, so a second
attempt would raise the same exception.  A resumed sweep re-runs it.

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
    "load_results",
    "resolve_runner",
    "run_grid",
    "task_key",
]

#: Per-cell journal inside a run directory (one JSON object per line).
RESULTS_FILENAME = "results.jsonl"
#: Ordered cell-key manifest inside a run directory.
MANIFEST_FILENAME = "grid.json"

STATUS_OK = "ok"
STATUS_ERROR = "error"

#: ``fork`` where the platform has it (cheap workers), else its default.
_START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else None


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
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "TaskResult":
        """Parse one journal entry; keys this version does not know (such
        as an older journal's ``attempts``) are ignored."""
        return cls(
            key=data["key"],
            status=data.get("status", STATUS_ERROR),
            row=data.get("row"),
            params=dict(data.get("params") or {}),
            error=data.get("error"),
            traceback=data.get("traceback"),
            seconds=float(data.get("seconds", 0.0)),
            counters=dict(data.get("counters") or {}),
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

    def _executed(self) -> list[TaskResult]:
        return [r for r in self.results if not r.cached]

    @property
    def counters(self) -> dict[str, int]:
        """Perf counters summed over the cells this invocation ran (all
        workers); cells loaded from the resume journal do not count.

        Integer summation is order-independent, so the merge is part of
        the determinism contract.
        """
        merged = dict.fromkeys(PERF.as_dict(), 0)
        for result in self._executed():
            for name, value in result.counters.items():
                merged[name] = merged.get(name, 0) + int(value)
        return merged

    @property
    def cell_seconds(self) -> float:
        """Compute time of the cells this invocation ran (sums across
        workers, so it can exceed ``wall_seconds`` under parallelism)."""
        return float(sum(r.seconds for r in self._executed()))

    def rows(self) -> list[dict]:
        """Grid-ordered row dicts of the successful cells."""
        return [r.row for r in self.results if r.ok and r.row is not None]


def _execute_task(spec: TaskSpec) -> TaskResult:
    """Worker entry point: run one cell, measuring time and counters.

    Runs in a worker process (or inline for ``workers <= 1`` — the same
    code path, so sequential and parallel semantics cannot diverge).
    Counter deltas are read from this process's global perf counters, so
    they attribute exactly the geometry work of this cell (workers run
    one cell at a time).
    """
    result = TaskResult(key=spec.key, status=STATUS_OK, params=dict(spec.params))
    before = PERF.snapshot()
    start = time.perf_counter()
    try:
        row = resolve_runner(spec.runner)(**dict(spec.params))
        result.row = dict(row) if isinstance(row, Mapping) else row
    except Exception as exc:  # noqa: BLE001 — isolation is the point
        result.status = STATUS_ERROR
        result.error = f"{type(exc).__name__}: {exc}"
        result.traceback = traceback.format_exc()
    result.seconds = time.perf_counter() - start
    result.counters = PERF.diff(before)
    return result


def _json_default(value: Any) -> Any:
    """Journal fallback for numpy scalars and other numerics."""
    for cast in (int, float):
        try:
            return cast(value)
        except (TypeError, ValueError):
            continue
    return str(value)


def _end_torn_line(path: Path) -> None:
    """Give a last line torn by a killed sweep its newline, so the next
    entry is appended on a line of its own instead of onto the torn one."""
    if not path.exists() or path.stat().st_size == 0:
        return
    with path.open("rb") as fh:
        fh.seek(-1, os.SEEK_END)
        torn = fh.read(1) != b"\n"
    if torn:
        with path.open("ab") as fh:
            fh.write(b"\n")


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
    on_result: Callable[[TaskResult], None] | None = None,
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
    on_result:
        Progress callback invoked in the parent for each freshly
        completed cell (in completion order).

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
        _end_torn_line(dir_path / RESULTS_FILENAME)
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

    if workers <= 1 or len(pending) <= 1:
        for spec in pending:
            record(_execute_task(spec))
    else:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(pending)),
            mp_context=multiprocessing.get_context(_START_METHOD),
        ) as pool:
            futures = [pool.submit(_execute_task, spec) for spec in pending]
            for future in as_completed(futures):
                record(future.result())

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
