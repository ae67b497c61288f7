"""Sweep driver: run a scenario across seeds and aggregate outcomes.

Experiments and users routinely ask "does this hold across schedules?".
This module answers it at two levels:

* :func:`sweep_scenario` — the in-process driver: run any seeded
  callable (typically a :class:`~repro.workloads.scenarios.Scenario`'s
  ``run``) across seeds and aggregate paper-property outcomes,
  disagreements, message costs, and output sizes into one
  :class:`SweepSummary` — the machinery behind the per-seed tables of
  E4/E9.
* :func:`run_sweep` — the parallel driver: express the same sweep as a
  grid of picklable cells and hand it to the process-pool engine
  (:mod:`repro.analysis.engine`) for sharding, JSONL checkpointing,
  resume, and failure isolation.  This is what the CLI's
  ``repro sweep --workers N --resume DIR`` runs.

Outcome taxonomy
----------------
Each seeded run lands in exactly one of three states, kept distinct in
rows, summaries, and tables (a violated theorem and a crashed harness
are very different findings):

* ``"ok"``         — the run executed and every checked property held;
* ``"violation"``  — the run executed but a paper property failed;
* ``"error"``      — the run (or its checker) raised; the row records
  the exception and contributes no measurements.

Determinism contract
--------------------
Same scenario + same seeds => identical rows and identical aggregate
values regardless of ``workers``, because each cell rebuilds its
scenario from a picklable :class:`~repro.workloads.scenarios.ScenarioSpec`
(no shared mutable state), the geometry layer is bit-identical under
caching (PR 1), and the engine re-orders results into grid order before
aggregation.  ``benchmarks/bench_sweep.py`` asserts this byte-for-byte
on every run.

Typical use::

    from repro.analysis.sweeps import run_sweep

    summary, engine = run_sweep(
        "crash-storm", range(32), workers=4, run_dir="runs/storm",
        resume=True,
    )
    print(summary.all_ok, summary.errors, engine.wall_seconds)
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from ..core.invariants import FullReport, check_all
from ..core.runner import CCResult
from ..workloads.scenarios import ScenarioSpec
from .engine import EngineReport, TaskResult, TaskSpec, run_grid, task_key
from .metrics import convergence_series, output_size_report

STATUS_OK = "ok"
STATUS_VIOLATION = "violation"
STATUS_ERROR = "error"

#: Dotted-path reference to the per-cell worker function, importable from
#: any multiprocessing start method.
SCENARIO_CELL_RUNNER = "repro.analysis.sweeps:scenario_cell"


@dataclass
class SweepRow:
    """Outcome of one seeded run.

    ``status`` separates "a paper property failed" (``"violation"``)
    from "the run itself raised" (``"error"``); ``properties_ok`` is
    kept as the legacy boolean (True only for ``"ok"`` rows).  Error
    rows carry the exception text in ``error`` and zeros for the
    measurement fields.
    """

    seed: int
    properties_ok: bool
    disagreement_round0: float
    final_disagreement: float
    messages: int
    min_output_measure: float
    decided: int
    crashed: int
    status: str = STATUS_OK
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class SweepSummary:
    """Aggregate over all seeds."""

    rows: list[SweepRow] = field(default_factory=list)

    @property
    def num_runs(self) -> int:
        return len(self.rows)

    @property
    def all_ok(self) -> bool:
        return all(r.status == STATUS_OK for r in self.rows)

    @property
    def failures(self) -> list[int]:
        """Seeds that did not come back clean (violations and errors)."""
        return [r.seed for r in self.rows if r.status != STATUS_OK]

    @property
    def violations(self) -> list[int]:
        """Seeds whose run executed but violated a checked property."""
        return [r.seed for r in self.rows if r.status == STATUS_VIOLATION]

    @property
    def errors(self) -> list[int]:
        """Seeds whose run (or checker) raised instead of completing."""
        return [r.seed for r in self.rows if r.status == STATUS_ERROR]

    @property
    def worst_round0_disagreement(self) -> float:
        return max((r.disagreement_round0 for r in self.rows), default=0.0)

    @property
    def worst_final_disagreement(self) -> float:
        return max((r.final_disagreement for r in self.rows), default=0.0)

    @property
    def mean_messages(self) -> float:
        measured = [r.messages for r in self.rows if r.status != STATUS_ERROR]
        if not measured:
            return 0.0
        return float(np.mean(measured))

    def _aggregate_status(self) -> str:
        if self.all_ok:
            return STATUS_OK
        parts = []
        if self.violations:
            parts.append(f"{len(self.violations)} viol")
        if self.errors:
            parts.append(f"{len(self.errors)} err")
        return ", ".join(parts)

    def table_rows(self) -> list[list]:
        out = [
            [
                r.seed,
                r.status,
                r.properties_ok,
                r.disagreement_round0,
                r.final_disagreement,
                r.messages,
                r.decided,
                r.crashed,
            ]
            for r in self.rows
        ]
        out.append(
            [
                "ALL" if self.all_ok else "FAIL",
                self._aggregate_status(),
                self.all_ok,
                self.worst_round0_disagreement,
                self.worst_final_disagreement,
                self.mean_messages,
                "-",
                "-",
            ]
        )
        return out

    TABLE_COLUMNS = [
        "seed",
        "status",
        "props ok",
        "dis@0",
        "dis@end",
        "messages",
        "decided",
        "crashed",
    ]


def row_from_result(
    seed: int,
    result: CCResult,
    *,
    check: Callable[[CCResult], FullReport] | None = None,
) -> SweepRow:
    """Build one sweep row from a completed run.

    ``check`` defaults to :func:`repro.core.invariants.check_all` on the
    result's trace; pass a custom callable to aggregate different
    predicates (e.g. matrix checks).  All fields are cast to plain
    Python scalars so rows survive a JSON checkpoint round-trip
    unchanged.
    """
    report = check(result) if check is not None else check_all(result.trace)
    series = convergence_series(result.trace)
    sizes = output_size_report(result.trace)
    ok = bool(report.ok)
    return SweepRow(
        seed=int(seed),
        properties_ok=ok,
        status=STATUS_OK if ok else STATUS_VIOLATION,
        disagreement_round0=(
            float(series.disagreement[0]) if series.disagreement else 0.0
        ),
        final_disagreement=(
            float(series.disagreement[-1]) if series.disagreement else 0.0
        ),
        messages=int(result.trace.messages_sent),
        min_output_measure=float(
            min(sizes.output_measures.values(), default=0.0)
        ),
        decided=len(result.report.decided),
        crashed=len(result.report.crashed),
    )


def error_row(seed: int, error: str) -> SweepRow:
    """A row for a seed whose run raised instead of completing."""
    return SweepRow(
        seed=int(seed),
        properties_ok=False,
        status=STATUS_ERROR,
        error=error,
        disagreement_round0=0.0,
        final_disagreement=0.0,
        messages=0,
        min_output_measure=0.0,
        decided=0,
        crashed=0,
    )


def sweep_scenario(
    run: Callable[[int], CCResult],
    seeds,
    *,
    check: Callable[[CCResult], FullReport] | None = None,
    isolate_errors: bool = True,
) -> SweepSummary:
    """Run ``run(seed)`` for every seed in-process and aggregate.

    A seed whose run or checker raises becomes an ``"error"`` row (the
    sweep continues) unless ``isolate_errors=False``, which re-raises —
    useful in tests that want the original traceback.
    """
    summary = SweepSummary()
    for seed in seeds:
        try:
            result = run(seed)
            summary.rows.append(row_from_result(seed, result, check=check))
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            if not isolate_errors:
                raise
            summary.rows.append(
                error_row(seed, f"{type(exc).__name__}: {exc}")
            )
    return summary


def scenario_cell(
    *,
    scenario: str,
    seed: int,
    scenario_kwargs: Mapping | None = None,
) -> dict:
    """Worker entry point: one (scenario, seed) cell as a JSON-safe row.

    Rebuilds the scenario from scratch inside the worker via
    :class:`~repro.workloads.scenarios.ScenarioSpec` — no state is
    shared with the parent or with sibling cells — then runs it and
    checks every paper property.  Returns :func:`row_from_result`'s row
    as a plain dict (the engine journals it verbatim).
    """
    spec = ScenarioSpec(name=scenario, kwargs=dict(scenario_kwargs or {}))
    result = spec.run(seed=seed)
    return asdict(row_from_result(seed, result))


def scenario_grid(
    name: str,
    seeds: Iterable[int],
    *,
    scenario_kwargs: Mapping | None = None,
) -> list[TaskSpec]:
    """The engine grid for a seed sweep of one named scenario."""
    kwargs = dict(scenario_kwargs or {})
    tasks = []
    for seed in seeds:
        key_fields: dict = {"scenario": name, "seed": int(seed)}
        if kwargs:
            key_fields["kwargs"] = kwargs
        tasks.append(
            TaskSpec(
                key=task_key(**key_fields),
                runner=SCENARIO_CELL_RUNNER,
                params={
                    "scenario": name,
                    "seed": int(seed),
                    "scenario_kwargs": kwargs,
                },
            )
        )
    return tasks


def _summary_from_engine(report: EngineReport) -> SweepSummary:
    summary = SweepSummary()
    for result in report.results:
        if result.ok and result.row is not None:
            summary.rows.append(SweepRow(**result.row))
        else:
            seed = int(result.params.get("seed", -1))
            summary.rows.append(error_row(seed, result.error or "unknown"))
    return summary


def run_sweep(
    name: str,
    seeds: Iterable[int],
    *,
    workers: int = 1,
    run_dir=None,
    resume: bool = False,
    scenario_kwargs: Mapping | None = None,
    on_result: Callable[[TaskResult], None] | None = None,
) -> tuple[SweepSummary, EngineReport]:
    """Seed-sweep a named scenario through the parallel engine.

    Shards ``scenario_grid(name, seeds)`` across ``workers`` processes
    with optional checkpointing (``run_dir``) and resume; see
    :func:`repro.analysis.engine.run_grid` for the parameters.  Returns
    the aggregate summary together with the engine report (wall-clock,
    executed/reused cell counts, merged perf counters).

    Determinism: the summary is identical for any ``workers`` value —
    cells are pure functions of (scenario, seed) and the engine returns
    results in grid order.
    """
    report = run_grid(
        scenario_grid(name, seeds, scenario_kwargs=scenario_kwargs),
        workers=workers,
        run_dir=run_dir,
        resume=resume,
        on_result=on_result,
    )
    return _summary_from_engine(report), report
