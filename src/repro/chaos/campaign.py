"""Fuzz campaigns: sharded, checkpointed sweeps over the fault space.

A campaign is a grid of fuzz cases — case seeds ``seed0 .. seed0+N-1``
expanded through :func:`~repro.chaos.generator.generate_case` — executed
by the :mod:`repro.analysis.engine` process pool.  Each cell runs one
case, shrinks any violation it finds, and returns a JSON-safe row with
the repro bundle embedded, so the engine's JSONL checkpoint *is* the
campaign archive: kill a campaign, ``--resume`` it, and only the
unfinished cells re-run.

Campaign triage distinguishes *expected* findings (violations in
``below-bound`` / ``beyond-bound`` / ``partition-forever`` probe cases,
which deliberately break a premise — the Theorem 2 bound or the
fair-lossy channel assumption) from *unexpected* ones (any violation in
a ``legal``, ``lossy``, or ``partition-heal`` case — an implementation
bug, the thing the fuzzer exists to catch).  :func:`hunt` is the
sequential until-first-violation loop used by the self-test and
``repro fuzz --until-violation``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..analysis.engine import EngineReport, TaskSpec, run_grid, task_key
from ..analysis.reporting import render_table
from .bundle import make_bundle, write_bundle
from .generator import (
    EXPECTED_VIOLATION_LABELS,
    FuzzCase,
    FuzzConfig,
    generate_case,
)
from .runner import (
    STATUS_OK,
    STATUS_VIOLATION,
    FuzzOutcome,
    run_case,
)
from .shrinker import ShrinkResult, shrink

#: Dotted-path reference for the engine (picklable under ``spawn``).
FUZZ_CELL_RUNNER = "repro.chaos.campaign:fuzz_cell"


def fuzz_cell(
    *,
    case: dict[str, Any],
    shrink_violations: bool = True,
    shrink_max_runs: int = 300,
) -> dict[str, Any]:
    """Engine cell: run one case, shrink on violation, return a JSON row.

    The row embeds the full repro bundle for violations, so the engine's
    ``results.jsonl`` checkpoint doubles as the campaign's counterexample
    archive even when no ``bundle_dir`` is configured.
    """
    fuzz_case = FuzzCase.from_json_dict(case)
    outcome = run_case(fuzz_case)
    row: dict[str, Any] = {
        "case_id": fuzz_case.case_id,
        "seed": fuzz_case.seed,
        "label": fuzz_case.label,
        "n": fuzz_case.n,
        "d": fuzz_case.d,
        "f": fuzz_case.f,
        "workload": fuzz_case.workload,
        "scheduler": fuzz_case.scheduler,
        "status": outcome.status,
        "violation": (
            outcome.violation.to_json_dict()
            if outcome.violation is not None
            else None
        ),
        "error": outcome.error,
        "schedule_len": len(outcome.schedule),
        "messages_sent": outcome.messages_sent,
        "messages_delivered": outcome.messages_delivered,
        "states_checked": outcome.states_checked,
        "bundle": None,
        "shrink": None,
    }
    if outcome.status == STATUS_VIOLATION and shrink_violations:
        result = shrink(outcome, max_runs=shrink_max_runs)
        row["bundle"] = make_bundle(outcome, shrink_result=result)
        row["shrink"] = {
            "runs": result.runs,
            "minimal": result.minimal,
            "schedule_len": len(result.schedule),
            "reductions": len(result.reductions),
        }
    elif outcome.status == STATUS_VIOLATION:
        row["bundle"] = make_bundle(outcome)
    return row


@dataclass
class CampaignSummary:
    """Aggregated verdict of one fuzz campaign."""

    config: FuzzConfig
    iterations: int
    seed0: int
    report: EngineReport
    rows: list[dict[str, Any]] = field(default_factory=list)
    bundle_paths: list[str] = field(default_factory=list)

    @property
    def ok(self) -> int:
        return sum(1 for r in self.rows if r["status"] == STATUS_OK)

    @property
    def errors(self) -> int:
        return sum(1 for r in self.rows if r["status"] == "error") + (
            self.report.failed
        )

    @property
    def violations(self) -> list[dict[str, Any]]:
        return [r for r in self.rows if r["status"] == STATUS_VIOLATION]

    @property
    def expected_violations(self) -> list[dict[str, Any]]:
        """Violations in probe cases that deliberately break a premise."""
        return [
            r
            for r in self.violations
            if r["label"] in EXPECTED_VIOLATION_LABELS
        ]

    @property
    def unexpected_violations(self) -> list[dict[str, Any]]:
        """Violations where every premise held — implementation bugs."""
        return [
            r
            for r in self.violations
            if r["label"] not in EXPECTED_VIOLATION_LABELS
        ]

    def triage_table(self) -> str:
        """Counts per (label, violation kind) — the campaign's one-look view."""
        groups: dict[tuple[str, str], int] = {}
        for row in self.rows:
            kind = (
                row["violation"]["kind"]
                if row["violation"] is not None
                else ("error" if row["status"] == "error" else "-")
            )
            key = (row["label"], kind)
            groups[key] = groups.get(key, 0) + 1
        table_rows = [
            [label, kind, count]
            for (label, kind), count in sorted(groups.items())
        ]
        return render_table(
            "Fuzz campaign triage",
            ["label", "finding", "cases"],
            table_rows,
        )


def campaign_tasks(
    config: FuzzConfig, iterations: int, seed0: int = 0
) -> list[TaskSpec]:
    """The campaign grid: one :class:`TaskSpec` per case seed."""
    tasks = []
    for seed in range(seed0, seed0 + iterations):
        case = generate_case(config, seed)
        tasks.append(
            TaskSpec(
                key=task_key(case=case.case_id, profile=config.profile),
                runner=FUZZ_CELL_RUNNER,
                params={"case": case.to_json_dict()},
            )
        )
    return tasks


def run_campaign(
    config: FuzzConfig,
    iterations: int,
    *,
    seed0: int = 0,
    workers: int = 1,
    run_dir: str | Path | None = None,
    resume: bool = False,
    shrink_violations: bool = True,
    bundle_dir: str | Path | None = None,
    on_result: Callable[..., None] | None = None,
) -> CampaignSummary:
    """Run a fuzz campaign through the parallel experiment engine.

    ``run_dir`` + ``resume`` give checkpointed campaigns (the engine's
    JSONL journal); ``bundle_dir`` additionally writes each violation's
    repro bundle to ``<bundle_dir>/<case_id>.json``.
    """
    tasks = campaign_tasks(config, iterations, seed0)
    if shrink_violations is False:
        tasks = [
            TaskSpec(
                key=t.key,
                runner=t.runner,
                params={**dict(t.params), "shrink_violations": False},
            )
            for t in tasks
        ]
    report = run_grid(
        tasks,
        workers=workers,
        run_dir=run_dir,
        resume=resume,
        on_result=on_result,
    )
    rows = report.rows()
    bundle_paths: list[str] = []
    if bundle_dir is not None:
        for row in rows:
            if row.get("bundle") is not None:
                path = write_bundle(
                    row["bundle"],
                    Path(bundle_dir) / f"{row['case_id']}.json",
                )
                bundle_paths.append(str(path))
    return CampaignSummary(
        config=config,
        iterations=iterations,
        seed0=seed0,
        report=report,
        rows=rows,
        bundle_paths=bundle_paths,
    )


def hunt(
    config: FuzzConfig,
    *,
    budget: int = 64,
    seed0: int = 0,
    shrink_violations: bool = True,
    shrink_max_runs: int = 300,
) -> tuple[FuzzOutcome, ShrinkResult | None, int] | None:
    """Sequentially fuzz until the first violation (or budget exhaustion).

    Returns ``(outcome, shrink_result, seeds_tried)`` for the first
    violating case, or ``None`` if ``budget`` seeds all passed.  This is
    the self-test's path: with the ``below-bound`` profile it must find a
    resilience violation at ``n = (d+2)f`` within a small budget.
    """
    for offset in range(budget):
        case = generate_case(config, seed0 + offset)
        outcome = run_case(case)
        if outcome.status == STATUS_VIOLATION:
            result = (
                shrink(outcome, max_runs=shrink_max_runs)
                if shrink_violations
                else None
            )
            return outcome, result, offset + 1
    return None
