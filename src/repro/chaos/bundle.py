"""Repro bundles: self-contained, bit-identical counterexample files.

A bundle is one JSON document holding everything a replay needs, *pinned*
rather than re-derived: the sampled case recipe (for provenance), the
exact input points, the (possibly shrunk) fault plan, the full delivery
decision list, the violation it demonstrates, and a SHA-256 execution
fingerprint.  ``repro fuzz --replay bundle.json`` re-executes the run and
asserts the recomputed fingerprint matches the stored one — byte-for-byte
identity of every observable (schedule, counters, verdict).

Inputs are pinned as float lists (not regenerated from the workload
seed) so a bundle stays valid even if the workload generators evolve;
the schedule is pinned as ``[[src, dst], ...]`` decisions replayed by
:class:`~repro.runtime.scheduler.ReplayScheduler`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from ..runtime.faults import FaultPlan
from .generator import FuzzCase
from .runner import FuzzOutcome, outcome_fingerprint, replay_case
from .shrinker import ShrinkResult

BUNDLE_FORMAT = 1


def make_bundle(
    outcome: FuzzOutcome,
    *,
    shrink_result: ShrinkResult | None = None,
) -> dict[str, Any]:
    """Package a violating outcome (optionally shrunk) as a JSON document."""
    if outcome.violation is None:
        raise ValueError("repro bundles are for violations only")
    from .generator import build_inputs

    case = outcome.case
    inputs, input_bounds = build_inputs(case)
    if shrink_result is not None:
        plan = shrink_result.plan
        schedule = shrink_result.schedule
        pinned = shrink_result.outcome
        shrink_obj = {
            "runs": shrink_result.runs,
            "minimal": shrink_result.minimal,
            "reductions": list(shrink_result.reductions),
            "original_schedule_len": len(outcome.schedule),
        }
    else:
        plan = case.fault_plan
        schedule = outcome.schedule
        pinned = outcome
        shrink_obj = None
    return {
        "format": BUNDLE_FORMAT,
        "case": case.to_json_dict(),
        "inputs": np.asarray(inputs, dtype=float).tolist(),
        "input_bounds": list(input_bounds),
        "fault_plan": plan.to_json_dict(),
        "schedule": [[src, dst] for src, dst in schedule],
        "violation": (
            pinned.violation.to_json_dict()
            if pinned.violation is not None
            else outcome.violation.to_json_dict()
        ),
        "fingerprint": outcome_fingerprint(pinned),
        "shrink": shrink_obj,
    }


def write_bundle(bundle: Mapping[str, Any], path) -> Path:
    """Write a bundle to disk (stable key order, human-diffable)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(bundle, indent=2, sort_keys=True) + "\n")
    return target


def load_bundle(path) -> dict[str, Any]:
    """Read and version-check a bundle file."""
    data = json.loads(Path(path).read_text())
    if data.get("format") != BUNDLE_FORMAT:
        raise ValueError(
            f"unsupported bundle format {data.get('format')!r}; "
            f"this build reads format {BUNDLE_FORMAT}"
        )
    return data


def replay_bundle(bundle: Mapping[str, Any]) -> tuple[FuzzOutcome, bool]:
    """Re-execute a bundle and check bit-identity against its fingerprint.

    Returns ``(outcome, identical)`` where ``identical`` is True iff the
    replayed execution's fingerprint equals the stored one — same
    schedule, same message counters, same verdict.
    """
    case = FuzzCase.from_json_dict(bundle["case"])
    outcome = replay_case(
        case,
        FaultPlan.from_json_dict(bundle["fault_plan"]),
        tuple((int(s), int(d)) for s, d in bundle["schedule"]),
        inputs=np.asarray(bundle["inputs"], dtype=float),
        input_bounds=tuple(bundle["input_bounds"]),
    )
    return outcome, outcome_fingerprint(outcome) == bundle["fingerprint"]
