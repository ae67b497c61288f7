"""Execute one fuzz case with online invariant checking and recording.

A case runs through the deterministic discrete-event simulator with two
instruments attached:

* a :class:`~repro.core.invariants.StreamingInvariantChecker` polls the
  live traces after every delivery and *aborts the run* at the first
  violated streamable invariant (validity, stable-vector liveness /
  containment) — a violating case costs only as much execution as it
  takes to expose the bug;
* a :class:`~repro.runtime.scheduler.ScheduleRecorder` captures the full
  delivery decision list, which is what makes shrinking and bit-identical
  replay possible.

Validity and the stable-vector properties are checked once, online: the
streaming checker sees every state and view a post-hoc pass would, so a
run it passed is checked after the fact only for the end-state
properties — termination, ε-agreement and Lemma 6.

Outcome taxonomy mirrors :mod:`repro.analysis.sweeps`: ``"ok"`` (ran to
completion, every paper property held), ``"violation"`` (a property
failed — online, as a protocol-level exception, or in the end-state
checks), ``"error"`` (the harness itself raised; never expected, always
a finding about the *fuzzer*).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.algorithm_cc import EmptyInitialPolytopeError
from ..core.config import ResilienceError
from ..core.invariants import (
    OnlineViolation,
    StreamingInvariantChecker,
    check_agreement,
    check_optimality,
    check_termination,
    has_views,
)
from ..core.runner import run_convex_hull_consensus
from ..runtime.faults import FaultPlan
from ..runtime.network import ChannelError
from ..runtime.scheduler import ReplayScheduler, ScheduleRecorder, Scheduler
from ..runtime.simulator import SimulationError
from ..runtime.tracing import ExecutionTrace
from .generator import FuzzCase, build_inputs, build_scheduler

STATUS_OK = "ok"
STATUS_VIOLATION = "violation"
STATUS_ERROR = "error"


@dataclass(frozen=True)
class ViolationRecord:
    """What failed, where — the unit the shrinker preserves.

    ``kind`` is the coarse invariant family (``"validity"``,
    ``"agreement"``, ``"termination"``, ``"optimality"``,
    ``"stable-vector-liveness"``, ``"stable-vector-containment"``,
    ``"empty-initial-polytope"``, ``"channel-contract"``); shrinking only
    requires the *kind* to survive a reduction, not the exact magnitude
    in ``detail``.
    """

    kind: str
    detail: str
    pid: int | None = None
    round_index: int | None = None

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "pid": self.pid,
            "round_index": self.round_index,
        }


@dataclass
class FuzzOutcome:
    """Everything one case execution produced."""

    case: FuzzCase
    status: str
    violation: ViolationRecord | None = None
    error: str | None = None
    schedule: tuple[tuple[int, int], ...] = ()
    messages_sent: int = 0
    messages_delivered: int = 0
    delivery_steps: int = 0
    states_checked: int = 0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


def _end_state_violation(trace: ExecutionTrace) -> ViolationRecord | None:
    """The first failed end-state property of a run checked online."""
    termination = check_termination(trace)
    if not termination.ok:
        return ViolationRecord(
            kind="termination",
            detail=f"undecided non-crashed processes: {termination.stuck}",
        )
    agreement = check_agreement(trace)
    if not agreement.ok:
        return ViolationRecord(
            kind="agreement",
            detail=(
                f"disagreement {agreement.disagreement:.6g} >= "
                f"eps {agreement.eps}"
            ),
        )
    if not has_views(trace):
        return None
    optimality = check_optimality(trace)
    if optimality.violations:
        pid, t, excess = optimality.violations[0]
        return ViolationRecord(
            kind="optimality",
            detail=f"I_Z not contained in h_{pid}[{t}] (excess {excess:.6g})",
            pid=pid,
            round_index=t,
        )
    return None


def run_case(
    case: FuzzCase,
    *,
    plan: FaultPlan | None = None,
    scheduler: Scheduler | None = None,
    inputs: np.ndarray | None = None,
    input_bounds: tuple[float, float] | None = None,
) -> FuzzOutcome:
    """Run one case (or a shrunk variant of it) and classify the outcome.

    The overrides exist for the shrinker and for bundle replay: a shrunk
    fault plan, a pinned :class:`ReplayScheduler`, or pinned inputs
    replace the case-derived artefacts while everything else stays
    identical.
    """
    try:
        if inputs is None:
            inputs, derived_bounds = build_inputs(case)
            if input_bounds is None:
                input_bounds = derived_bounds
        elif input_bounds is None:
            from ..core.runner import derive_bounds

            input_bounds = derive_bounds(np.asarray(inputs), margin=0.1)
        fault_plan = (
            plan if plan is not None else case.fault_plan.validate(case.n)
        )
        base = scheduler if scheduler is not None else build_scheduler(case)
    except Exception as exc:  # noqa: BLE001 — a broken recipe is an error
        return FuzzOutcome(
            case=case,
            status=STATUS_ERROR,
            error=f"{type(exc).__name__}: {exc}",
        )
    recorder = ScheduleRecorder(inner=base)
    checker = StreamingInvariantChecker()

    def snapshot(status: str, violation=None, error=None, result=None):
        return FuzzOutcome(
            case=case,
            status=status,
            violation=violation,
            error=error,
            schedule=tuple(recorder.decisions),
            messages_sent=(
                result.report.messages_sent if result is not None else 0
            ),
            messages_delivered=(
                result.report.messages_delivered if result is not None else 0
            ),
            delivery_steps=(
                result.report.delivery_steps if result is not None else 0
            ),
            states_checked=checker.states_checked,
        )

    try:
        result = run_convex_hull_consensus(
            inputs,
            case.f,
            case.eps,
            fault_plan=fault_plan,
            scheduler=recorder,
            seed=case.scheduler_seed,
            input_bounds=input_bounds,
            enforce_resilience=case.enforce_resilience,
            observer=checker,
            link_faults=case.link_faults,
            reliable_transport=case.reliable_transport,
            algorithm=case.algorithm,
        )
    except OnlineViolation as violation:
        return snapshot(
            STATUS_VIOLATION,
            violation=ViolationRecord(
                kind=violation.kind,
                detail=violation.detail,
                pid=violation.pid,
                round_index=violation.round_index,
            ),
        )
    except EmptyInitialPolytopeError as exc:
        return snapshot(
            STATUS_VIOLATION,
            violation=ViolationRecord(
                kind="empty-initial-polytope", detail=str(exc)
            ),
        )
    except ChannelError as exc:
        # The delivery-boundary oracle: the transport handed the
        # application something other than the FIFO exactly-once stream.
        # Reachable only with the recovery layer bypassed (raw mode) or
        # on a genuine transport bug — either way it is the channel
        # *contract* that failed, not a protocol property.
        return snapshot(
            STATUS_VIOLATION,
            violation=ViolationRecord(
                kind="channel-contract", detail=str(exc)
            ),
        )
    except SimulationError as exc:
        # Quiescence with undecided fault-free processes = Termination
        # violated; a runaway loop is also a (liveness-flavoured) finding.
        # TransportBudgetError lands here too: a never-healing partition
        # exhausts the delivery budget instead of hanging.
        return snapshot(
            STATUS_VIOLATION,
            violation=ViolationRecord(kind="termination", detail=str(exc)),
        )
    except ResilienceError as exc:
        return snapshot(STATUS_ERROR, error=f"ResilienceError: {exc}")
    except Exception as exc:  # noqa: BLE001 — fuzzing isolates all failures
        return snapshot(
            STATUS_ERROR, error=f"{type(exc).__name__}: {exc}"
        )

    violation = _end_state_violation(result.trace)
    if violation is not None:
        return snapshot(STATUS_VIOLATION, violation=violation, result=result)
    return snapshot(STATUS_OK, result=result)


def replay_case(
    case: FuzzCase,
    plan: FaultPlan,
    schedule,
    *,
    inputs: np.ndarray | None = None,
    input_bounds: tuple[float, float] | None = None,
) -> FuzzOutcome:
    """Run a case under a pinned (plan, schedule) pair — the replay path.

    Used by both the shrinker (candidate reductions) and repro bundles
    (final counterexamples).  Fully deterministic: the schedule pins
    every delivery decision and :class:`ReplayScheduler` degrades
    deterministically past the end of an edited list.
    """
    return run_case(
        case,
        plan=plan,
        scheduler=ReplayScheduler(decisions=tuple(schedule)),
        inputs=inputs,
        input_bounds=input_bounds,
    )


def outcome_fingerprint(outcome: FuzzOutcome) -> str:
    """SHA-256 over the canonical observables of one execution.

    Two runs with equal fingerprints made the same delivery decisions
    and reached the same verdict — the byte-for-byte identity repro
    bundles assert on replay.
    """
    payload = {
        "case_id": outcome.case.case_id,
        "status": outcome.status,
        "violation": (
            outcome.violation.to_json_dict()
            if outcome.violation is not None
            else None
        ),
        "error": outcome.error,
        "schedule": [[src, dst] for src, dst in outcome.schedule],
        "messages_sent": outcome.messages_sent,
        "messages_delivered": outcome.messages_delivered,
        "delivery_steps": outcome.delivery_steps,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
