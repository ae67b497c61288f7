"""Counterexample shrinking: delta-debug a violating case to local minimum.

A raw fuzz hit is noisy — several crashed processes, crash cuts deep into
a broadcast, thousands of recorded delivery decisions, most of them
irrelevant.  The shrinker reduces the case's
:class:`~repro.runtime.faults.FaultPlan` and its schedule, re-running the
case after every candidate reduction and keeping it only if the *same
violation kind* still fires:

1. **Drop faulty processes** — remove a pid from the fault plan entirely
   (it becomes a correct process with its current input).
2. **Tame Byzantine adversaries** — demote a Byzantine pid to plain
   faulty (its engine disappears; if the violation survives, the lies
   were irrelevant), then drop individual behaviors from multi-behavior
   specs so the surviving counterexample names the *one* lie that bites.
3. **Drop recoveries** — demote a crash-recover pid to plain crash-stop
   (if the violation survives, recovery was irrelevant to it); surviving
   recoveries get their ``recover_at`` delay halved toward 1.
4. **Reduce crash specs** — push ``after_sends`` toward 0 (crash before
   the broadcast rather than mid-way) and ``round_index`` toward 0,
   greedily with halving steps.
5. **Shrink the schedule** — ddmin over the recorded decision list:
   remove contiguous segments at halving granularity down to single
   decisions (greedy prefix removal falls out of the first pass).  The
   edited list stays executable because
   :class:`~repro.runtime.scheduler.ReplayScheduler` skips unmatchable
   decisions and falls back deterministically when the list runs dry.

The result is *locally minimal*: no single remaining reduction of any
axis preserves the violation (unless the run budget was exhausted first,
which the result reports honestly via ``minimal=False``).

Every candidate evaluation is one deterministic simulation; violating
candidates abort at the violation (online checking), so shrinking cost
is dominated by the *shortest* reproductions, not the original one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

from ..runtime.faults import FaultPlan
from .generator import FuzzCase
from .runner import FuzzOutcome, ViolationRecord, replay_case

Schedule = tuple[tuple[int, int], ...]


@dataclass
class ShrinkResult:
    """A locally-minimal counterexample plus the path that led to it."""

    case: FuzzCase
    plan: FaultPlan
    schedule: Schedule
    violation: ViolationRecord
    outcome: FuzzOutcome
    runs: int = 0
    minimal: bool = False
    reductions: list[str] = field(default_factory=list)

    @property
    def schedule_len(self) -> int:
        return len(self.schedule)


def _without(specs: dict[int, Any], pid: int) -> dict[int, Any]:
    return {p: spec for p, spec in specs.items() if p != pid}


def _drop_pid(plan: FaultPlan, pid: int) -> FaultPlan:
    """The plan with ``pid`` fully healthy (correct input, no crash)."""
    return FaultPlan(
        faulty=plan.faulty - {pid},
        crashes=_without(plan.crashes, pid),
        incorrect_inputs=(
            None
            if plan.incorrect_inputs is None
            else plan.incorrect_inputs - {pid}
        ),
        recoveries=_without(plan.recoveries, pid),
        byzantine=_without(plan.byzantine, pid),
    )


def _replaced(specs: dict[int, Any], pid: int, **changes) -> dict[int, Any]:
    """``specs`` with ``changes`` applied to ``pid``'s entry."""
    return {**specs, pid: replace(specs[pid], **changes)}


def _halving_candidates(value: int) -> list[int]:
    """0, value//2, value-1 ... the greedy reduction ladder for one int."""
    ladder = []
    for candidate in (0, value // 2, value - 1):
        if 0 <= candidate < value and candidate not in ladder:
            ladder.append(candidate)
    return ladder


def shrink(outcome: FuzzOutcome, *, max_runs: int = 300) -> ShrinkResult:
    """Delta-debug a violating outcome down to a locally-minimal one.

    ``max_runs`` caps the number of candidate simulations (the shrink is
    abandoned mid-way if exhausted; the best-so-far reduction is still
    returned, flagged non-minimal).
    """
    if outcome.violation is None:
        raise ValueError("can only shrink a violating outcome")
    case = outcome.case
    kind = outcome.violation.kind
    plan = case.fault_plan
    schedule: Schedule = tuple(outcome.schedule)
    runs = 0
    progress = True
    reductions: list[str] = []

    def budget_left() -> bool:
        return runs < max_runs

    def attempt(candidate_plan: FaultPlan, candidate_schedule: Schedule):
        """One candidate execution; returns its outcome iff it violates."""
        nonlocal runs
        if not budget_left():
            return None
        runs += 1
        result = replay_case(case, candidate_plan, candidate_schedule)
        if (
            result.status == "violation"
            and result.violation is not None
            and result.violation.kind == kind
        ):
            return result
        return None

    def keep(
        candidate_plan: FaultPlan, candidate_schedule: Schedule, text: str
    ) -> bool:
        """Adopt a candidate reduction iff it still shows the violation."""
        nonlocal plan, schedule, best, progress
        result = attempt(candidate_plan, candidate_schedule)
        if result is None:
            return False
        plan, schedule = candidate_plan, candidate_schedule
        best, progress = result, True
        reductions.append(text)
        return True

    def lower(
        value: int, floor: int, build: Callable[[int], FaultPlan], label: str
    ) -> None:
        """Walk one integer spec field down its halving ladder to ``floor``;
        ``build(v)`` is the current plan with that field set to ``v``."""
        while value > floor and budget_left():
            for candidate in _halving_candidates(value):
                if candidate >= floor and keep(
                    build(candidate), schedule, f"{label} {value} -> {candidate}"
                ):
                    value = candidate
                    break
            else:
                break

    # Sanity: the recorded schedule must reproduce the original violation.
    # (It always does — the recording *is* the execution — but a failed
    # replay here would mean a determinism bug, the worst kind; refuse to
    # "shrink" into a different bug.)
    baseline = attempt(plan, schedule)
    if baseline is None:
        return ShrinkResult(
            case=case,
            plan=plan,
            schedule=schedule,
            violation=outcome.violation,
            outcome=outcome,
            runs=runs,
            minimal=False,
            reductions=["replay-mismatch: recorded schedule did not reproduce"],
        )
    best = baseline

    while progress and budget_left():
        progress = False

        # Pass 1 — drop whole faulty processes.
        for pid in sorted(plan.faulty):
            keep(
                _drop_pid(plan, pid), schedule, f"dropped faulty process {pid}"
            )

        # Pass 1b — tame Byzantine adversaries: first demote a pid to
        # plain faulty (no engine at all; pass 1 may then drop it
        # entirely), then strip behaviors from multi-behavior specs so
        # the minimal case names the one lie that matters.
        for pid in sorted(plan.byzantine):
            keep(
                replace(plan, byzantine=_without(plan.byzantine, pid)),
                schedule,
                f"demoted Byzantine process {pid} to plain faulty",
            )
        for pid in sorted(plan.byzantine):
            changed = True
            while (
                len(plan.byzantine[pid].behaviors) > 1
                and changed
                and budget_left()
            ):
                behaviors = plan.byzantine[pid].behaviors
                changed = any(
                    keep(
                        replace(
                            plan,
                            byzantine=_replaced(
                                plan.byzantine,
                                pid,
                                behaviors=tuple(
                                    b for b in behaviors if b != drop
                                ),
                            ),
                        ),
                        schedule,
                        f"byzantine({pid}): dropped behavior {drop!r}",
                    )
                    for drop in behaviors
                )

        # Pass 2 — drop recoveries (crash-recover -> crash-stop), then
        # halve the recover_at delay of the recoveries that must stay.
        for pid in sorted(plan.recoveries):
            keep(
                replace(plan, recoveries=_without(plan.recoveries, pid)),
                schedule,
                f"dropped recovery of process {pid}",
            )
        for pid in sorted(plan.recoveries):
            lower(
                plan.recoveries[pid].recover_at,
                1,
                lambda at: replace(
                    plan,
                    recoveries=_replaced(plan.recoveries, pid, recover_at=at),
                ),
                f"recovery({pid}): recover_at",
            )

        # Pass 3 — reduce crash specs (after_sends first, then round).
        for pid in sorted(plan.crashes):
            lower(
                plan.crashes[pid].after_sends,
                0,
                lambda k: replace(
                    plan, crashes=_replaced(plan.crashes, pid, after_sends=k)
                ),
                f"crash({pid}): after_sends",
            )
            lower(
                plan.crashes[pid].round_index,
                0,
                lambda r: replace(
                    plan, crashes=_replaced(plan.crashes, pid, round_index=r)
                ),
                f"crash({pid}): round",
            )

        # Pass 4 — ddmin the schedule (prefix removal is segment removal
        # at offset 0, so it is covered by the first iteration).
        segment = max(len(schedule) // 2, 1)
        while segment >= 1 and budget_left():
            removed = False
            offset = 0
            while offset < len(schedule) and budget_left():
                candidate = schedule[:offset] + schedule[offset + segment:]
                if keep(
                    plan,
                    candidate,
                    f"schedule: removed decisions "
                    f"[{offset}:{offset + segment}] "
                    f"({len(schedule)} -> {len(candidate)})",
                ):
                    removed = True
                else:
                    offset += segment
            if segment == 1 and not removed:
                break
            segment = max(segment // 2, 1) if not removed else segment

    return ShrinkResult(
        case=case,
        plan=plan,
        schedule=schedule,
        violation=best.violation,
        outcome=best,
        runs=runs,
        minimal=not progress and budget_left(),
        reductions=reductions,
    )
