"""Crash-recovery across every runtime and durability mode.

The discrete-event simulator, the transport simulation, the lockstep
runtime, and the asyncio runtime all reanimate a recovered process;
durable recovery behaves as a slow process (the recoverer decides, every
paper property holds); amnesia and late-join keep safety while
termination may regress only for the recovered process itself; and the
historical no-recovery path stays bit-identical.  The simulator and
transport cells also pin their executions to golden run digests.
"""

import numpy as np
import pytest

from repro.core.invariants import check_all, check_termination
from repro.core.runner import run_convex_hull_consensus
from repro.runtime.asyncio_runtime import run_asyncio_consensus
from repro.runtime.faults import (
    AMNESIA,
    DURABLE,
    LATE_JOIN,
    FaultPlan,
    LinkFaultPlan,
    LinkFaultSpec,
)
from repro.runtime.lockstep import run_lockstep_consensus
from repro.runtime.scheduler import RandomScheduler, ScheduleRecorder


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(21)
    return rng.uniform(-1.0, 1.0, size=(5, 1))


def _plan(durability):
    return FaultPlan.crash_recover({4: (1, 1, 9)}, durability=durability)


def _recorded(link_faults=None):
    """A simulator-backed runtime whose scheduler decisions are recorded."""

    def run(inputs, plan):
        recorder = ScheduleRecorder(inner=RandomScheduler(seed=4))
        result = run_convex_hull_consensus(
            inputs,
            1,
            0.2,
            fault_plan=plan,
            seed=4,
            scheduler=recorder,
            input_bounds=(-1.0, 1.0),
            link_faults=link_faults,
        )
        return result, recorder.decisions

    return run


#: Each runtime returns ``(result, recorded scheduler decisions)``.
RUNTIMES = {
    "simulator": _recorded(),
    "transport": _recorded(
        LinkFaultPlan(default=LinkFaultSpec(loss=0.1), seed=2)
    ),
    "lockstep": lambda inputs, plan: (
        run_lockstep_consensus(
            inputs, 1, 0.2, fault_plan=plan, input_bounds=(-1.0, 1.0)
        ),
        (),
    ),
    "asyncio": lambda inputs, plan: (
        run_asyncio_consensus(
            inputs, 1, 0.2, fault_plan=plan, seed=4, input_bounds=(-1.0, 1.0)
        ),
        (),
    ),
}

#: Run digest (``tests/conftest.py::_run_digest``) per "durability-runtime"
#: cell of the deterministic simulator-backed runtimes.
GOLDEN = {
    "durable-simulator": "7febb8c04848f8e396798afc4e3c68fc13b05f22835750eedf148e2336016c23",
    "amnesia-simulator": "e8d0ca4ad7584b5ba6e0873d458a7523a2262dff4b0f8c1d14393452fc17126c",
    "late-join-simulator": "8d3e98fea331e58fd9d76477460898a3bf78daaa00a6611b18d98a9ebe61707c",
    "durable-transport": "12388ccb423df83f4b17ff6d35d630dfa702cbce9eb808954816d87c3fc39330",
    "amnesia-transport": "f0faccef478daab4801e818a4b4f93ea40a9d5db6931236a52d9cbcb8700f372",
    "late-join-transport": "ccc7b5a76911fd79459d8a224c54233292332c6eb1209a7146bf04cbd272f64b",
}


def _check_golden(result, decisions, durability, runtime, run_digest):
    golden = GOLDEN.get(f"{durability}-{runtime}")
    if golden is not None:
        assert run_digest(result.report, decisions) == golden, runtime


@pytest.mark.parametrize("runtime", sorted(RUNTIMES))
def test_durable_recovery_decides_everywhere(inputs, runtime, run_digest):
    result, decisions = RUNTIMES[runtime](inputs, _plan(DURABLE))
    assert 4 in result.report.recovered, runtime
    assert 4 in result.report.decided, runtime
    report = check_all(result.trace)
    assert report.ok, (runtime, report)
    _check_golden(result, decisions, DURABLE, runtime, run_digest)


@pytest.mark.parametrize("runtime", sorted(RUNTIMES))
@pytest.mark.parametrize("durability", [AMNESIA, LATE_JOIN])
def test_restart_modes_keep_safety_everywhere(
    inputs, runtime, durability, run_digest
):
    result, decisions = RUNTIMES[runtime](inputs, _plan(durability))
    assert 4 in result.report.recovered, runtime
    report = check_all(result.trace)
    # Safety must hold over every incarnation; termination may regress
    # only for the recovered process itself, and the regression must be
    # *reported* (recovered_undecided), never silently dropped.
    assert report.validity.ok, runtime
    assert report.agreement.ok, runtime
    term = report.termination
    assert term.ok, runtime
    if 4 not in result.report.decided:
        assert term.recovered_undecided == [4], runtime
    # The four fault-free processes always decide.
    assert set(result.report.decided) >= {0, 1, 2, 3}, runtime
    _check_golden(result, decisions, durability, runtime, run_digest)


def test_durable_stuck_recoverer_would_be_a_violation(inputs):
    # check_termination treats an undecided *durable* recoverer as stuck
    # (a durable recovery has no excuse not to decide); synthesize one.
    plan = _plan(DURABLE)
    result, _ = RUNTIMES["simulator"](inputs, plan)
    trace = result.trace
    proc = trace.processes[4]
    assert proc.decided
    proc.decided = False  # forge the failure the checker must flag
    term = check_termination(trace)
    assert not term.ok
    assert 4 in term.stuck


def test_no_recovery_path_is_bit_identical(inputs):
    # The same crash-stop plan, run before and after the recovery
    # machinery existed, must produce identical executions.  Proxy: a
    # plan without recoveries takes the historical code path (no store,
    # no manager) and repeated runs are byte-identical in decisions and
    # message counts.
    plan = FaultPlan.crash_at({4: (1, 1)})
    a = run_convex_hull_consensus(
        inputs, 1, 0.2, fault_plan=plan, seed=4, input_bounds=(-1.0, 1.0)
    )
    b = run_convex_hull_consensus(
        inputs, 1, 0.2, fault_plan=plan, seed=4, input_bounds=(-1.0, 1.0)
    )
    assert a.report.messages_sent == b.report.messages_sent
    assert a.report.delivery_steps == b.report.delivery_steps
    assert sorted(a.trace.outputs()) == sorted(b.trace.outputs())
    for pid, poly in a.trace.outputs().items():
        np.testing.assert_array_equal(
            poly.vertices, b.trace.outputs()[pid].vertices
        )
    assert a.report.recovered == [] and b.report.recovered == []


def test_recovery_trace_survives_serialization(inputs):
    from repro.analysis.serialization import trace_from_dict, trace_to_dict

    result, _ = RUNTIMES["simulator"](inputs, _plan(AMNESIA))
    round_tripped = trace_from_dict(trace_to_dict(result.trace))
    proc = round_tripped.processes[4]
    original = result.trace.processes[4]
    assert proc.recovered_at_step == original.recovered_at_step
    assert proc.recovery_durability == AMNESIA
    assert proc.restarts == original.restarts == 1
    assert len(proc.pre_recovery_states) == 1
    assert round_tripped.fault_plan.recovery_spec(4) is not None
    # The recovery-aware checkers read identically off the round trip.
    assert (
        check_all(round_tripped).termination.recovered_undecided
        == check_all(result.trace).termination.recovered_undecided
    )
