"""Streaming invariant checker: online detection of the prefix-closed
properties (validity, stable-vector liveness/containment)."""

import numpy as np
import pytest

from repro.core.invariants import (
    OnlineViolation,
    StreamingInvariantChecker,
    check_stable_vector,
    check_validity,
)
from repro.core.runner import run_convex_hull_consensus
from repro.geometry.polytope import ConvexPolytope
from repro.runtime.faults import (
    AMNESIA,
    DURABLE,
    LATE_JOIN,
    FaultPlan,
    LinkFaultPlan,
    LinkFaultSpec,
)
from repro.runtime.messages import InputTuple


@pytest.fixture()
def clean_run():
    rng = np.random.default_rng(21)
    inputs = rng.uniform(-1.0, 1.0, size=(5, 1))
    return run_convex_hull_consensus(inputs, 1, 0.2, seed=2)


def _bound_checker(result):
    checker = StreamingInvariantChecker()
    checker.bind(
        result.trace.processes, result.trace.fault_plan, result.config
    )
    return checker


class TestObserverWiring:
    def test_observer_polls_during_a_run(self):
        rng = np.random.default_rng(8)
        inputs = rng.uniform(-1.0, 1.0, size=(5, 1))
        checker = StreamingInvariantChecker()
        run_convex_hull_consensus(inputs, 1, 0.2, seed=2, observer=checker)
        assert checker.polls > 0
        assert checker.states_checked > 0
        assert checker.views_checked > 0

    def test_poll_before_bind_raises(self):
        with pytest.raises(RuntimeError, match="bind"):
            StreamingInvariantChecker().poll()

    def test_crashy_run_stays_clean(self):
        rng = np.random.default_rng(9)
        inputs = rng.uniform(-1.0, 1.0, size=(5, 1))
        plan = FaultPlan.crash_at({4: (0, 2)})
        checker = StreamingInvariantChecker()
        run_convex_hull_consensus(
            inputs, 1, 0.2, fault_plan=plan, seed=2, observer=checker
        )
        assert checker.polls > 0


class TestIncrementalChecking:
    def test_each_state_checked_exactly_once(self, clean_run):
        checker = _bound_checker(clean_run)
        checker.poll()
        after_first = checker.states_checked
        assert after_first > 0
        checker.poll()  # nothing new since: no re-checking
        assert checker.states_checked == after_first

    def test_detects_validity_violation_in_new_state(self, clean_run):
        checker = _bound_checker(clean_run)
        checker.poll()
        proc = clean_run.trace.processes[0]
        # A "state" far outside the correct-input hull, appearing later.
        far = ConvexPolytope.from_points(np.array([[50.0]]))
        proc.states[99] = far
        try:
            with pytest.raises(OnlineViolation) as exc_info:
                checker.poll()
            assert exc_info.value.kind == "validity"
            assert exc_info.value.pid == proc.pid
            assert exc_info.value.round_index == 99
        finally:
            del proc.states[99]  # session-scoped fixture data elsewhere

    def test_detects_starved_view(self, clean_run):
        checker = StreamingInvariantChecker()
        trace = clean_run.trace
        checker.bind(trace.processes, trace.fault_plan, clean_run.config)
        proc = trace.processes[0]
        original = proc.r_view
        proc.r_view = tuple(original[:1])  # |R_i| = 1 < n - f
        try:
            with pytest.raises(OnlineViolation) as exc_info:
                checker.poll()
            assert exc_info.value.kind == "stable-vector-liveness"
        finally:
            proc.r_view = original

    def test_detects_incomparable_views(self, clean_run):
        checker = StreamingInvariantChecker()
        trace = clean_run.trace
        checker.bind(trace.processes, trace.fault_plan, clean_run.config)
        n, f = trace.n, trace.f
        proc = trace.processes[0]
        original = proc.r_view
        # Replace one entry so this view and a full peer view are
        # incomparable (same size as n-f but different membership).
        fake = InputTuple(value=(123.0,), sender=proc.pid)
        proc.r_view = tuple(list(original[: n - f - 1]) + [fake])
        try:
            with pytest.raises(OnlineViolation) as exc_info:
                checker.poll()
            assert exc_info.value.kind == "stable-vector-containment"
        finally:
            proc.r_view = original


@pytest.fixture(scope="module")
def byzantine_run():
    rng = np.random.default_rng(21)
    inputs = rng.uniform(-1.0, 1.0, size=(5, 1))
    plan = FaultPlan.byzantine_at([4], behaviors=("omit",))
    return run_convex_hull_consensus(inputs, 1, 0.2, fault_plan=plan, seed=2)


class TestSameQuantifierAsPostHoc:
    """The streaming and post-hoc stable-vector checks exempt the same
    (Byzantine) pids, so one online pass can stand in for both."""

    @pytest.mark.parametrize("pid,flagged", [(4, False), (0, True)])
    def test_incomparable_view(self, byzantine_run, pid, flagged):
        trace = byzantine_run.trace
        proc = trace.processes[pid]
        original = proc.r_view
        # n - f - 1 entries of a correct view plus one tuple no view
        # holds: inclusion-incomparable with every completed view.
        correct_view = trace.processes[0].r_view
        fake = InputTuple(value=(123.0,), sender=pid)
        proc.r_view = tuple(correct_view[: trace.n - trace.f - 1]) + (fake,)
        try:
            post_hoc_ok = check_stable_vector(trace).containment_ok
            try:
                _bound_checker(byzantine_run).poll()
                streamed_ok = True
            except OnlineViolation as exc:
                assert exc.kind == "stable-vector-containment"
                streamed_ok = False
        finally:
            proc.r_view = original
        assert post_hoc_ok == streamed_ok == (not flagged)


def _inputs(n, d, seed):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, d))


#: name -> (inputs, fault plan, link-fault plan).  Each run exercises
#: one way states or views can be recorded: a crash after round 0, an
#: incarnation discarded with its view and state (amnesia, late-join), a
#: durable restore over lossy links, a Byzantine pid, and a 2-d run.
COVERAGE_RUNS = {
    "crash": (_inputs(5, 1, 9), FaultPlan.crash_at({4: (1, 1)}), None),
    "amnesia-restart": (
        _inputs(5, 1, 19),
        FaultPlan.crash_recover({4: (1, 1, 20)}, durability=AMNESIA),
        None,
    ),
    "late-join-restart": (
        _inputs(5, 1, 19),
        FaultPlan.crash_recover({4: (1, 1, 20)}, durability=LATE_JOIN),
        None,
    ),
    "durable-restart-lossy": (
        _inputs(5, 1, 19),
        FaultPlan.crash_recover({4: (0, 2, 12)}, durability=DURABLE),
        LinkFaultPlan(default=LinkFaultSpec(loss=0.15, dup=0.1, delay=2), seed=7),
    ),
    "byzantine": (
        _inputs(5, 1, 21),
        FaultPlan.byzantine_at([4], behaviors=("omit",)),
        None,
    ),
    "plain-2d": (_inputs(5, 2, 3), FaultPlan.none(), None),
}


class TestStreamingCoversPostHoc:
    """Everything the post-hoc validity and stable-vector checks look at
    was already checked online — the premise of checking them once."""

    @pytest.mark.parametrize("name", sorted(COVERAGE_RUNS))
    def test_same_states_and_views(self, name):
        inputs, plan, links = COVERAGE_RUNS[name]
        checker = StreamingInvariantChecker()
        result = run_convex_hull_consensus(
            inputs,
            1,
            0.2,
            fault_plan=plan,
            seed=2,
            input_bounds=(-1.0, 1.0),
            observer=checker,
            link_faults=links,
        )
        trace = result.trace
        for pid, spec in plan.recoveries.items():
            assert pid in result.report.recovered
            if spec.durability != DURABLE:
                assert trace.processes[pid].pre_recovery_states
        assert checker.states_checked == check_validity(trace).checked_states
        current_views = {
            proc.pid: frozenset(proc.r_view)
            for proc in trace.processes
            if proc.r_view is not None and proc.pid not in plan.byzantine
        }
        assert current_views
        # ``_views`` holds the view each pid's current incarnation
        # streamed.
        assert checker._views == current_views
