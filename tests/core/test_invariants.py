"""Tests for the paper-property invariant checkers."""

import numpy as np
import pytest

from repro.core.invariants import (
    check_agreement,
    check_all,
    check_optimality,
    check_stable_vector,
    check_termination,
    check_validity,
)
from repro.geometry.polytope import ConvexPolytope
from repro.runtime.tracing import ExecutionTrace, ProcessTrace
from repro.runtime.faults import FaultPlan
from repro.runtime.messages import InputTuple


@pytest.mark.slow
class TestOnRealRuns:
    def test_full_report_ok(self, all_session_runs):
        for result in all_session_runs:
            report = check_all(result.trace)
            assert report.ok, (
                result.trace.scheduler_name,
                report.validity.violations[:2],
                report.optimality.violations[:2],
            )

    def test_validity_counts_states(self, benign_2d_run):
        report = check_validity(benign_2d_run.trace)
        expected = sum(
            len(p.states) for p in benign_2d_run.trace.processes
        )
        assert report.checked_states == expected

    def test_agreement_reports_eps(self, benign_1d_run):
        report = check_agreement(benign_1d_run.trace)
        assert report.eps == benign_1d_run.config.eps
        assert report.disagreement < report.eps

    def test_stable_vector_views(self, round0_crash_run):
        report = check_stable_vector(round0_crash_run.trace)
        assert report.ok
        n, f = round0_crash_run.trace.n, round0_crash_run.trace.f
        assert all(size >= n - f for size in report.view_sizes)

    def test_iz_contained_in_every_output(self, all_session_runs):
        for result in all_session_runs:
            report = check_optimality(result.trace)
            iz = report.iz
            assert not iz.is_empty
            for poly in result.fault_free_outputs.values():
                assert poly.contains_polytope(iz, tol=1e-6)


class TestDetectsViolations:
    def _synthetic_trace(
        self, states_by_pid, inputs, decided=True, fault_plan=FaultPlan.none()
    ):
        n = len(inputs)
        procs = []
        for pid in range(n):
            trace = ProcessTrace(pid=pid, input_point=np.asarray(inputs[pid]))
            trace.states = dict(states_by_pid[pid])
            trace.decided = decided
            trace.r_view = tuple(
                InputTuple(value=tuple(map(float, inputs[k])), sender=k)
                for k in range(n)
            )
            procs.append(trace)
        return ExecutionTrace(
            n=n,
            f=1,
            dim=1,
            eps=0.1,
            t_end=1,
            fault_plan=fault_plan,
            seed=0,
            scheduler_name="synthetic",
            processes=procs,
        )

    def test_validity_violation_detected(self):
        inputs = [[0.0], [0.2], [0.4], [0.6]]
        bad = ConvexPolytope.from_interval(0.0, 5.0)  # exceeds hull [0, .6]
        good = ConvexPolytope.from_interval(0.2, 0.4)
        trace = self._synthetic_trace(
            {0: {0: bad, 1: good}, 1: {0: good, 1: good},
             2: {0: good, 1: good}, 3: {0: good, 1: good}},
            inputs,
        )
        report = check_validity(trace)
        assert not report.ok
        assert report.violations[0][0] == 0  # pid
        assert report.worst_excess > 4.0

    def test_agreement_violation_detected(self):
        inputs = [[0.0], [0.2], [0.4], [0.6]]
        a = ConvexPolytope.from_interval(0.0, 0.1)
        b = ConvexPolytope.from_interval(0.5, 0.6)
        trace = self._synthetic_trace(
            {0: {1: a}, 1: {1: b}, 2: {1: a}, 3: {1: a}}, inputs
        )
        report = check_agreement(trace)
        assert not report.ok
        assert report.disagreement == pytest.approx(0.5)

    def test_termination_violation_detected(self):
        inputs = [[0.0], [0.2], [0.4], [0.6]]
        poly = ConvexPolytope.from_interval(0.2, 0.4)
        trace = self._synthetic_trace(
            {pid: {1: poly} for pid in range(4)}, inputs, decided=False
        )
        report = check_termination(trace)
        assert not report.ok
        assert len(report.stuck) == 4

    def test_optimality_violation_detected(self):
        inputs = [[0.0], [0.2], [0.4], [0.6]]
        # I_Z for these inputs with f=1 is [0.2, 0.4]; a state that is a
        # single point cannot contain it.
        tiny = ConvexPolytope.singleton([0.3])
        trace = self._synthetic_trace(
            {pid: {1: tiny} for pid in range(4)}, inputs
        )
        report = check_optimality(trace)
        assert not report.ok

    def test_optimality_exempts_byzantine_pids(self):
        """Lemma 6 quantifies over correct processes, as validity does: a
        Byzantine pid's honest-core states are counted, never flagged."""
        inputs = [[0.0], [0.2], [0.4], [0.6]]
        tiny = ConvexPolytope.singleton([0.3])  # I_Z is [0.2, 0.4]
        good = ConvexPolytope.from_interval(0.1, 0.5)
        trace = self._synthetic_trace(
            {0: {1: tiny, 2: tiny}, 1: {1: good}, 2: {1: good}, 3: {1: good}},
            inputs,
            fault_plan=FaultPlan.byzantine_at([0]),
        )
        report = check_optimality(trace)
        assert report.ok, report.violations
        assert report.adversary_states == 2
        assert report.checked_states == 3
        trace.fault_plan = FaultPlan.none()
        report = check_optimality(trace)
        assert [v[0] for v in report.violations] == [0, 0]
        assert report.adversary_states == 0

    def test_containment_violation_detected(self):
        inputs = [[0.0], [0.2], [0.4], [0.6]]
        poly = ConvexPolytope.from_interval(0.2, 0.4)
        trace = self._synthetic_trace(
            {pid: {1: poly} for pid in range(4)}, inputs
        )
        # Corrupt the views so they are incomparable.
        trace.processes[0].r_view = trace.processes[0].r_view[:2]
        trace.processes[1].r_view = trace.processes[1].r_view[2:]
        report = check_stable_vector(trace)
        assert not report.containment_ok
