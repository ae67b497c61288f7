"""Tests for the synchronous lockstep runtime."""

import numpy as np
import pytest

from repro.core.invariants import check_all
from repro.core.matrix import verify_state_evolution
from repro.runtime.faults import FaultPlan
from repro.runtime.lockstep import run_lockstep_consensus
from repro.workloads import gaussian_cluster, uniform_box

#: Run digests (``tests/conftest.py::_run_digest``) of the crash-plan
#: cases; lockstep has no scheduler, so no decisions enter them.
GOLDEN = {
    "crash_plan_respected": (
        "806f3cf469922901cfbe8e02f86f5fe42e7ecde0919238aaa8da32168e957ca3"
    ),
    "round0_mid_broadcast_crash": (
        "edfb9f7cf3e361813f308d9ae587d77b6fa1672ae6bf6610d1d28f6074e9d4c1"
    ),
}


class TestLockstep:
    def test_fault_free_run(self):
        inputs = uniform_box(5, 1, seed=0)
        result = run_lockstep_consensus(inputs, 1, 0.3)
        assert sorted(result.report.decided) == [0, 1, 2, 3, 4]
        assert check_all(result.trace).ok

    def test_fully_deterministic(self):
        # No seed anywhere: two runs must be bitwise identical.
        inputs = uniform_box(5, 1, seed=1)
        a = run_lockstep_consensus(inputs, 1, 0.3)
        b = run_lockstep_consensus(inputs, 1, 0.3)
        assert a.report.delivery_steps == b.report.delivery_steps
        for pid in a.outputs:
            assert a.outputs[pid].approx_equal(b.outputs[pid], tol=0.0)

    def test_zero_skew_views(self):
        # In lockstep everyone hears everyone: full views, quorums = all.
        inputs = uniform_box(6, 1, seed=2)
        result = run_lockstep_consensus(inputs, 1, 0.3)
        for proc in result.trace.processes:
            assert len(proc.r_view) == 6

    def test_instant_agreement(self):
        # With identical full views, round-0 states coincide and stay so.
        inputs = uniform_box(6, 1, seed=3)
        result = run_lockstep_consensus(inputs, 1, 0.3)
        from repro.analysis.metrics import convergence_series

        series = convergence_series(result.trace)
        assert all(d < 1e-12 for d in series.disagreement)

    def test_crash_plan_respected(self, run_digest):
        inputs = uniform_box(6, 1, seed=4)
        plan = FaultPlan.crash_at({5: (1, 2)})
        result = run_lockstep_consensus(inputs, 1, 0.3, fault_plan=plan)
        assert result.report.crashed == [5]
        assert check_all(result.trace).ok
        assert run_digest(result.report) == GOLDEN["crash_plan_respected"]

    def test_round0_mid_broadcast_crash(self, run_digest):
        inputs = uniform_box(6, 1, seed=5)
        plan = FaultPlan.crash_at({5: (0, 1)})
        result = run_lockstep_consensus(inputs, 1, 0.3, fault_plan=plan)
        assert check_all(result.trace).ok
        assert run_digest(result.report) == GOLDEN["round0_mid_broadcast_crash"]

    def test_matrix_theory_on_lockstep_traces(self):
        inputs = gaussian_cluster(5, 2, seed=6)
        result = run_lockstep_consensus(inputs, 1, 0.5)
        assert verify_state_evolution(result.trace).ok

    def test_2d(self):
        inputs = gaussian_cluster(5, 2, seed=7)
        result = run_lockstep_consensus(inputs, 1, 0.4)
        assert check_all(result.trace).ok
