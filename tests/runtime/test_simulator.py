"""Unit tests for the discrete-event simulation driver."""

import numpy as np
import pytest

from repro.core.algorithm_cc import CCProcess
from repro.core.config import CCConfig
from repro.runtime.faults import OMIT, FaultPlan
from repro.runtime.process import ProtocolCore
from repro.runtime.scheduler import FifoFairScheduler, RandomScheduler
from repro.runtime.simulator import SimulationError, run_simulation
from repro.runtime.transport import run_transport_simulation


def make_cores(n=5, d=1, f=1, eps=0.5, seed=0):
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-1, 1, size=(n, d))
    config = CCConfig(
        n=n, f=f, dim=d, eps=eps, input_lower=-1.0, input_upper=1.0
    )
    return [
        CCProcess(pid=i, config=config, input_point=inputs[i])
        for i in range(n)
    ], config


class TestRunSimulation:
    def test_all_decide_fault_free(self):
        cores, _ = make_cores()
        report = run_simulation(cores)
        assert sorted(report.decided) == [0, 1, 2, 3, 4]
        assert not report.crashed
        assert report.messages_delivered <= report.messages_sent

    def test_determinism(self):
        cores_a, _ = make_cores(seed=3)
        cores_b, _ = make_cores(seed=3)
        rep_a = run_simulation(cores_a, scheduler=RandomScheduler(seed=1))
        rep_b = run_simulation(cores_b, scheduler=RandomScheduler(seed=1))
        assert rep_a.delivery_steps == rep_b.delivery_steps
        for a, b in zip(cores_a, cores_b):
            assert a.output.approx_equal(b.output)

    def test_different_schedule_still_decides(self):
        cores, _ = make_cores(seed=4)
        report = run_simulation(cores, scheduler=FifoFairScheduler())
        assert len(report.decided) == 5

    def test_crash_plan_applied(self):
        cores, _ = make_cores()
        plan = FaultPlan.crash_at({4: (1, 2)})
        report = run_simulation(cores, fault_plan=plan)
        assert report.crashed == [4]
        assert sorted(report.decided) == [0, 1, 2, 3]

    def test_max_steps_guard(self):
        cores, _ = make_cores()
        with pytest.raises(SimulationError):
            run_simulation(cores, max_steps=3)

    def test_trace_accounting_propagates(self):
        cores, _ = make_cores()
        plan = FaultPlan.crash_at({4: (0, 1)})
        run_simulation(cores, fault_plan=plan)
        assert cores[4].trace.crash_fired_round == 0
        assert cores[0].trace.crash_fired_round is None
        assert cores[0].trace.sends_in_round[0] > 0

    def test_undelivered_messages_allowed_at_quiescence(self):
        # Messages addressed to crashed processes stay queued; that must
        # not prevent termination.
        cores, _ = make_cores()
        plan = FaultPlan.crash_at({4: (0, 0)})
        report = run_simulation(cores, fault_plan=plan)
        assert report.messages_delivered <= report.messages_sent


class _HelloCore(ProtocolCore):
    """Broadcasts one message; decides on its first delivery unless ``stuck``."""

    def __init__(self, pid: int, stuck: bool = False):
        self.pid = pid
        self._stuck = stuck
        self._heard = False

    def on_start(self):
        return [(None, "hello")]

    def on_message(self, payload, src):
        self._heard = True
        return []

    @property
    def current_round(self) -> int:
        return 0

    @property
    def done(self) -> bool:
        return self._heard and not self._stuck


def _hello_cores(n=4, stuck=()):
    return [_HelloCore(pid, stuck=pid in stuck) for pid in range(n)]


@pytest.mark.parametrize("run", [run_simulation, run_transport_simulation])
class TestTerminationDemanded:
    """Termination (Lemma 1) is checked in the one loop every source shares."""

    def test_all_decide(self, run):
        report = run(_hello_cores())
        assert report.decided == [0, 1, 2, 3]

    def test_undecided_process_raises_naming_it(self, run):
        with pytest.raises(SimulationError, match=r"ended undecided: \[2\]"):
            run(_hello_cores(stuck={2}))

    def test_crash_spec_that_never_fires_is_no_exemption(self, run):
        plan = FaultPlan.crash_at({2: (5, 0)})
        with pytest.raises(SimulationError, match=r"ended undecided: \[2\]"):
            run(_hello_cores(stuck={2}), fault_plan=plan)

    def test_crashed_process_is_exempt(self, run):
        plan = FaultPlan.crash_at({2: (0, 1)})
        report = run(_hello_cores(stuck={2}), fault_plan=plan)
        assert report.crashed == [2]
        assert report.decided == [0, 1, 3]

    def test_byzantine_process_is_exempt(self, run):
        plan = FaultPlan.byzantine_at({2}, behaviors=(OMIT,))
        report = run(_hello_cores(stuck={2}), fault_plan=plan)
        assert report.crashed == []
        assert report.decided == [0, 1, 3]
