"""Tests for Algorithm CC's per-process logic and end-to-end behaviour."""

import numpy as np
import pytest

from repro.baselines.vector_consensus import PointConsensusProcess
from repro.core.algorithm_cc import CCProcess, EmptyInitialPolytopeError
from repro.core.config import CCConfig
from repro.core.runner import run_convex_hull_consensus
from repro.geometry.hausdorff import disagreement_diameter
from repro.geometry.polytope import ConvexPolytope
from repro.runtime.faults import FaultPlan
from repro.runtime.scheduler import BurstyScheduler
from repro.runtime.simulator import run_simulation


class TestRound0:
    def test_single_process_decides_instantly(self):
        config = CCConfig(n=1, f=0, dim=1, eps=0.5)
        core = CCProcess(pid=0, config=config, input_point=[0.3])
        core.on_start()
        assert core.done
        assert core.output.is_point

    def test_h0_is_subset_intersection(self, benign_1d_run):
        from repro.geometry.intersection import intersect_subset_hulls

        for proc in benign_1d_run.trace.processes:
            expected = intersect_subset_hulls(proc.x_multiset, benign_1d_run.config.f)
            assert proc.states[0].approx_equal(expected)

    def test_empty_h0_below_bound_raises(self):
        # d=2, f=1, n=3 (far below (d+2)f+1=5): triangle inputs give an
        # empty intersection.
        inputs = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        with pytest.raises(EmptyInitialPolytopeError):
            run_convex_hull_consensus(
                inputs, 1, 0.5, enforce_resilience=False
            )


class TestRounds:
    def test_all_rounds_recorded(self, benign_2d_run):
        t_end = benign_2d_run.config.t_end
        for proc in benign_2d_run.trace.processes:
            assert set(proc.states.keys()) == set(range(t_end + 1))

    def test_round_senders_have_quorum(self, benign_2d_run):
        quorum = benign_2d_run.config.quorum
        for proc in benign_2d_run.trace.processes:
            for t, senders in proc.round_senders.items():
                assert len(senders) >= quorum
                assert proc.pid in senders  # line 8: own message included

    def test_state_is_combination_of_received(self, benign_1d_run):
        from repro.geometry.combination import equal_weight_combination

        trace = benign_1d_run.trace
        by_pid = {p.pid: p for p in trace.processes}
        for proc in trace.processes:
            for t, senders in proc.round_senders.items():
                operands = [by_pid[s].states[t - 1] for s in senders]
                expected = equal_weight_combination(operands)
                assert proc.states[t].approx_equal(expected)

    def test_disagreement_below_eps_at_end(self, crashy_2d_run):
        outputs = list(crashy_2d_run.fault_free_outputs.values())
        assert disagreement_diameter(outputs) < crashy_2d_run.config.eps

    def test_per_round_contraction_within_envelope(self, starved_2d_run):
        trace = starved_2d_run.trace
        config = starved_2d_run.config
        from repro.analysis.metrics import convergence_series

        series = convergence_series(trace)
        for t, dis in zip(series.rounds, series.disagreement):
            assert dis <= config.agreement_bound_at(t) + 1e-9


class TestMessageHandling:
    def test_future_round_messages_buffered(self):
        config = CCConfig(n=5, f=1, dim=1, eps=0.5)
        core = CCProcess(pid=0, config=config, input_point=[0.0])
        core.on_start()
        from repro.runtime.messages import RoundMessage

        # Deliver a round-3 message while still in round 0.
        out = core.on_message(
            RoundMessage(state=ConvexPolytope.singleton([0.5]), sender=1, round_index=3),
            src=1,
        )
        assert core.current_round == 0
        assert out == []

    def test_stale_round_messages_ignored(self, benign_1d_run):
        # After an execution, replaying an old round message must no-op.
        pass  # structural guarantee exercised via _frozen_rounds below

    def test_frozen_round_ignores_latecomers(self):
        config = CCConfig(n=4, f=1, dim=1, eps=1.0)
        cores = [
            CCProcess(pid=i, config=config, input_point=[float(i) / 4])
            for i in range(4)
        ]
        run_simulation(cores, scheduler=BurstyScheduler(seed=1))
        core = cores[0]
        from repro.runtime.messages import RoundMessage

        before = core.output
        core.on_message(
            RoundMessage(state=ConvexPolytope.singleton([0.9]), sender=2, round_index=1),
            src=2,
        )
        assert core.output.approx_equal(before)

    @pytest.mark.parametrize("core_cls", [CCProcess, PointConsensusProcess])
    def test_round_message_carries_the_senders_state(self, core_cls):
        # The wire carries h_i[t-1] itself, and a receiver buffers that
        # very object: no copy, no conversion in transit.
        from repro.runtime.messages import InputTuple, RoundMessage

        config = CCConfig(n=5, f=1, dim=1, eps=0.5)
        a, b = (core_cls(pid=i, config=config, input_point=[i / 4]) for i in (0, 1))
        view = {InputTuple(value=(i / 4,), sender=i) for i in range(4)}
        [(dst, msg)] = a._complete_round0(view)
        assert dst is None and isinstance(msg, RoundMessage)
        assert (msg.sender, msg.round_index) == (0, 1)
        assert msg.state is a._h[0]
        assert b.on_message(msg, src=0) == []
        assert b._round_buffer[1][0] is msg.state


class TestFaultTolerance:
    def test_silent_faulty_never_blocks(self, starved_2d_run):
        assert len(starved_2d_run.report.decided) >= 7

    def test_crash_every_round_index(self):
        rng = np.random.default_rng(0)
        inputs = rng.uniform(-1, 1, size=(6, 1))
        for crash_round in (0, 1, 2):
            plan = FaultPlan.crash_at({5: (crash_round, 2)})
            result = run_convex_hull_consensus(
                inputs, 1, 0.3, fault_plan=plan, seed=crash_round
            )
            assert sorted(result.report.decided) == [0, 1, 2, 3, 4]

    def test_two_crashes_with_f2(self):
        rng = np.random.default_rng(1)
        inputs = rng.uniform(-1, 1, size=(7, 1))
        plan = FaultPlan.crash_at({5: (0, 3), 6: (1, 1)})
        result = run_convex_hull_consensus(inputs, 2, 0.3, fault_plan=plan)
        assert sorted(result.report.decided) == [0, 1, 2, 3, 4]
        outputs = list(result.fault_free_outputs.values())
        assert disagreement_diameter(outputs) < 0.3

    def test_input_validation(self):
        config = CCConfig(n=5, f=1, dim=1, eps=0.5)
        with pytest.raises(ValueError):
            CCProcess(pid=0, config=config, input_point=[5.0])
