"""Tests for the asyncio runtime — same protocols, live coroutines."""

from contextlib import closing

import numpy as np
import pytest

from repro.core.invariants import check_agreement, check_validity
from repro.runtime import asyncio_runtime
from repro.runtime.asyncio_runtime import AsyncioNetwork, run_asyncio_consensus
from repro.runtime.faults import FaultPlan
from repro.runtime.simulator import SimulationError


class TestAsyncioConsensus:
    def test_fault_free_run_decides(self):
        rng = np.random.default_rng(0)
        inputs = rng.uniform(-1, 1, size=(5, 1))
        result = run_asyncio_consensus(inputs, 1, 0.2, seed=1)
        assert sorted(result.report.decided) == [0, 1, 2, 3, 4]
        assert check_agreement(result.trace).ok
        assert check_validity(result.trace).ok

    def test_crash_mid_broadcast(self):
        rng = np.random.default_rng(1)
        inputs = rng.uniform(-1, 1, size=(5, 1))
        plan = FaultPlan.crash_at({4: (0, 2)})
        result = run_asyncio_consensus(inputs, 1, 0.2, fault_plan=plan, seed=2)
        assert 4 in result.report.crashed
        assert sorted(result.report.decided) == [0, 1, 2, 3]
        assert check_validity(result.trace).ok

    def test_2d_run(self):
        rng = np.random.default_rng(2)
        inputs = rng.uniform(-1, 1, size=(5, 1))
        result = run_asyncio_consensus(inputs, 1, 0.3, seed=3, max_delay=0.0005)
        agreement = check_agreement(result.trace)
        assert agreement.disagreement < result.config.eps

    def test_zero_delay_still_works(self, monkeypatch):
        # A wake-up lost between send() and the event-loop pump stalls a
        # zero-delay run until the timeout; with 2 s it fails fast.
        monkeypatch.setattr(asyncio_runtime, "STALL_TIMEOUT", 2.0)
        rng = np.random.default_rng(3)
        inputs = rng.uniform(-1, 1, size=(5, 1))
        result = run_asyncio_consensus(inputs, 1, 0.5, seed=4, max_delay=0.0)
        assert len(result.report.decided) == 5


class TestAsyncioNetworkSource:
    """The delivery source driven directly, without the simulator's loop."""

    def test_next_is_none_exactly_when_nothing_is_in_flight(self):
        with closing(AsyncioNetwork(3, seed=0, max_delay=0.002)) as source:
            assert source.next() is None
            for k in range(4):
                source.send(0, 1, k, 0)
                source.send(2, 1, -k, 0)
            got = []
            for _ in range(8):
                env = source.next()
                assert env is not None
                got.append((env.src, env.payload))
            assert source.next() is None
            # FIFO per channel; real timers interleave the two channels.
            assert [p for s, p in got if s == 0] == [0, 1, 2, 3]
            assert [p for s, p in got if s == 2] == [0, -1, -2, -3]
            assert source.messages_sent == source.messages_delivered == source.steps == 8

    def test_envelope_for_a_receiver_that_stays_down_is_dropped(self):
        with closing(AsyncioNetwork(3, seed=0, max_delay=0.0)) as source:
            source.mark_crashed(1, recovering=False)
            source.send(0, 1, "lost", 0)
            source.send(0, 2, "kept", 0)
            env = source.next()
            assert (env.dst, env.payload) == (2, "kept")
            assert source.next() is None
            assert source.messages_sent == 2
            assert source.messages_delivered == source.steps == 1

    def test_envelopes_for_a_recovering_receiver_are_parked_in_arrival_order(self):
        with closing(AsyncioNetwork(3, seed=0, max_delay=0.0)) as source:
            source.mark_crashed(1, recovering=True)
            for k in range(3):
                source.send(0, 1, k, 0)
            assert source.next() is None
            source.send(2, 1, "late", 0)
            assert source.next() is None
            assert source.messages_delivered == 0
            parked = source.mark_recovered(1)
            assert [(e.src, e.payload) for e in parked] == [
                (0, 0), (0, 1), (0, 2), (2, "late"),
            ]
            assert [e.seq for e in parked] == [0, 1, 2, 0]
            assert source.messages_delivered == 4
            source.send(2, 1, "after", 0)
            assert source.next().payload == "after"

    def test_a_stuck_run_raises_instead_of_hanging(self, monkeypatch):
        monkeypatch.setattr(asyncio_runtime, "STALL_TIMEOUT", 0.05)
        with closing(AsyncioNetwork(2, seed=0, max_delay=60.0)) as source:
            source.send(0, 1, "slow", 0)
            with pytest.raises(SimulationError, match="no arrival"):
                source.next()
