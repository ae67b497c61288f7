"""Transport across crash + recovery: the boundary oracle, and revivals
over lossy links on an endpoint that is never rebuilt."""

import numpy as np
import pytest

from repro.core.runner import run_convex_hull_consensus
from repro.geometry.cache import PERF
from repro.runtime.channel import ChannelError
from repro.runtime.faults import (
    AMNESIA,
    DURABLE,
    FaultPlan,
    LinkFaultPlan,
    LinkFaultSpec,
)
from repro.runtime.transport import DATA, Frame, TransportNetwork


class TestCrashedDropOracle:
    def _delivered_frame(self, transport, seq=0):
        transport.send(0, 1, payload="m", send_round=0)
        return Frame(kind=DATA, src=0, dst=1, seq=seq, payload="m")

    def test_boundary_advances_without_app_delivery(self):
        transport = TransportNetwork(2)
        frame = self._delivered_frame(transport)
        drops0 = PERF.crashed_app_drops
        transport.note_crashed_drop(frame)
        assert PERF.crashed_app_drops == drops0 + 1
        assert transport.messages_delivered == 0  # the app never saw it
        # The boundary oracle moved on: the *next* frame delivers clean.
        transport.send(0, 1, payload="m2", send_round=0)
        transport.deliver_to_app(
            Frame(kind=DATA, src=0, dst=1, seq=1, payload="m2")
        )
        assert transport.messages_delivered == 1

    def test_out_of_order_retirement_still_trips_oracle(self):
        transport = TransportNetwork(2)
        self._delivered_frame(transport)
        stale = Frame(kind=DATA, src=0, dst=1, seq=5, payload="x")
        with pytest.raises(ChannelError, match="crashed endpoint"):
            transport.note_crashed_drop(stale)


class TestRecoveryOverLossyLinks:
    def _run(self, durability, *, loss=0.15, dup=0.1, seed=2):
        rng = np.random.default_rng(19)
        inputs = rng.uniform(-1.0, 1.0, size=(5, 1))
        plan = FaultPlan.crash_recover(
            {4: (0, 2, 12)}, durability=durability
        )
        link_plan = LinkFaultPlan(
            default=LinkFaultSpec(loss=loss, dup=dup, delay=2), seed=7
        )
        return run_convex_hull_consensus(
            inputs,
            1,
            0.2,
            fault_plan=plan,
            seed=seed,
            input_bounds=(-1.0, 1.0),
            link_faults=link_plan,
        )

    def test_durable_recovery_survives_lossy_fabric(self):
        result = self._run(DURABLE)
        assert 4 in result.report.recovered
        assert 4 in result.report.decided
        from repro.core.invariants import check_all

        assert check_all(result.trace).ok

    def test_amnesia_recovery_never_trips_channel_oracle(self):
        # The revived endpoint resumes the acked seq stream: dup
        # suppression and the boundary oracle must both survive the
        # restart (ChannelError would escape run_convex_hull_consensus).
        result = self._run(AMNESIA)
        assert 4 in result.report.recovered
        from repro.core.invariants import check_all

        report = check_all(result.trace)
        assert report.validity.ok
        assert report.agreement.ok
