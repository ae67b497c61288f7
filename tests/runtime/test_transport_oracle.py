"""The transport's link scan and timer heap against their full-scan oracles.

At every fabric step of a real Algorithm CC run, the fabric's scan list
must hold exactly the links :func:`tests.oracles.transport.busy_links`
finds, ``ready_frames()`` must return exactly the heads
:func:`tests.oracles.transport.ready_frames_scan` finds, ``pump()`` must
retransmit exactly the ``(link, seq)`` list
:func:`tests.oracles.transport.expired_timers` gives, in that order, and
``advance_idle()`` must land on the deadline the full scan computes.
The oracles compute every deadline themselves; the heap may key a timer
no later than its deadline, and computes a jitter only for a timer that
can fire (``test_jitter_only_for_timers_that_can_fire``).
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.core.algorithm_cc import CCProcess
from repro.core.config import CCConfig
from repro.runtime import transport as transport_module
from repro.runtime.faults import FaultPlan, LinkFaultPlan, LinkFaultSpec
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.transport import (
    ACK,
    DATA,
    Frame,
    TransportBudgetError,
    TransportNetwork,
    run_transport_simulation,
)
from tests.oracles.transport import (
    busy_links,
    deadline,
    expired_timers,
    next_retry_scan,
    ready_frames_scan,
)

LOSSY = LinkFaultSpec(loss=0.2, dup=0.1, delay=2, reorder=0.2)

PLANS = {
    "lossy": LinkFaultPlan(default=LOSSY, seed=3),
    "partition-heal": LinkFaultPlan.isolate(
        [1, 2], 5, start=15, heal=300, base=LOSSY, seed=4
    ),
    "corrupt": LinkFaultPlan(
        default=LinkFaultSpec(loss=0.1, delay=1, corrupt=0.3), seed=5
    ),
}


class CheckedTransport(TransportNetwork):
    """A transport that checks both orders against the oracles as it runs.

    It also records each armed timer's earliest clock and the clock at
    which each timer's frame was acked, both by ``(src, dst, seq,
    attempt)``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scans = 0
        self.withheld = 0
        self.fired: list[tuple[tuple[int, int], int]] = []
        self.armed: dict[tuple[int, int, int, int], int] = {}
        self.acked_at: dict[tuple[int, int, int, int], int] = {}
        fabric = self.fabric
        scan = fabric.ready_frames

        def checked_scan():
            assert [key for key, _queue, _windows in fabric._scan] == busy_links(fabric)
            assert all(queue is fabric._queues[key] for key, queue, _windows in fabric._scan)
            frames = scan()
            expected = ready_frames_scan(fabric)
            assert [id(f) for f in frames] == [id(f) for f in expected]
            self.scans += 1
            self.withheld += sum(
                1
                for key, queue in fabric._queues.items()
                if queue and fabric.plan.spec(*key).partitioned_at(fabric.clock)
            )
            return frames

        fabric.ready_frames = checked_scan

    def pump(self):
        if self.fabric.clock > self.clock_budget:
            return super().pump()  # raises the budget abort
        # A live timer is never keyed after its deadline.
        for at, _rank, seq, link in self._timers:
            entry = self._unacked[link].get(seq)
            assert entry is None or at <= deadline(link, seq, entry)
        expected = expired_timers(self) if self.reliable else []
        fired = []
        send = self.fabric.send

        def recording_send(frame):
            fired.append(((frame.src, frame.dst), frame.seq))
            return send(frame)

        self.fabric.send = recording_send
        try:
            super().pump()
        finally:
            del self.fabric.send
        assert fired == expected
        self.fired += fired

    def _arm(self, entry, rank, seq, link):
        super()._arm(entry, rank, seq, link)
        scaled = entry.base * (2 ** (entry.attempt - 1)) * 0.5
        self.armed[(*link, seq, entry.attempt)] = entry.armed_at + max(1, math.ceil(scaled))

    def _on_ack(self, frame):
        pending = self._unacked.get((frame.dst, frame.src), {})
        before = {seq: entry.attempt for seq, entry in pending.items()}
        super()._on_ack(frame)
        for seq, attempt in before.items():
            if seq not in pending:
                self.acked_at[(frame.dst, frame.src, seq, attempt)] = self.fabric.clock

    def advance_idle(self):
        deadlines = [
            t for t in (self.fabric.next_release(), next_retry_scan(self)) if t is not None
        ]
        target = max(min(deadlines), self.fabric.clock + 1)
        super().advance_idle()
        assert self.fabric.clock == target


def _cores(n=5, seed=0):
    inputs = np.random.default_rng(seed).uniform(-1, 1, size=(n, 1))
    config = CCConfig(n=n, f=1, dim=1, eps=0.2, input_lower=-1.0, input_upper=1.0)
    return [CCProcess(pid=i, config=config, input_point=inputs[i]) for i in range(n)]


@pytest.fixture
def checked(monkeypatch):
    """Make run_transport_simulation build CheckedTransports; list them."""
    built = []

    class Recorded(CheckedTransport):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(transport_module, "TransportNetwork", Recorded)
    return built


@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("crash", [False, True])
def test_every_step_matches_the_oracles(checked, plan_name, crash):
    fault_plan = FaultPlan.crash_at({4: (1, 2)}) if crash else None
    report = run_transport_simulation(
        _cores(seed=len(plan_name)),
        fault_plan,
        RandomScheduler(seed=7),
        link_faults=PLANS[plan_name],
    )
    (net,) = checked
    assert len(report.decided) == (4 if crash else 5)
    assert net.scans > report.delivery_steps > 0
    assert len(net.fired) == report.perf_counters["retransmissions"] > 0
    if plan_name == "partition-heal":
        assert net.withheld > 0  # the scan's partition branch was taken


def test_forever_partition_matches_until_the_budget_abort(checked):
    plan = LinkFaultPlan.isolate([0], 5, start=5, heal=None, base=LOSSY, seed=2)
    with pytest.raises(TransportBudgetError):
        run_transport_simulation(
            _cores(seed=1),
            scheduler=RandomScheduler(seed=3),
            link_faults=plan,
            clock_budget=20_000,
        )
    (net,) = checked
    assert net.withheld > 0 and net.fired


def test_timer_heap_skips_acked_and_rescheduled_entries():
    # Every link is down, so nothing is ever delivered and each
    # advance_idle jumps to the next timer.  Acked frames never fire;
    # the rest fire on every expiry, in oracle order.
    plan = LinkFaultPlan(default=LinkFaultSpec(partitions=((0, None),)))
    net = CheckedTransport(3, plan)
    for _ in range(3):
        net.send(0, 1, None, 0)
        net.send(2, 1, None, 0)
        net.send(0, 2, None, 0)
    net._on_ack(Frame(kind=ACK, src=1, dst=0, seq=2))  # acks 0->1 seqs 0, 1
    for _ in range(12):
        net.advance_idle()
    fired = set(net.fired)
    assert ((0, 1), 0) not in fired and ((0, 1), 1) not in fired
    assert fired == {((0, 1), 2)} | {(link, seq) for link in ((2, 1), (0, 2)) for seq in range(3)}
    assert len(net.fired) > len(fired)  # rescheduled timers fired again


def test_jitter_only_for_timers_that_can_fire(checked, monkeypatch):
    # The spy sees only the transport's calls: the oracles hold their own
    # reference to backoff_delay.
    computed = []
    real = transport_module.backoff_delay

    def spy(src, dst, seq, attempt, base):
        computed.append((src, dst, seq, attempt))
        return real(src, dst, seq, attempt, base)

    monkeypatch.setattr(transport_module, "backoff_delay", spy)
    report = run_transport_simulation(
        _cores(seed=2), None, RandomScheduler(seed=7), link_faults=PLANS["lossy"]
    )
    (net,) = checked
    assert report.perf_counters["retransmissions"] > 0
    # Each timer's jitter is computed at most once, and only for timers.
    assert len(set(computed)) == len(computed)
    assert set(computed) <= set(net.armed)
    # Many timers never pay for their jitter ...
    assert len(computed) < len(net.armed)
    # ... among them every one acked before its earliest clock.
    early = [key for key, clock in net.acked_at.items() if clock < net.armed[key]]
    assert early
    assert not set(early) & set(computed)


def test_frame_acked_before_its_earliest_clock_computes_no_jitter(monkeypatch):
    # One message on a perfect link: the data frame arrives at clock 1 and
    # its ack at clock 2, before the timer's earliest clock
    # max(1, ceil(RTO_BASE * 0.5)) = 4, so no jitter is ever computed.
    computed = []
    monkeypatch.setattr(
        transport_module, "backoff_delay", lambda *args: computed.append(args) or 1.0
    )
    net = TransportNetwork(2)
    net.send(0, 1, None, 0)
    assert net._timers[0][0] == 4
    assert net.next(RandomScheduler(seed=0)).seq == 0
    assert net.next(RandomScheduler(seed=0)) is None
    assert net.total_unacked == 0 and net.fabric.clock == 2
    assert computed == []


def test_frame_copy_is_field_by_field():
    frame = Frame(
        kind=DATA,
        src=2,
        dst=0,
        seq=5,
        send_round=3,
        payload=("x", 1),
        attempt=2,
        release=17,
        order=41,
        checksum=12345,
    )
    copy = frame.copy()
    assert copy is not frame
    assert dataclasses.astuple(copy) == dataclasses.astuple(frame)
    retry = frame.copy(attempt=3)
    assert retry is not frame and retry.attempt == 3 and frame.attempt == 2
    assert dataclasses.replace(retry, attempt=2) == frame
    for name in ("release", "order", "checksum"):  # compare=False fields
        assert getattr(retry, name) == getattr(frame, name)
