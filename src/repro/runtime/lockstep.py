"""Lockstep (synchronous) driver — the zero-skew control runtime.

The paper's model is fully asynchronous; its related work ([20]) also
treats synchronous systems.  This driver runs the *same* protocol cores in
lockstep: at every step, all currently deliverable messages are delivered
in a fixed global order before any newly sent message is considered.  It
is the "most synchronous" schedule expressible in the model (every message
of a communication step arrives before the next step begins).

Uses: a best-case control for convergence experiments (round skew is
eliminated, so any residual disagreement is purely informational), a
determinism cross-check (no randomness at all), and a third runtime to
demonstrate core/runtime independence alongside the discrete-event and
asyncio drivers.

The waves are a delivery source for the simulator's loop, so fault plans
work unchanged — a crash spec is executed by the shell, and a
mid-broadcast prefix in lockstep is exactly the paper's "some round-t
messages sent" case; revivals follow the loop's per-delivery
``recover_at`` rule.
"""

from __future__ import annotations

from collections import deque

from .channel import Channel
from .faults import FaultPlan
from .messages import Envelope
from .network import Network
from .simulator import _default_max_steps, _drive


class _WaveNetwork(Network):
    """The structural network, delivered in synchronous waves.

    A wave snapshots every ready channel with its current depth, then
    drains the channels in (src, dst) order to exactly that depth before
    anything sent during the wave is considered.  A channel whose
    receiver is down when the wave reaches it is skipped.
    """

    def __init__(self, n: int):
        super().__init__(n)
        self._wave: deque[tuple[Channel, int]] = deque()

    def next(self, sched=None) -> Envelope | None:
        while True:
            while self._wave:
                channel, left = self._wave.popleft()
                if channel.dst in self._crashed_dst:
                    continue
                if left > 1:
                    self._wave.appendleft((channel, left - 1))
                return self.deliver(channel.head)
            if not self._ready:
                return None
            self._wave.extend((channel, channel.depth) for channel in self._ready)


def run_lockstep_consensus(
    inputs,
    f: int,
    eps: float,
    *,
    fault_plan: FaultPlan | None = None,
    input_bounds: tuple[float, float] | None = None,
    algorithm: str = "cc",
):
    """Full Algorithm CC (or BCC) run in lockstep; returns a CCResult."""
    from ..core.runner import prepare_run

    run = prepare_run(
        inputs, f, eps,
        fault_plan=fault_plan,
        input_bounds=input_bounds,
        algorithm=algorithm,
    )
    n = len(run.cores)
    report = _drive(
        run.cores,
        run.plan,
        _WaveNetwork(n),
        None,
        max_steps=_default_max_steps(n),
        core_factory=run.core_factory,
    )
    return run.result(report, seed=0, scheduler_name="lockstep")
