"""asyncio-based runtime: the same protocols on real coroutines and timers.

The discrete-event simulator (:mod:`repro.runtime.simulator`) explores
delivery orders deterministically; this runtime shows that the protocol
cores are runtime-agnostic by letting live asyncio timers pick the order:
one forwarder task per directed channel sleeps a seeded
``uniform(0, max_delay)`` per message, so per-channel FIFO holds while
real time interleaves the channels.

:class:`AsyncioNetwork` is a delivery source for the simulator's loop
(:func:`~repro.runtime.simulator._drive`), like the structural network,
the reliable transport and the lockstep waves: shells, crash specs,
revivals, the quiescence rule and the report are the loop's.  The event
loop runs only while the source waits for the next arrival; the cores
run between those waits.  Executions are *not* bit-reproducible across
platforms — tests assert the algorithm's properties, never specific
interleavings.  Link faults are simulator-only: the lossy fabric and
reliable transport (:mod:`repro.runtime.transport`) need the
deterministic loop.
"""

from __future__ import annotations

import asyncio
from collections import deque
from contextlib import closing

import numpy as np

from .faults import FaultPlan
from .messages import Envelope, Payload
from .simulator import SimulationError, _default_max_steps, _drive

#: Wall-clock seconds without an arrival before a run is declared stuck.
STALL_TIMEOUT = 120.0


class AsyncioNetwork:
    """Delivery source whose order comes from per-channel forwarder timers.

    Owns its event loop; :meth:`close` cancels the forwarders and closes
    the loop.  An envelope that reaches a crashed receiver is parked for
    its revival when it will come back and dropped otherwise, as on the
    reliable transport.
    """

    app_deliveries: tuple[tuple[int, int], ...] = ()

    def __init__(self, n: int, *, seed: int, max_delay: float):
        self.n = n
        self.messages_sent = 0
        self.messages_delivered = 0
        self._loop = asyncio.new_event_loop()
        self._rng = np.random.default_rng(seed)
        self._max_delay = max_delay
        self._channels = {
            (src, dst): asyncio.Queue()
            for src in range(n)
            for dst in range(n)
            if src != dst
        }
        self._seq = dict.fromkeys(self._channels, 0)
        self._arrived: deque[Envelope] = deque()
        self._arrival = asyncio.Event()
        self._in_flight = 0
        self._crashed: set[int] = set()
        self._parked: dict[int, list[Envelope]] = {}
        self._tasks = [
            self._loop.create_task(self._forward(queue))
            for queue in self._channels.values()
        ]

    def send(self, src: int, dst: int, payload: Payload, send_round: int) -> None:
        key = (src, dst)
        seq = self._seq[key]
        self._seq[key] = seq + 1
        self._channels[key].put_nowait(Envelope(src, dst, seq, send_round, payload))
        self._in_flight += 1
        self.messages_sent += 1

    async def _forward(self, queue: asyncio.Queue) -> None:
        while True:
            env = await queue.get()
            delay = float(self._rng.uniform(0.0, self._max_delay))
            if delay > 0:
                await asyncio.sleep(delay)
            self._arrived.append(env)
            self._arrival.set()

    @property
    def steps(self) -> int:
        """Every delivery is one step of the run."""
        return self.messages_delivered

    def next(self, sched=None) -> Envelope | None:
        """The next arrival for a live receiver; None when nothing is in flight.

        Runs the event loop only while no arrival is buffered.  The event
        is cleared *before* the loop runs: forwarders that ``send`` has
        already woken run ahead of the waiting task, so clearing it inside
        the loop would lose their wake-up.
        """
        while True:
            while self._arrived:
                env = self._arrived.popleft()
                self._in_flight -= 1
                if env.dst not in self._crashed:
                    self.messages_delivered += 1
                    return env
                if env.dst in self._parked:
                    self._parked[env.dst].append(env)
            if not self._in_flight:
                return None
            self._arrival.clear()
            try:
                self._loop.run_until_complete(
                    asyncio.wait_for(self._arrival.wait(), STALL_TIMEOUT)
                )
            except asyncio.TimeoutError as exc:
                raise SimulationError(
                    f"asyncio run: no arrival within {STALL_TIMEOUT}s "
                    f"(in flight: {self._in_flight})"
                ) from exc

    def mark_crashed(self, dst: int, recovering: bool = False) -> None:
        """Stop delivery to ``dst``; park what reaches it if it will recover."""
        self._crashed.add(dst)
        if recovering:
            self._parked.setdefault(dst, [])

    def mark_recovered(self, dst: int) -> list[Envelope]:
        """Re-open delivery to ``dst``; returns its parked envelopes in arrival order."""
        self._crashed.discard(dst)
        parked = self._parked.pop(dst, [])
        self.messages_delivered += len(parked)
        return parked

    async def _stop_forwarders(self) -> None:
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)

    def close(self) -> None:
        """Cancel every forwarder and close the event loop."""
        self._loop.run_until_complete(self._stop_forwarders())
        self._loop.close()


def run_asyncio_consensus(
    inputs,
    f: int,
    eps: float,
    *,
    fault_plan: FaultPlan | None = None,
    seed: int = 0,
    max_delay: float = 0.001,
    input_bounds: tuple[float, float] | None = None,
    algorithm: str = "cc",
):
    """Full Algorithm CC (or BCC) run on the asyncio runtime; returns a CCResult."""
    from ..core.runner import prepare_run

    run = prepare_run(
        inputs, f, eps,
        fault_plan=fault_plan,
        input_bounds=input_bounds,
        algorithm=algorithm,
    )
    n = len(run.cores)
    # The loop must be closed even when the run raises.
    with closing(AsyncioNetwork(n, seed=seed, max_delay=max_delay)) as source:
        report = _drive(
            run.cores,
            run.plan,
            source,
            None,
            max_steps=_default_max_steps(n),
            core_factory=run.core_factory,
        )
    return run.result(report, seed=seed, scheduler_name="asyncio")
