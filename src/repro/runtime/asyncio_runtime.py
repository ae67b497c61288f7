"""asyncio-based runtime: the same protocols on real coroutines.

The discrete-event simulator (:mod:`repro.runtime.simulator`) explores
delivery orders deterministically; this runtime demonstrates that the
protocol cores are genuinely runtime-agnostic by executing them on live
asyncio tasks with randomised (seeded) per-message delays:

* one forwarder coroutine per directed channel preserves FIFO order while
  delays randomise cross-channel interleaving,
* one handler coroutine per process consumes its inbox,
* quiescence detection (no message in flight anywhere) ends the run.

The same :class:`~repro.runtime.process.ProcessShell` wraps the cores, so
crash specs (including mid-broadcast crashes) behave identically; only the
interleaving source differs.  Shell set-up and the report are the
simulator's.  Executions are *not* bit-reproducible across platforms —
tests assert the algorithm's properties, never specific interleavings.
Link faults are simulator-only: the lossy fabric and reliable transport
(:mod:`repro.runtime.transport`) need the deterministic loop.
"""

from __future__ import annotations

import asyncio

import numpy as np

from ..geometry.cache import PERF
from .faults import FaultPlan
from .messages import Payload
from .process import ProcessShell, ProtocolCore
from .simulator import SimulationError, SimulationReport, _build_shells, _finish_report


class _AsyncTransport:
    """Duck-typed stand-in for :class:`Network` inside process shells."""

    def __init__(self, n: int, runtime: "_AsyncRuntime"):
        self.n = n
        self._runtime = runtime
        self.messages_sent = 0

    def send(self, src: int, dst: int, payload: Payload, send_round: int) -> None:
        self.messages_sent += 1
        self._runtime.enqueue(src, dst, payload)


class _AsyncRuntime:
    """Channel queues, forwarders, handlers, and quiescence accounting."""

    def __init__(self, n: int, seed: int, max_delay: float):
        self.n = n
        self._rng = np.random.default_rng(seed)
        self._max_delay = max_delay
        self._channels: dict[tuple[int, int], asyncio.Queue] = {}
        self._inboxes: list[asyncio.Queue] = [asyncio.Queue() for _ in range(n)]
        self._in_flight = 0
        self._quiescent = asyncio.Event()
        self._quiescent.set()
        self.delivered = 0
        #: Crash-recovery hooks, wired by run_asyncio_simulation when the
        #: fault plan schedules revivals (None otherwise — historical path).
        self._recovery = None
        self._parked: dict[int, list[tuple[Payload, int]]] = {}

    def enqueue(self, src: int, dst: int, payload: Payload) -> None:
        self._in_flight += 1
        self._quiescent.clear()
        key = (src, dst)
        if key not in self._channels:
            raise SimulationError(f"unknown channel {key}")
        self._channels[key].put_nowait(payload)

    def settle_one(self) -> None:
        self._in_flight -= 1
        if self._in_flight == 0:
            self._quiescent.set()

    async def forwarder(self, src: int, dst: int) -> None:
        queue = self._channels[(src, dst)]
        while True:
            payload = await queue.get()
            delay = float(self._rng.uniform(0.0, self._max_delay))
            if delay > 0:
                await asyncio.sleep(delay)
            self._inboxes[dst].put_nowait((payload, src))

    async def handler(self, shell: ProcessShell) -> None:
        inbox = self._inboxes[shell.pid]
        while True:
            payload, src = await inbox.get()
            if (
                shell.crashed
                and self._recovery is not None
                and self._recovery.will_recover(shell.pid)
            ):
                # Park for the revival instead of consuming silently: the
                # channel retired the message, nobody will resend it.
                self._parked.setdefault(shell.pid, []).append((payload, src))
                self.settle_one()
                continue
            try:
                shell.receive(payload, src)
            finally:
                self.delivered += 1
                self.settle_one()
            if self._recovery is not None:
                if shell.crashed:
                    self._recovery.note_crash(shell, self.delivered)
                for pid in self._recovery.due(self.delivered):
                    self._revive(pid)

    def _revive(self, pid: int) -> None:
        """Execute one revival, then replay its parked messages."""
        shell = self._recovery.revive(pid, self.delivered)
        for payload, src in self._parked.pop(pid, []):
            shell.receive(payload, src)
            self.delivered += 1

    async def run(self, shells: list[ProcessShell], timeout: float) -> None:
        for src in range(self.n):
            for dst in range(self.n):
                if src != dst:
                    self._channels[(src, dst)] = asyncio.Queue()
        tasks = [
            asyncio.create_task(self.forwarder(src, dst))
            for src in range(self.n)
            for dst in range(self.n)
            if src != dst
        ]
        tasks.extend(asyncio.create_task(self.handler(s)) for s in shells)
        try:
            for shell in shells:
                shell.start()
            if self._recovery is not None:
                for shell in shells:
                    if shell.crashed:
                        self._recovery.note_crash(shell, self.delivered)
            await asyncio.wait_for(self._quiescent.wait(), timeout=timeout)
            # Quiescence can be momentary when a handler is about to emit;
            # confirm it is stable by yielding and re-checking.
            while True:
                await asyncio.sleep(0)
                if self._in_flight == 0:
                    if (
                        self._recovery is not None
                        and self._recovery.has_pending
                    ):
                        # Stable quiescence with revivals pending: fire
                        # the earliest one (the quiescence rule) and keep
                        # running — its restart may emit new messages.
                        self._revive(self._recovery.pop_earliest())
                        continue
                    break
                await asyncio.wait_for(self._quiescent.wait(), timeout=timeout)
        except asyncio.TimeoutError as exc:
            raise SimulationError(
                f"asyncio run did not quiesce within {timeout}s "
                f"(in flight: {self._in_flight})"
            ) from exc
        finally:
            for task in tasks:
                task.cancel()


def run_asyncio_simulation(
    cores: list[ProtocolCore],
    fault_plan: FaultPlan | None = None,
    *,
    seed: int = 0,
    max_delay: float = 0.001,
    timeout: float = 120.0,
    require_all_fault_free_decide: bool = True,
    checkpoint_store=None,
    core_factory=None,
) -> SimulationReport:
    """Drive the cores on the asyncio runtime until quiescence.

    Mirrors :func:`repro.runtime.simulator.run_simulation`'s contract and
    report format; accepts the same cores and fault plans.
    """
    from .recovery import RecoveryManager, make_recovery_setup

    n = len(cores)
    plan = (fault_plan or FaultPlan.none()).validate(n)
    runtime = _AsyncRuntime(n, seed=seed, max_delay=max_delay)
    transport = _AsyncTransport(n, runtime)
    store = make_recovery_setup(plan, checkpoint_store, core_factory)
    shells = _build_shells(cores, plan, transport, store)
    manager = (
        RecoveryManager(plan, shells, core_factory=core_factory, store=store)
        if plan.recoveries
        else None
    )
    runtime._recovery = manager

    perf_before = PERF.snapshot()
    asyncio.run(runtime.run(shells, timeout))
    return _finish_report(
        shells,
        plan,
        require_all_fault_free_decide=require_all_fault_free_decide,
        delivery_steps=runtime.delivered,
        messages_sent=transport.messages_sent,
        messages_delivered=runtime.delivered,
        perf_counters=PERF.diff(perf_before),
        recovered=list(manager.revived) if manager is not None else [],
    )


def run_asyncio_consensus(
    inputs,
    f: int,
    eps: float,
    *,
    fault_plan: FaultPlan | None = None,
    seed: int = 0,
    max_delay: float = 0.001,
    input_bounds: tuple[float, float] | None = None,
    timeout: float = 120.0,
    checkpoint_store=None,
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
    report = run_asyncio_simulation(
        run.cores,
        fault_plan=run.plan,
        seed=seed,
        max_delay=max_delay,
        timeout=timeout,
        checkpoint_store=checkpoint_store,
        core_factory=run.core_factory,
    )
    return run.result(report, seed=seed, scheduler_name="asyncio")
