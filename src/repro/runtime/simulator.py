"""Deterministic run-to-completion driver for asynchronous executions.

The simulator realises the asynchronous system model as a discrete-event
loop: at every step the (adversarial) scheduler picks one ready channel
and the simulator delivers its head.  No notion of time exists — exactly as
in the model, only the delivery *order* matters, and the scheduler is free
to choose any order consistent with per-channel FIFO.

Executions are reproducible on every source but the live asyncio one:
(cores, fault plan, scheduler seed) fully determine the run.

One delivery loop (:func:`_drive`) runs every execution, deterministic or
live.  It owns what those executions share: the process shells (with their
Byzantine engines and checkpoint store), the
:class:`~repro.runtime.recovery.RecoveryManager` and its quiescence rule,
crash and revival bookkeeping counted in application deliveries (the
``recover_at`` unit), the termination check and the report.  Termination
is always demanded: a run in which a process that never crashed ends
undecided raises.  Where the next application message comes from is the
job of a *delivery source*, and each runner hands its own to the loop:

* :class:`~repro.runtime.network.Network` (:func:`run_simulation`) — the
  scheduler picks one ready channel, and the network delivers its head;
* :class:`~repro.runtime.transport.TransportNetwork`
  (:func:`~repro.runtime.transport.run_transport_simulation`) — the
  scheduler picks fabric frames; acks, retransmission and parking stay
  inside;
* the lockstep wave source
  (:func:`~repro.runtime.lockstep.run_lockstep_consensus`) — whole waves
  of channel heads in a fixed order, no scheduler at all;
* :class:`~repro.runtime.asyncio_runtime.AsyncioNetwork`
  (:func:`~repro.runtime.asyncio_runtime.run_asyncio_consensus`) —
  per-channel asyncio forwarders with seeded real-time delays; arrival
  order, not a scheduler, picks the next envelope.

A source is the shells' network (``n``, ``send``) plus ``next(sched)``
(the next envelope, already taken off its channel, or ``None`` at
quiescence), ``mark_crashed(pid, recovering)``, ``mark_recovered(pid)``
(returns the envelopes parked for ``pid`` while it was down), ``steps``
(scheduler decisions so far), ``messages_sent``/``messages_delivered``
and ``app_deliveries``.  Channels are infrastructure: a source is never
rebuilt, so a revived process finds its channels as it left them and no
channel state is checkpointed.

Liveness and the ready-channel list are updated at the single place
they can change — a crash fired by the shell that just processed an
event — instead of being recomputed from all ``n`` shells and all
``n * (n - 1)`` channels on every delivery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..geometry.cache import PERF
from .faults import FaultPlan
from .network import Network
from .process import ProcessShell, ProtocolCore
from .scheduler import Scheduler, default_scheduler


class SimulationError(RuntimeError):
    """The execution did not quiesce (deadlock or runaway message flood)."""


@dataclass
class SimulationReport:
    """Outcome counters for one run (full data lives in the trace).

    ``perf_counters`` holds the deltas of every
    :class:`~repro.geometry.cache.PerfCounters` field attributed to this
    run (hull calls, cache calls and hits, LP solves, transport and recovery
    tallies).
    """

    delivery_steps: int
    messages_sent: int
    messages_delivered: int
    decided: list[int]
    crashed: list[int]
    perf_counters: dict[str, int] = field(default_factory=dict)
    #: Pids reanimated by the crash-recovery machinery, in revival order.
    #: Empty for crash-stop plans (the historical report is unchanged).
    recovered: list[int] = field(default_factory=list)
    #: Application-level delivery sequence as ``(src, dst)`` pairs.
    #: Populated only by transport runs (:mod:`repro.runtime.transport`),
    #: where it is the reliable-network schedule the lossy execution is
    #: equivalent to; the structural-network path leaves it empty (there
    #: the scheduler's own decisions are that schedule).
    app_deliveries: tuple[tuple[int, int], ...] = ()


def _default_max_steps(n: int) -> int:
    """Generous quiescence bound on scheduler decisions for ``n`` processes.

    Stable vector is O(n^3) messages and each of the t_end rounds is
    O(n^2); the constant absorbs echoes.
    """
    return 2000 * n * n * n + 100_000


def _build_shells(cores: list[ProtocolCore], plan: FaultPlan, network, store):
    """One fault-aware shell per core, with its Byzantine engine, if any."""
    from .byzantine import byzantine_engines

    engines = byzantine_engines(plan, len(cores))
    return [
        ProcessShell(
            core,
            network,
            crash_spec=plan.crash_spec(core.pid),
            checkpoint_store=store,
            byzantine=engines.get(core.pid),
        )
        for core in cores
    ]


def _finish_report(
    shells: list[ProcessShell], plan: FaultPlan, **counters
) -> SimulationReport:
    """Termination check, report assembly and the trace hand-off."""
    decided = [s.pid for s in shells if s.done]
    crashed = [s.pid for s in shells if s.crashed]
    # Byzantine pids are exempt from the termination demand: an adversary
    # sabotaging its own broadcasts can legitimately never decide.
    undecided = [
        s.pid for s in shells
        if s.alive and not s.done and not s.ever_crashed
        and s.pid not in plan.byzantine
    ]
    if undecided:
        raise SimulationError(
            f"non-crashed processes ended undecided: {undecided}"
        )
    # Propagate shell accounting into cores that carry a trace.
    for shell in shells:
        trace = getattr(shell.core, "trace", None)
        if trace is not None:
            trace.sends_in_round = dict(shell.protocol_sends)
            trace.crash_fired_round = shell.crash_fired_round
    return SimulationReport(
        decided=decided,
        crashed=crashed,
        **counters,
    )


def _drive(
    cores: list[ProtocolCore],
    fault_plan: FaultPlan | None,
    source,
    sched: Scheduler | None,
    *,
    max_steps: int,
    on_deliver: Callable[[], None] | None = None,
    checkpoint_store=None,
    core_factory=None,
) -> SimulationReport:
    """The delivery loop: run the cores over ``source`` to quiescence."""
    from .recovery import RecoveryManager, make_recovery_setup

    plan = (fault_plan or FaultPlan.none()).validate(len(cores))
    store = make_recovery_setup(plan, checkpoint_store, core_factory)
    shells = _build_shells(cores, plan, source, store)
    manager = (
        RecoveryManager(plan, shells, core_factory=core_factory, store=store)
        if plan.recoveries
        else None
    )
    perf_before = PERF.snapshot()
    deliveries = 0

    def note_crash(shell: ProcessShell) -> None:
        # Only the shell that just dispatched can have crashed: crash
        # specs fire while *sending*, and sends happen inside receive().
        if shell.crashed:
            if manager is not None:
                manager.note_crash(shell, deliveries)
            source.mark_crashed(
                shell.pid,
                manager is not None and manager.will_recover(shell.pid),
            )

    def revive(pid: int) -> None:
        """Execute one revival, then hand it the envelopes parked for it."""
        nonlocal deliveries
        shell = manager.revive(pid, deliveries)
        for env in source.mark_recovered(pid):
            deliveries += 1
            shell.receive(env.payload, env.src)
            if on_deliver is not None:
                on_deliver()

    for shell in shells:
        shell.start()
    # A crash spec can fire during the initial fan-out; fold those crashes
    # into the source before the first delivery.
    for shell in shells:
        note_crash(shell)
    if on_deliver is not None:
        on_deliver()

    while True:
        env = source.next(sched)
        if env is None:
            if manager is not None and manager.has_pending:
                # Quiescence with revivals pending: an asynchronous
                # system cannot distinguish a delayed restart, so fire
                # the earliest one now instead of deadlocking.
                revive(manager.pop_earliest())
                continue
            break
        if source.steps > max_steps:
            raise SimulationError(
                f"no quiescence after {max_steps} delivery steps "
                f"(sent={source.messages_sent})"
            )
        deliveries += 1
        receiver = shells[env.dst]
        receiver.receive(env.payload, env.src)
        note_crash(receiver)
        if manager is not None:
            for pid in manager.due(deliveries):
                revive(pid)
        if on_deliver is not None:
            on_deliver()

    return _finish_report(
        shells,
        plan,
        delivery_steps=source.steps,
        messages_sent=source.messages_sent,
        messages_delivered=source.messages_delivered,
        perf_counters=PERF.diff(perf_before),
        recovered=list(manager.revived) if manager is not None else [],
        app_deliveries=tuple(source.app_deliveries),
    )


def run_simulation(
    cores: list[ProtocolCore],
    fault_plan: FaultPlan | None = None,
    scheduler: Scheduler | None = None,
    *,
    max_steps: int | None = None,
    on_deliver: Callable[[], None] | None = None,
    link_faults=None,
    reliable_transport: bool = True,
    checkpoint_store=None,
    core_factory=None,
) -> SimulationReport:
    """Drive the cores to quiescence under the given adversary.

    The loop delivers messages until no channel head targets a live
    process.  Protocol design guarantees quiescence (views stop growing,
    rounds are bounded by ``t_end``); ``max_steps`` is a defensive bound
    that raises :class:`SimulationError` instead of hanging on bugs.

    Termination is always checked: the run raises
    :class:`SimulationError` if a process that never crashed (and is not
    Byzantine) ends undecided.

    ``on_deliver`` is invoked after every delivery (and once after the
    initial fan-out): the chaos engine's streaming invariant checker
    hooks in here and aborts the run by raising on the first violation,
    instead of paying for the whole execution and checking post-hoc.

    ``link_faults`` (a :class:`~repro.runtime.faults.LinkFaultPlan`)
    switches from the structural reliable network to the lossy fabric +
    reliable transport of :mod:`repro.runtime.transport`; with
    ``reliable_transport=False`` the recovery layer is bypassed and the
    delivery-boundary oracle is expected to trip.  ``link_faults=None``
    with the default ``reliable_transport=True`` is the historical path,
    bit-for-bit unchanged.

    ``checkpoint_store`` / ``core_factory`` serve the crash-recovery
    extension: shells snapshot their cores into the store on every
    transition, and a fault plan with recoveries revives processes
    through a :class:`~repro.runtime.recovery.RecoveryManager` built on
    the factory.  Both default to off (``None``) — crash-stop runs never
    construct any of the machinery.
    """
    if link_faults is not None or not reliable_transport:
        from .transport import run_transport_simulation

        return run_transport_simulation(
            cores,
            fault_plan,
            scheduler,
            link_faults=link_faults,
            reliable_transport=reliable_transport,
            max_steps=max_steps,
            on_deliver=on_deliver,
            checkpoint_store=checkpoint_store,
            core_factory=core_factory,
        )
    n = len(cores)
    return _drive(
        cores,
        fault_plan,
        Network(n),
        scheduler or default_scheduler(),
        max_steps=_default_max_steps(n) if max_steps is None else max_steps,
        on_deliver=on_deliver,
        checkpoint_store=checkpoint_store,
        core_factory=core_factory,
    )
