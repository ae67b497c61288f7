"""Crash-recovery orchestration: scheduling and executing reanimations.

The paper's model is crash-stop; the :class:`~repro.runtime.faults.
RecoverySpec` axis extends it with processes that come back.  This module
is the one place the semantics of a revival live, shared by the
simulator's delivery loop (structural network, transport and lockstep
sources alike) and the asyncio runtime:

* a crash with a recovery spec schedules a revival ``recover_at``
  application-level delivery steps later;
* a ``durable`` revival restores the core from its latest checkpoint via
  the runtime's ``core_factory`` (a missing or corrupt checkpoint
  *degrades to amnesia* — the process did crash, its disk did not
  survive);
* an ``amnesia`` revival swaps in a fresh core with the initial input
  and re-runs ``on_start`` (the restart re-broadcasts — equivocation-
  lite);
* a ``late-join`` revival swaps in a fresh core but never calls
  ``on_start``: a passive listener.

The manager never touches a runtime's delivery loop.  Drivers call
:meth:`note_crash` when a shell's crash spec fires, :meth:`due` /
:meth:`pop_earliest` to learn which revivals to execute, and
:meth:`revive` to execute one.  A driver with no recovery specs never
constructs a manager at all — the historical crash-stop path stays
bit-identical.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable

from ..geometry.cache import PERF
from .faults import AMNESIA, DURABLE, FaultPlan
from .process import ProcessShell, ProtocolCore

#: Builds a replacement core for a reviving process.  ``checkpoint`` is
#: the restored snapshot for a durable revival, ``None`` for a fresh
#: (amnesia / late-join) core.  The factory must attach the process's
#: existing trace object, so one :class:`~repro.runtime.tracing.
#: ProcessTrace` spans all incarnations.
CoreFactory = Callable[[int, "dict | None"], ProtocolCore]


class RecoveryManager:
    """Schedules and executes the revivals of one execution."""

    def __init__(
        self,
        plan: FaultPlan,
        shells: list[ProcessShell],
        *,
        core_factory: CoreFactory,
        store=None,
    ):
        if plan.recoveries and core_factory is None:
            raise ValueError(
                "a fault plan with recoveries needs a core_factory to "
                "build the revived process cores"
            )
        self.plan = plan
        self.shells = shells
        self.core_factory = core_factory
        self.store = store
        #: (due_step, pid), sorted — the schedule of pending revivals.
        self._pending: list[tuple[int, int]] = []
        self._scheduled: set[int] = set()
        self.revived: list[int] = []

    # -- scheduling --------------------------------------------------------
    def note_crash(self, shell: ProcessShell, step: int) -> None:
        """A crash spec fired at delivery step ``step``; schedule revival."""
        spec = self.plan.recovery_spec(shell.pid)
        if spec is None or shell.pid in self._scheduled:
            return
        self._scheduled.add(shell.pid)
        insort(self._pending, (step + spec.recover_at, shell.pid))

    @property
    def has_pending(self) -> bool:
        return bool(self._pending)

    def will_recover(self, pid: int) -> bool:
        """Is a revival of ``pid`` scheduled but not yet executed?"""
        return any(p == pid for _, p in self._pending)

    def due(self, step: int) -> list[int]:
        """Pop every revival due at or before ``step`` (schedule order)."""
        out: list[int] = []
        while self._pending and self._pending[0][0] <= step:
            out.append(self._pending.pop(0)[1])
        return out

    def pop_earliest(self) -> int:
        """Pop the earliest pending revival — the quiescence rule.

        An asynchronous system cannot distinguish a delayed restart, so
        when the execution quiesces with revivals still pending the
        runtime fires them immediately rather than deadlock.
        """
        return self._pending.pop(0)[1]

    # -- execution ---------------------------------------------------------
    def revive(self, pid: int, step: int) -> ProcessShell:
        """Reanimate ``pid`` at delivery step ``step``; returns its shell.

        Resolves the effective durability (durable degrades to amnesia
        when no checkpoint survived), records the recovery on the
        process's trace and swaps the replacement core into the shell.
        Re-opening the process's inbound delivery is the driver's job.
        """
        shell = self.shells[pid]
        spec = self.plan.recovery_spec(pid)
        mode = spec.durability
        data = None
        if mode == DURABLE:
            data = self.store.load(pid) if self.store is not None else None
            if data is None:
                # No durable state survived the crash (never checkpointed,
                # or the on-disk entry was corrupt): the process still
                # restarts, but with amnesia.
                mode = AMNESIA
        restarted = mode != DURABLE
        trace = getattr(shell.core, "trace", None)
        if trace is not None:
            trace.note_recovery(step, mode, restarted)
        core = self.core_factory(pid, data)
        shell.revive(core, restart=(mode == AMNESIA))
        self.revived.append(pid)
        PERF.process_recoveries += 1
        if restarted:
            PERF.recovery_restarts += 1
        return shell


def make_recovery_setup(
    plan: FaultPlan,
    checkpoint_store,
    core_factory: CoreFactory | None,
):
    """Shared driver preamble: resolve the (store, needs-manager) pair.

    Auto-provisions an in-memory :class:`~repro.runtime.checkpoint.
    CheckpointStore` when the plan contains durable recoveries and the
    caller supplied none (a durable revival without any store would
    silently degrade every restart to amnesia).  Raises early when
    recoveries are requested without a ``core_factory``.
    """
    store = checkpoint_store
    if plan.recoveries:
        if core_factory is None:
            raise ValueError(
                "fault plan schedules recoveries for "
                f"{sorted(plan.recoveries)} but no core_factory was "
                "given; pass core_factory=... to the runtime driver"
            )
        if store is None and plan.has_durable_recovery:
            from .checkpoint import CheckpointStore

            store = CheckpointStore()
    return store
