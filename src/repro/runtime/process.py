"""Process shells: crash interception and message accounting.

A *core* (protocol state machine — Algorithm CC, a baseline, or a raw
stable-vector harness) is pure logic: it consumes payloads and emits
outgoing payloads.  The :class:`ProcessShell` wraps a core with everything
the fault model needs:

* stamping outgoing messages with the core's current round (the paper's
  ``F[t]`` bookkeeping is in terms of "sent a round-t message"),
* executing the process's :class:`~repro.runtime.faults.CrashSpec` — in
  particular *mid-broadcast* crashes, where only a prefix of the fan-out
  is actually enqueued,
* keeping the core responsive after it has decided (stable-vector echoes
  must continue or slower processes would starve), and dropping all
  activity after a crash,
* routing outgoing payloads through a
  :class:`~repro.runtime.byzantine.ByzantineEngine` when the process is
  Byzantine — the honest-core / lying-shell model: the core never knows
  it is the adversary.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter

from .faults import CrashSpec
from .messages import Payload
from .network import Network

#: An outgoing message: (destination pid, payload).  ``None`` destination
#: means broadcast to every other process, in ascending pid order (the
#: deterministic order that makes mid-broadcast crash prefixes well
#: defined and executions reproducible).
Outgoing = tuple[int | None, Payload]


class ProtocolCore(ABC):
    """Pure per-process protocol logic (no I/O, no fault handling)."""

    pid: int

    @abstractmethod
    def on_start(self) -> list[Outgoing]:
        """Called once at process start; returns initial messages."""

    @abstractmethod
    def on_message(self, payload: Payload, src: int) -> list[Outgoing]:
        """Handle one delivered payload; returns messages to send."""

    @property
    @abstractmethod
    def current_round(self) -> int:
        """The asynchronous round this process is currently executing."""

    @property
    @abstractmethod
    def done(self) -> bool:
        """True when the core has decided (it may still answer messages)."""

    @property
    def output(self):
        """The decision value; meaningful only when :attr:`done`."""
        return None


class ProcessShell:
    """Fault- and accounting-wrapper around a :class:`ProtocolCore`."""

    def __init__(
        self,
        core: ProtocolCore,
        network: Network,
        crash_spec: CrashSpec | None = None,
        checkpoint_store=None,
        byzantine=None,
    ):
        self.core = core
        self.network = network
        self.crash_spec = crash_spec
        self.checkpoint_store = checkpoint_store
        # A ByzantineEngine (repro.runtime.byzantine) or None.  The
        # honest-core/lying-shell split lives entirely in _dispatch:
        # without an engine, the send path is byte-for-byte the
        # pre-Byzantine code.
        self.byzantine = byzantine
        self.crashed = False
        self.crash_fired_round: int | None = None
        # Execution-position send counts (used by crash triggers: "crash in
        # round r after k sends" refers to where the process *is*).
        self.sends_in_round: Counter[int] = Counter()
        # Protocol-semantic send counts (used for the paper's F[t]: a
        # RoundMessage counts for its own round tag, stable-vector traffic
        # is round-0 regardless of when the echo happens).
        self.protocol_sends: Counter[int] = Counter()

    @property
    def pid(self) -> int:
        return self.core.pid

    @property
    def done(self) -> bool:
        return self.core.done

    @property
    def alive(self) -> bool:
        return not self.crashed

    @property
    def ever_crashed(self) -> bool:
        """True once the crash spec has fired, even after a later revival."""
        return self.crash_fired_round is not None

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.crashed:
            return
        out = self.core.on_start()
        self._save_checkpoint()
        self._dispatch(out)

    def receive(self, payload: Payload, src: int) -> None:
        if self.crashed:
            return
        out = self.core.on_message(payload, src)
        self._save_checkpoint()
        self._dispatch(out)

    # ------------------------------------------------------------------
    def revive(self, core: ProtocolCore | None = None, *, restart: bool = False) -> None:
        """Reanimate a crashed shell (crash-recovery fault model).

        ``core`` replaces the protocol core — a durable restore passes a
        core rebuilt from the latest checkpoint, amnesia/late-join pass a
        fresh one.  The crash spec is consumed: a recovered process does
        not re-crash (one crash per process, matching the paper's crash
        count ``f``), but ``crash_fired_round`` is kept so the ``F[t]``
        bookkeeping still sees the crash.  With ``restart`` the new core's
        ``on_start`` runs (amnesia re-broadcasts from scratch); a durable
        restore resumes mid-protocol without it.
        """
        if not self.crashed:
            raise RuntimeError(f"process {self.pid} is not crashed")
        self.crashed = False
        self.crash_spec = None
        if core is not None:
            self.core = core
        if restart:
            out = self.core.on_start()
            self._save_checkpoint()
            self._dispatch(out)

    # ------------------------------------------------------------------
    def _save_checkpoint(self) -> None:
        """Persist the core's state after a transition, before dispatch.

        Write-ahead discipline: the snapshot lands before any message of
        the transition is sent, so a crash mid-broadcast restores to the
        *post*-transition state — the recovered process never re-consumes
        a delivery the channel already retired.  No-op (and the historical
        no-recovery path is untouched) unless a store is configured and
        the core supports checkpointing.
        """
        store = self.checkpoint_store
        if store is None:
            return
        checkpoint = getattr(self.core, "checkpoint", None)
        if checkpoint is None:
            return
        store.save(self.pid, checkpoint())

    # ------------------------------------------------------------------
    def _dispatch(self, outgoing: list[Outgoing]) -> None:
        for dst, payload in outgoing:
            if dst is None:
                destinations = [
                    d for d in range(self.network.n) if d != self.pid
                ]
            else:
                destinations = [dst]
            semantic_round = getattr(payload, "round_index", 0)
            for destination in destinations:
                if self.crashed:
                    return
                send_round = self.core.current_round
                if self._crash_due(send_round):
                    self.crashed = True
                    self.crash_fired_round = send_round
                    return
                wire = payload
                if self.byzantine is not None:
                    wire = self.byzantine.mutate(payload, destination)
                    if wire is None:
                        # Silent omission: nothing leaves, nothing is
                        # counted — to everyone else this send never
                        # happened (Byzantine pids never also crash, so
                        # the crash triggers' send counts are unaffected).
                        continue
                self.network.send(self.pid, destination, wire, send_round)
                self.sends_in_round[send_round] += 1
                self.protocol_sends[semantic_round] += 1

    def _crash_due(self, send_round: int) -> bool:
        spec = self.crash_spec
        if spec is None:
            return False
        if send_round > spec.round_index:
            return True
        if send_round == spec.round_index:
            return self.sends_in_round[send_round] >= spec.after_sends
        return False
