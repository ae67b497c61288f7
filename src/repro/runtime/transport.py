"""Lossy network fabric + reliable-delivery transport.

The paper's system model (Section 1) *postulates* reliable FIFO
exactly-once channels.  :mod:`repro.runtime.network` enforces that
postulate structurally; this module **earns** it instead, the way a real
deployment would, by layering:

1. :class:`LossyFabric` — a fair-lossy physical layer.  Per directed
   link, frames are dropped, duplicated, delayed (and thereby
   reordered), corrupted (their integrity checksum scrambled, so the
   receive path detects and discards them — ``corrupt_drops`` — and
   retransmission recovers), or blackholed during partition intervals,
   according to a
   :class:`~repro.runtime.faults.LinkFaultSpec` and a deterministic
   per-link RNG stream (``default_rng([seed, src, dst])``), so every
   execution is bit-reproducible per seed.

2. :class:`TransportNetwork` — a reliable-delivery transport over the
   fabric: per-channel sequence numbers, cumulative acks, retransmission
   with seeded exponential backoff (reusing the experiment engine's
   :func:`~repro.analysis.engine.retry_delay` schedule), out-of-order
   reassembly, and duplicate suppression.  It duck-types
   :class:`~repro.runtime.network.Network` for
   :class:`~repro.runtime.process.ProcessShell`, so Algorithm CC and
   every baseline run *unmodified* on top.

The reliable-channel contract is still **checked**, not assumed: an
independent per-channel sequence counter at the application delivery
boundary raises :class:`~repro.runtime.channel.ChannelError` if the
transport ever hands the application an out-of-order or duplicate
payload — the end-to-end oracle.  Running with
``reliable_transport=False`` (raw mode) bypasses the recovery machinery
while keeping the oracle, which is how the chaos suite demonstrates that
the transport — not luck — restores the model.

Time: the simulator has no clock, only delivery order; the fabric adds
the minimal notion the transport needs — a *fabric clock* that advances
by one per frame delivery and jumps forward over idle periods to the
next retransmission timer or partition heal.  Delays, backoff, and
partition intervals are all measured in these steps.

A link partitioned forever (``heal=None``) makes retransmission futile;
instead of hanging, the run aborts with :class:`TransportBudgetError`
(a :class:`~repro.runtime.simulator.SimulationError`) once the fabric
clock exceeds the delivery budget — exponential backoff reaches any
budget in logarithmically many retries, so the abort is prompt.

Cost per fabric frame: each link's spec is resolved once, when the
fabric is built; :meth:`LossyFabric.ready_frames` walks one list of the
links that have carried a frame, kept sorted by ``(src, dst)``, and
checks partition windows only on links that have any; retransmission
timers sit in a heap of ``(next_retry, link_rank, seq, link)`` that
:meth:`TransportNetwork.pump` pops and fires in ``(link_rank, seq)``
order: the order links first carried a reliable frame, then sequence
number.  That order is load-bearing: each retransmission moves
``in_flight``, which the next timeout reads.  A ready set maintained
incrementally, as :meth:`~repro.runtime.network.Network.ready_view` does
for the structural network, was prototyped against the sorted scan and
did not pay at n=8 (3.19-3.50 against 3.30-3.38 ``lossy-1d`` cases/s,
2-CPU VM), so the scan stays.  ``tests/oracles/transport.py`` keeps the
full scans both orders must match.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from collections import deque
from dataclasses import dataclass, field, replace
from operator import attrgetter, itemgetter
from typing import Callable

from ..geometry.cache import PERF
from .channel import ChannelError
from .faults import FaultPlan, LinkFaultPlan, LinkFaultSpec
from .messages import Payload
from .process import ProtocolCore
from .scheduler import Scheduler, default_scheduler
from .simulator import SimulationError, SimulationReport, _default_max_steps, _drive

#: Frame kinds on the wire.
DATA = "data"
ACK = "ack"

#: Default fabric-clock budget.  Legal runs use O(messages) clock steps;
#: a forever-partitioned link doubles its backoff every retry, so it
#: burns through this budget after ~20 retransmissions per frame — the
#: graceful-degradation abort is prompt, not a hang.
DEFAULT_CLOCK_BUDGET = 1 << 24

#: Retransmission-timeout base, in fabric clock steps.
RTO_BASE = 8.0


class TransportBudgetError(SimulationError):
    """The fabric clock exhausted its delivery budget.

    Raised instead of hanging when reliable delivery is impossible —
    in practice, when a link is partitioned forever.  Classified by the
    chaos engine as a (expected, for the partition-forever profile)
    termination finding.
    """


@dataclass
class Frame:
    """One transport-layer datagram in flight on a directed link.

    ``seq`` is the channel sequence number for DATA frames and the
    cumulative acknowledgement (next expected sequence) for ACK frames.
    ``release`` is the fabric clock step at which the frame becomes
    deliverable; ``order`` breaks release ties by transmission order.
    Schedulers see frames exactly like envelopes (``src``/``dst``).
    """

    kind: str
    src: int
    dst: int
    seq: int
    send_round: int = 0
    payload: Payload | None = None
    attempt: int = 0
    release: int = field(default=0, compare=False)
    order: int = field(default=0, compare=False)
    #: Integrity checksum stamped by the transport at send time; ``None``
    #: means "unchecked" (frames built directly by tests).  A corrupting
    #: link scrambles this field; the receive path verifies it before any
    #: transport processing, so a damaged frame is dropped and recovered
    #: by retransmission instead of reaching the application.
    checksum: int | None = field(default=None, compare=False)


def frame_checksum(frame: Frame) -> int:
    """Checksum over a frame's identity and payload.

    Payloads are frozen, hashable dataclasses, so Python's tuple hash is
    a deterministic within-process digest of every field the application
    will ever see.  The checksum's *value* is never observable (drops and
    retransmissions depend only on match/mismatch, and a scrambled field
    mismatches by construction), so hash randomization across OS
    processes cannot perturb replays.
    """
    return hash(
        (frame.kind, frame.src, frame.dst, frame.seq, frame.send_round, frame.payload)
    )


#: Sort keys: a link queue by (release, order), the link scan by link.
_release_key = attrgetter("release", "order")
_link_key = itemgetter(0)


class LossyFabric:
    """The fair-lossy physical layer: per-link drop/dup/delay/partition.

    Each directed link keeps its in-flight frames sorted by
    ``(release, order)`` and exposes only the earliest-deliverable frame
    per link, so scheduler decisions stay identifiable by ``(src, dst)``
    — the property :class:`~repro.runtime.scheduler.ScheduleRecorder`
    bundles and the shrinker rely on.  All randomness comes from one
    deterministic RNG stream per link, seeded from
    ``(plan.seed, src, dst)``: fault rolls depend only on the order of
    transmissions *on that link*, never on cross-link interleaving.
    """

    def __init__(self, n: int, plan: LinkFaultPlan):
        if n < 1:
            raise ValueError("fabric needs at least one process")
        self.n = n
        self.plan = plan
        self.clock = 0
        #: Frames queued on all links, kept by :meth:`_enqueue` and
        #: :meth:`deliver`.
        self.in_flight = 0
        # Every directed link's spec, resolved once.
        self._specs: dict[tuple[int, int], LinkFaultSpec] = {
            (src, dst): plan.spec(src, dst)
            for src in range(n)
            for dst in range(n)
            if src != dst
        }
        self._queues: dict[tuple[int, int], list[Frame]] = {}
        # The links that have carried a frame, sorted by (src, dst): the
        # scan order of ready_frames.  Each entry holds the link's queue
        # and, only when the link has partition windows, its spec.
        self._scan: list[tuple[tuple[int, int], list[Frame], LinkFaultSpec | None]] = []
        self._rngs: dict[tuple[int, int], object] = {}
        self._order = 0
        # Finite heal times of every partition interval on every link,
        # sorted; crossing one while advancing the clock counts a heal.
        self._pending_heals = sorted(
            (
                heal
                for spec in self._specs.values()
                for _start, heal in spec.partitions
                if heal is not None
            ),
            reverse=True,
        )

    def _rng(self, src: int, dst: int):
        key = (src, dst)
        rng = self._rngs.get(key)
        if rng is None:
            import numpy as np

            rng = np.random.default_rng([self.plan.seed, src, dst])
            self._rngs[key] = rng
        return rng

    def send(self, frame: Frame) -> bool:
        """Transmit a frame; returns True if anything was enqueued.

        Fault rolls happen in a fixed order (loss, dup, then per-copy
        delay and reorder) so the per-link RNG stream is consumed
        identically across replays.
        """
        spec = self._specs[frame.src, frame.dst]
        if spec.partitioned_at(self.clock):
            PERF.link_drops += 1
            return False
        if not spec.faulty:
            frame.release = self.clock
            self._enqueue(frame)
            return True
        rng = self._rng(frame.src, frame.dst)
        if spec.loss and rng.random() < spec.loss:
            PERF.link_drops += 1
            return False
        copies = 1
        if spec.dup and rng.random() < spec.dup:
            copies = 2
            PERF.link_dups += 1
        for copy_index in range(copies):
            fr = frame if copy_index == 0 else replace(frame)
            fr.release = self.clock
            if spec.delay:
                fr.release += int(rng.integers(0, spec.delay + 1))
            if spec.reorder and rng.random() < spec.reorder:
                fr.release += int(rng.integers(1, 3 * (spec.delay + 1) + 1))
            # Corruption roll last, gated on the axis being active, so
            # links without a corrupt rate consume the exact same RNG
            # stream as before the axis existed (replay compatibility).
            if spec.corrupt and rng.random() < spec.corrupt:
                flip = 1 + int(rng.integers(0, 1 << 30))
                fr.checksum = (fr.checksum or 0) ^ flip
            self._enqueue(fr)
        return True

    def _enqueue(self, frame: Frame) -> None:
        self._order += 1
        frame.order = self._order
        key = (frame.src, frame.dst)
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = []
            spec = self._specs[key]
            insort(self._scan, (key, queue, spec if spec.partitions else None), key=_link_key)
        insort(queue, frame, key=_release_key)
        self.in_flight += 1

    def ready_frames(self) -> list[Frame]:
        """Deliverable link heads, in deterministic ``(src, dst)`` order."""
        clock = self.clock
        out = []
        for _key, queue, partitioned in self._scan:
            if queue:
                head = queue[0]
                if head.release <= clock and (
                    partitioned is None or not partitioned.partitioned_at(clock)
                ):
                    out.append(head)
        return out

    def deliver(self, frame: Frame) -> None:
        """Remove a chosen head from its link and advance the clock."""
        queue = self._queues.get((frame.src, frame.dst))
        if not queue or queue[0] is not frame:
            raise ChannelError("scheduler chose a non-head frame")
        queue.pop(0)
        self.in_flight -= 1
        self.advance_to(self.clock + 1)

    def advance_to(self, clock: int) -> None:
        """Move the fabric clock forward, recording partition heals."""
        while self._pending_heals and self._pending_heals[-1] <= clock:
            self._pending_heals.pop()
            PERF.partition_heals += 1
        self.clock = clock

    def _available_from(self, spec: LinkFaultSpec, t0: int) -> int | None:
        """Earliest clock >= t0 at which the link carries frames (None = never)."""
        t = t0
        for _ in range(len(spec.partitions) + 1):
            if not spec.partitioned_at(t):
                return t
            heal = spec.heal_after(t)
            if heal is None:
                return None
            t = heal
        return t

    def next_release(self) -> int | None:
        """Earliest future clock at which any queued frame is deliverable.

        Returns None when nothing queued can ever be delivered (empty
        fabric, or only frames stuck behind never-healing partitions).
        """
        best: int | None = None
        for key, queue in self._queues.items():
            if not queue:
                continue
            available = self._available_from(self._specs[key], self.clock)
            if available is None:
                continue
            candidate = max(queue[0].release, available)
            if best is None or candidate < best:
                best = candidate
        return best


@dataclass
class _Pending:
    """Sender-side retransmission state for one unacknowledged frame."""

    frame: Frame
    attempt: int
    next_retry: int


class TransportNetwork:
    """Reliable-delivery transport over a :class:`LossyFabric`.

    Duck-types :class:`~repro.runtime.network.Network` for process
    shells (``n`` + ``send``) and for the simulator's delivery loop (a
    delivery source: :meth:`next`, :meth:`mark_crashed`,
    :meth:`mark_recovered`, ``steps``).  Transport endpoints belong to the
    *channel infrastructure*, not the process: a crashed process stops
    sending new application messages, but frames already handed to the
    transport keep being retransmitted and acknowledged — exactly the
    reliable-channel property ("what was sent before the crash stays
    deliverable") the structural :class:`Network` provides.
    """

    def __init__(
        self,
        n: int,
        link_faults: LinkFaultPlan | None = None,
        *,
        reliable: bool = True,
        clock_budget: int = DEFAULT_CLOCK_BUDGET,
    ):
        self.n = n
        self.fabric = LossyFabric(n, link_faults or LinkFaultPlan())
        self.reliable = reliable
        self.clock_budget = clock_budget
        self.messages_sent = 0
        self.messages_delivered = 0
        self._send_seq: dict[tuple[int, int], int] = {}
        self._unacked: dict[tuple[int, int], dict[int, _Pending]] = {}
        # Retransmission timers: a heap of (next_retry, link_rank, seq,
        # link), where link_rank is the order in which the link entered
        # ``_unacked``.  An entry is live while its frame is unacked and
        # still due at that next_retry; acked frames leave dead entries
        # behind, which are skipped when they surface.
        self._link_rank: dict[tuple[int, int], int] = {}
        self._timers: list[tuple[int, int, int, tuple[int, int]]] = []
        self._expected: dict[tuple[int, int], int] = {}
        self._stash: dict[tuple[int, int], dict[int, Frame]] = {}
        # Independent boundary counters — the end-to-end ChannelError
        # oracle.  Deliberately not shared with ``_expected``: a bug in
        # the reassembly logic must trip the oracle, so the oracle may
        # not reuse the reassembly state.
        self._boundary_seq: dict[tuple[int, int], int] = {}
        # Delivery-source state: fabric frames delivered, the application
        # schedule, app frames released by the current fabric frame, and
        # the receivers that are down (those that will come back get their
        # frames parked: acked already, they can never be retransmitted).
        self.steps = 0
        self.app_deliveries: list[tuple[int, int]] = []
        self.checkpoint_store = None
        self._released: deque[Frame] = deque()
        self._frame_open = False
        self._crashed: set[int] = set()
        self._parked: dict[int, list[Frame]] = {}

    # -- Network duck-type -------------------------------------------------
    def send(self, src: int, dst: int, payload: Payload, send_round: int) -> None:
        if src == dst:
            raise ChannelError("self-messages are handled locally, not via network")
        link = (src, dst)
        seq = self._send_seq.get(link, 0)
        self._send_seq[link] = seq + 1
        frame = Frame(
            kind=DATA,
            src=src,
            dst=dst,
            seq=seq,
            send_round=send_round,
            payload=payload,
        )
        frame.checksum = frame_checksum(frame)
        self.messages_sent += 1
        if self.reliable:
            pending = self._unacked.get(link)
            if pending is None:
                pending = self._unacked[link] = {}
                self._link_rank[link] = len(self._link_rank)
            next_retry = self.fabric.clock + self._rto(link, seq, 1)
            pending[seq] = _Pending(frame=frame, attempt=1, next_retry=next_retry)
            heapq.heappush(self._timers, (next_retry, self._link_rank[link], seq, link))
        self.fabric.send(replace(frame))

    @property
    def undelivered(self) -> int:
        return self.messages_sent - self.messages_delivered

    # -- receive path ------------------------------------------------------
    def on_frame(self, frame: Frame) -> list[Frame]:
        """Process one fabric delivery; returns in-order app-ready frames."""
        # Integrity gate first: a frame damaged on a corrupting link is
        # dropped before any transport state is touched — DATA and ACK
        # alike.  The pristine copy stays in the retransmit queue, so
        # reliable mode recovers; the application boundary never sees a
        # corrupted payload.
        if frame.checksum is not None and frame.checksum != frame_checksum(frame):
            PERF.corrupt_drops += 1
            return []
        if frame.kind == ACK:
            self._on_ack(frame)
            return []
        link = (frame.src, frame.dst)
        if not self.reliable:
            # Raw mode: straight to the delivery boundary — loss shows
            # up as a sequence gap, duplication as a replay; the oracle
            # in deliver_to_app() catches both.
            return [frame]
        expected = self._expected.get(link, 0)
        if frame.seq < expected:
            PERF.dup_drops += 1
            self._send_ack(link)
            return []
        if frame.seq > expected:
            stash = self._stash.setdefault(link, {})
            if frame.seq in stash:
                PERF.dup_drops += 1
            else:
                stash[frame.seq] = frame
            self._send_ack(link)
            return []
        out = [frame]
        expected += 1
        stash = self._stash.get(link, {})
        while expected in stash:
            out.append(stash.pop(expected))
            expected += 1
        self._expected[link] = expected
        self._send_ack(link)
        return out

    def deliver_to_app(self, frame: Frame) -> None:
        """The delivery boundary: check the reliable-channel contract.

        An independent per-channel counter re-verifies FIFO exactly-once
        before the payload reaches the process shell; any transport bug
        (or raw mode over a faulty link) surfaces here as a
        :class:`ChannelError`, exactly as it would on the structural
        :class:`~repro.runtime.network.Network`.
        """
        link = (frame.src, frame.dst)
        expected = self._boundary_seq.get(link, 0)
        if frame.seq != expected:
            raise ChannelError(
                f"channel {frame.src}->{frame.dst}: transport handed the "
                f"application seq {frame.seq}, expected {expected} "
                f"(reliable FIFO exactly-once contract violated)"
            )
        self._boundary_seq[link] = expected + 1
        self.messages_delivered += 1
        self.app_deliveries.append(link)

    def note_crashed_drop(self, frame: Frame) -> None:
        """Advance the boundary oracle past a frame its receiver slept through.

        Crash-stop semantics on the transport: a frame addressed to a
        crashed process is consumed and acknowledged by the channel
        *infrastructure* but never delivered to the application.  The
        independent boundary counter must still advance — otherwise a
        later revival of the same endpoint would trip the oracle on the
        very first legitimate delivery (the latent stall this method
        fixes).  ``messages_delivered`` deliberately does *not* advance:
        the application never saw the payload.
        """
        link = (frame.src, frame.dst)
        expected = self._boundary_seq.get(link, 0)
        if frame.seq != expected:
            raise ChannelError(
                f"channel {frame.src}->{frame.dst}: transport retired seq "
                f"{frame.seq} at a crashed endpoint, expected {expected}"
            )
        self._boundary_seq[link] = expected + 1
        PERF.crashed_app_drops += 1

    # -- delivery source (the simulator's loop) ----------------------------
    def next(self, sched) -> Frame | None:
        """Next application frame for a live receiver; None at quiescence.

        The scheduler orders *fabric* frames (data, retransmissions,
        acks); one fabric frame can release zero or several in-order
        application frames, handed out one per call.  A frame released to
        a crashed receiver is parked when the receiver will come back and
        retired at the boundary oracle otherwise (old-network semantics:
        the transport acked it, the application never sees it).  The
        channel checkpoint and :meth:`pump` run once per fabric frame,
        after every application frame it released.
        """
        while True:
            while self._released:
                frame = self._released.popleft()
                if frame.dst not in self._crashed:
                    self.deliver_to_app(frame)
                    return frame
                if frame.dst in self._parked:
                    self._parked[frame.dst].append(frame)
                else:
                    self.note_crashed_drop(frame)
            if self._frame_open:
                self._frame_open = False
                self._save_checkpoint()
                self.pump()
            frames = self.fabric.ready_frames()
            if not frames:
                if not self.has_work():
                    return None
                self.advance_idle()
                continue
            self.steps += 1
            frame = frames[sched.choose(frames)]
            self.fabric.deliver(frame)
            self._released.extend(self.on_frame(frame))
            self._frame_open = True

    def mark_crashed(self, dst: int, recovering: bool = False) -> None:
        """Stop application delivery to ``dst``; its endpoint keeps acking.

        Frames released to it from now on are parked for its revival when
        it is ``recovering``, and retired at the boundary otherwise.
        """
        self._crashed.add(dst)
        if recovering:
            self._parked.setdefault(dst, [])

    def mark_recovered(self, dst: int) -> list[Frame]:
        """Re-open delivery to ``dst``; its parked frames cross the boundary.

        The caller hands them to the revived process in arrival order,
        before anything else reaches it.
        """
        self._crashed.discard(dst)
        self._save_checkpoint()
        parked = self._parked.pop(dst, [])
        for frame in parked:
            self.deliver_to_app(frame)
        return parked

    def _save_checkpoint(self) -> None:
        if self.checkpoint_store is not None:
            self.checkpoint_store.save("transport", self.checkpoint())

    # -- checkpointing (crash-recovery support) ----------------------------
    def checkpoint(self) -> dict:
        """JSON-safe snapshot of the per-channel transport state.

        Per directed link: the next send sequence number, the cumulative
        ack (receiver's next expected sequence), the delivery-boundary
        counter, and a digest of the retransmit queue (the sorted
        unacknowledged sequence numbers).  Everything a restarted
        transport endpoint needs to resume seq/ack numbering without
        violating FIFO exactly-once.
        """
        links = (
            set(self._send_seq) | set(self._expected)
            | set(self._boundary_seq) | set(self._unacked)
        )
        return {
            "clock": self.fabric.clock,
            "channels": {
                f"{src}->{dst}": {
                    "send_seq": self._send_seq.get((src, dst), 0),
                    "expected": self._expected.get((src, dst), 0),
                    "boundary": self._boundary_seq.get((src, dst), 0),
                    "unacked": sorted(self._unacked.get((src, dst), {})),
                }
                for src, dst in sorted(links)
            },
        }

    def restore_channels(self, data: dict) -> None:
        """Resume seq/ack numbering from a :meth:`checkpoint` snapshot.

        Only the counters are restored — queued frames belong to the
        fabric, and unacknowledged payloads died with the old endpoint
        (their sequence numbers stay burned, so receivers treat any
        stale copy as a duplicate).  Used when simulating a whole-node
        restart in which the transport endpoint itself is rebuilt.
        """
        for key, ch in data["channels"].items():
            src_s, dst_s = key.split("->")
            link = (int(src_s), int(dst_s))
            self._send_seq[link] = int(ch["send_seq"])
            self._expected[link] = int(ch["expected"])
            self._boundary_seq[link] = int(ch["boundary"])

    def _on_ack(self, frame: Frame) -> None:
        # An ack travelling dst -> src acknowledges the data link
        # src -> dst; ``seq`` is cumulative (next expected), so pruning
        # is idempotent and duplicate/stale acks are harmless.
        data_link = (frame.dst, frame.src)
        pending = self._unacked.get(data_link)
        if not pending:
            return
        for seq in [s for s in pending if s < frame.seq]:
            del pending[seq]

    def _send_ack(self, link: tuple[int, int]) -> None:
        src, dst = link
        PERF.ack_messages += 1
        ack = Frame(kind=ACK, src=dst, dst=src, seq=self._expected.get(link, 0))
        ack.checksum = frame_checksum(ack)
        self.fabric.send(ack)

    # -- timers ------------------------------------------------------------
    def _rto(self, link: tuple[int, int], seq: int, attempt: int) -> int:
        """Retransmission timeout (fabric steps) before retry ``attempt + 1``.

        Reuses the experiment engine's deterministic seeded backoff
        schedule (exponential with multiplicative jitter, keyed by
        channel and sequence number).  The base adapts to the current
        fabric queue depth: the clock advances one step per frame
        delivery, so a frame legitimately waits ~in_flight steps before
        its turn — a fixed base would retransmit healthy traffic.  The
        adaptation stays deterministic: ``in_flight`` is itself a pure
        function of the execution prefix.
        """
        from ..analysis.engine import retry_delay

        base = RTO_BASE + 2.0 * self.fabric.in_flight
        delay = retry_delay(f"{link[0]}->{link[1]}#{seq}", attempt, base)
        return max(1, int(math.ceil(delay)))

    def pump(self) -> None:
        """Fire expired retransmission timers; enforce the clock budget."""
        clock = self.fabric.clock
        if clock > self.clock_budget:
            raise TransportBudgetError(
                f"fabric clock {clock} exceeded the delivery budget "
                f"{self.clock_budget} with {self.total_unacked} frame(s) "
                "still unacknowledged — reliable delivery is impossible "
                "(a never-healing partition?); aborting instead of hanging"
            )
        if not self.reliable:
            return
        # Expired timers fire in (link_rank, seq) order: each send moves
        # ``in_flight``, which the next ``_rto`` reads.
        due: dict[tuple[int, int], tuple[tuple[int, int], _Pending]] = {}
        while (next_retry := self._next_retry()) is not None and next_retry <= clock:
            _, rank, seq, link = heapq.heappop(self._timers)
            due[rank, seq] = (link, self._unacked[link][seq])
        for rank, seq in sorted(due):
            link, entry = due[rank, seq]
            entry.attempt += 1
            PERF.retransmissions += 1
            self.fabric.send(replace(entry.frame, attempt=entry.attempt))
            entry.next_retry = clock + self._rto(link, seq, entry.attempt)
            heapq.heappush(self._timers, (entry.next_retry, rank, seq, link))

    def _next_retry(self) -> int | None:
        """The earliest live retransmission deadline (None = no timer).

        Drops the dead entries (acked frames) it finds on top of the heap.
        """
        timers = self._timers
        while timers:
            next_retry, _rank, seq, link = timers[0]
            entry = self._unacked[link].get(seq)
            if entry is not None and entry.next_retry == next_retry:
                return next_retry
            heapq.heappop(timers)
        return None

    @property
    def total_unacked(self) -> int:
        return sum(len(p) for p in self._unacked.values())

    def has_work(self) -> bool:
        """Anything left that can (or keeps trying to) make progress?"""
        if self.fabric.next_release() is not None:
            return True
        return self.reliable and self.total_unacked > 0

    def advance_idle(self) -> None:
        """Nothing deliverable now: jump the clock to the next event."""
        candidates = [
            t for t in (self.fabric.next_release(), self._next_retry()) if t is not None
        ]
        if not candidates:
            raise SimulationError("advance_idle() called with no pending work")
        self.fabric.advance_to(max(min(candidates), self.fabric.clock + 1))
        self.pump()


def run_transport_simulation(
    cores: list[ProtocolCore],
    fault_plan: FaultPlan | None = None,
    scheduler: Scheduler | None = None,
    *,
    link_faults: LinkFaultPlan | None = None,
    reliable_transport: bool = True,
    max_steps: int | None = None,
    clock_budget: int = DEFAULT_CLOCK_BUDGET,
    require_all_fault_free_decide: bool = True,
    on_deliver: Callable[[], None] | None = None,
    checkpoint_store=None,
    core_factory=None,
) -> SimulationReport:
    """Drive the cores over a lossy fabric through the simulator's loop.

    The scheduler now adversarially orders *frames* (data,
    retransmissions, acks) instead of application envelopes; per-link
    FIFO no longer holds on the wire — the transport restores it at the
    delivery boundary.  ``delivery_steps`` counts fabric frames and
    ``max_steps`` bounds them.  The report's ``app_deliveries`` records the
    application-level delivery sequence, which (by construction of the
    reliable layer) is a legal schedule of the structural reliable
    network — the transport-equivalence property suite replays it there
    and demands identical decisions.
    """
    n = len(cores)
    transport = TransportNetwork(
        n,
        link_faults,
        reliable=reliable_transport,
        clock_budget=clock_budget,
    )
    if max_steps is None:
        # The simulator's quiescence bound, widened for transport
        # overhead: acks roughly double the frame count and loss/dup
        # multiply it by a small constant.
        max_steps = 8 * _default_max_steps(n)
    return _drive(
        cores,
        fault_plan,
        transport,
        scheduler or default_scheduler(),
        max_steps=max_steps,
        require_all_fault_free_decide=require_all_fault_free_decide,
        on_deliver=on_deliver,
        checkpoint_store=checkpoint_store,
        core_factory=core_factory,
    )
