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
   per-link RNG stream (the draws of ``default_rng([seed, src, dst])``),
   so every execution is bit-reproducible per seed.

2. :class:`TransportNetwork` — a reliable-delivery transport over the
   fabric: per-channel sequence numbers, cumulative acks, retransmission
   with seeded exponential backoff (:func:`backoff_delay`), out-of-order
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

Cost per fabric frame: whether each link rolls faults and whether it
has partition windows is resolved once, when the fabric is built.  The
fault rolls read :class:`~repro.runtime.draws.Draws`, which returns
numpy's ``Generator`` numbers from pre-drawn blocks of raw words, at a
fraction of a ``Generator`` call's cost.
:meth:`LossyFabric.ready_frames` walks one list of the links whose queue
holds a frame, kept sorted by ``(src, dst)``: a link joins it when its
queue fills and leaves it when its queue empties, and partition windows
are checked only on links that have any.  Readiness is still tested on
every step; a ready list maintained incrementally, as the structural
:class:`~repro.runtime.network.Network` keeps one, was prototyped and did
not pay at n=8.  Frames are slotted and copied by one constructor call
(:meth:`Frame.copy`).
Retransmission timers sit in a heap of ``(clock, link_rank, seq,
link)``.  A timer's deadline needs its seeded jitter, and
:func:`backoff_delay` seeds a PRNG from a string (SHA-512) for each one,
so an armed timer is first keyed by the earliest clock it could fire, its
jitter at the floor of 0.5.  Only when that entry comes up on top of the
heap at or after that clock is its jitter computed and the entry put
back under its deadline; a frame acked before then never pays for it.
:meth:`TransportNetwork.pump` returns at once while the top entry lies
ahead, as it does after most frames, and otherwise pops and fires the
due timers in ``(link_rank, seq)`` order: the order links first carried
a reliable frame, then sequence number.  That order is load-bearing:
each retransmission moves ``in_flight``, which the next timeout reads.
``tests/oracles/transport.py`` keeps the full scans both orders must
match; its timer scans compute every deadline themselves.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Callable

from ..geometry.cache import PERF
from .channel import ChannelError
from .draws import Draws
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


def backoff_delay(src: int, dst: int, seq: int, attempt: int, base: float) -> float:
    """Seeded exponential backoff before retry ``attempt`` of frame ``seq``.

    ``base * 2**(attempt-1)`` with multiplicative jitter in ``[0.5, 1.0)``
    drawn from a PRNG seeded by the channel, sequence number and attempt.
    ``random.Random(str)`` hashes the seed with SHA-512, so the schedule
    is the same across runs, platforms and ``PYTHONHASHSEED`` values, and
    the jitter keeps frames lost together from retrying together.
    """
    rng = random.Random(f"{src}->{dst}#{seq}#retry{attempt}")
    return base * (2 ** (attempt - 1)) * (0.5 + 0.5 * rng.random())


class TransportBudgetError(SimulationError):
    """The fabric clock exhausted its delivery budget.

    Raised instead of hanging when reliable delivery is impossible —
    in practice, when a link is partitioned forever.  Classified by the
    chaos engine as a (expected, for the partition-forever profile)
    termination finding.
    """


@dataclass(slots=True)
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

    def copy(self, attempt: int | None = None) -> Frame:
        """A field-by-field copy, with ``attempt`` replaced when given."""
        return Frame(
            self.kind,
            self.src,
            self.dst,
            self.seq,
            self.send_round,
            self.payload,
            self.attempt if attempt is None else attempt,
            self.release,
            self.order,
            self.checksum,
        )


def frame_checksum(frame: Frame) -> int:
    """Checksum over a frame's identity and payload.

    Payloads are frozen, hashable dataclasses, so Python's tuple hash is
    a deterministic within-process digest of the frame.  A round
    message's state is an immutable polytope that hashes by identity,
    which is stable within one process.  The checksum's *value* is never
    observable (drops and retransmissions depend only on match/mismatch,
    and a corrupting link scrambles only the checksum field, which then
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
        specs = {
            (src, dst): plan.spec(src, dst)
            for src in range(n)
            for dst in range(n)
            if src != dst
        }
        # Every directed link, resolved once: its spec when it rolls faults
        # (None on a perfect link) and its spec when it has partition
        # windows (None otherwise).
        self._links: dict[tuple[int, int], tuple[LinkFaultSpec | None, ...]] = {
            key: (spec if spec.faulty else None, spec if spec.partitions else None)
            for key, spec in specs.items()
        }
        self._queues: dict[tuple[int, int], list[Frame]] = {key: [] for key in specs}
        # The links whose queue holds a frame, sorted by (src, dst): the
        # scan order of ready_frames.  Each entry holds the link's queue
        # and its partition windows.
        self._scan: list[tuple[tuple[int, int], list[Frame], LinkFaultSpec | None]] = []
        self._rngs: dict[tuple[int, int], Draws] = {}
        self._order = 0
        # Finite heal times of every partition interval on every link,
        # sorted; crossing one while advancing the clock counts a heal.
        self._pending_heals = sorted(
            (
                heal
                for spec in specs.values()
                for _start, heal in spec.partitions
                if heal is not None
            ),
            reverse=True,
        )

    def _rng(self, key: tuple[int, int]) -> Draws:
        rng = self._rngs.get(key)
        if rng is None:
            rng = self._rngs[key] = Draws([self.plan.seed, *key])
        return rng

    def send(self, frame: Frame) -> bool:
        """Transmit a frame; returns True if anything was enqueued.

        Fault rolls happen in a fixed order (loss, dup, then per-copy
        delay and reorder) so the per-link RNG stream is consumed
        identically across replays.
        """
        key = (frame.src, frame.dst)
        spec, windows = self._links[key]
        if windows is not None and windows.partitioned_at(self.clock):
            PERF.link_drops += 1
            return False
        if spec is None:
            frame.release = self.clock
            self._enqueue(frame)
            return True
        rng = self._rng(key)
        if spec.loss and rng.random() < spec.loss:
            PERF.link_drops += 1
            return False
        copies = 1
        if spec.dup and rng.random() < spec.dup:
            copies = 2
            PERF.link_dups += 1
        for copy_index in range(copies):
            fr = frame if copy_index == 0 else frame.copy()
            fr.release = self.clock
            if spec.delay:
                fr.release += rng.integers(0, spec.delay + 1)
            if spec.reorder and rng.random() < spec.reorder:
                fr.release += rng.integers(1, 3 * (spec.delay + 1) + 1)
            # Corruption roll last, gated on the axis being active, so
            # links without a corrupt rate consume the exact same RNG
            # stream as before the axis existed (replay compatibility).
            if spec.corrupt and rng.random() < spec.corrupt:
                flip = 1 + rng.integers(0, 1 << 30)
                fr.checksum = (fr.checksum or 0) ^ flip
            self._enqueue(fr)
        return True

    def _enqueue(self, frame: Frame) -> None:
        self._order += 1
        frame.order = self._order
        key = (frame.src, frame.dst)
        queue = self._queues[key]
        if not queue:
            insort(self._scan, (key, queue, self._links[key][1]), key=_link_key)
        insort(queue, frame, key=_release_key)
        self.in_flight += 1

    def ready_frames(self) -> list[Frame]:
        """Deliverable link heads, in deterministic ``(src, dst)`` order."""
        clock = self.clock
        return [
            queue[0]
            for _key, queue, windows in self._scan
            if queue[0].release <= clock
            and (windows is None or not windows.partitioned_at(clock))
        ]

    def deliver(self, frame: Frame) -> None:
        """Remove a chosen head from its link and advance the clock."""
        key = (frame.src, frame.dst)
        queue = self._queues.get(key)
        if not queue or queue[0] is not frame:
            raise ChannelError("scheduler chose a non-head frame")
        queue.pop(0)
        if not queue:
            del self._scan[bisect_left(self._scan, key, key=_link_key)]
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
        for _key, queue, windows in self._scan:
            available = (
                self.clock if windows is None else self._available_from(windows, self.clock)
            )
            if available is None:
                continue
            candidate = max(queue[0].release, available)
            if best is None or candidate < best:
                best = candidate
        return best


@dataclass(slots=True)
class _Pending:
    """Sender-side retransmission state for one unacknowledged frame.

    The timer of ``attempt`` was armed at clock ``armed_at`` with timeout
    base ``base``; its deadline is ``armed_at + max(1, ceil(backoff_delay(
    ..., attempt, base)))``, computed (``deadline``) only when the timer
    could fire (:meth:`TransportNetwork._next_retry`), and None until then.
    """

    frame: Frame
    attempt: int
    armed_at: int = 0
    base: float = 0.0
    deadline: int | None = None


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
        # Retransmission timers: a heap of (clock, link_rank, seq, link),
        # where link_rank is the order in which the link entered
        # ``_unacked``.  The clock is the deadline once resolved and, before
        # that, the earliest clock the timer could fire (see _arm).  Acked
        # frames leave dead entries behind, which are dropped when they
        # surface.
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
            entry = pending[seq] = _Pending(frame, 1)
            self._arm(entry, self._link_rank[link], seq, link)
        self.fabric.send(frame.copy())

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
        the transport acked it, the application never sees it).
        :meth:`pump` runs once per fabric frame, after every application
        frame it released.
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
        parked = self._parked.pop(dst, [])
        for frame in parked:
            self.deliver_to_app(frame)
        return parked

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
    def _arm(self, entry: _Pending, rank: int, seq: int, link: tuple[int, int]) -> None:
        """Start the timer of ``entry.attempt``; its jitter waits until it can fire.

        The timeout is ``backoff_delay`` of the base ``RTO_BASE + 2 *
        in_flight``, captured now.  The base adapts to the current fabric
        queue depth: the clock advances one step per frame delivery, so a
        frame legitimately waits ~in_flight steps before its turn — a
        fixed base would retransmit healthy traffic.  The adaptation stays
        deterministic: ``in_flight`` is itself a pure function of the
        execution prefix.  The heap gets the earliest clock the timer
        could fire, the jitter factor at its floor of 0.5: float products
        are monotone, so it is never later than the deadline.
        """
        clock = self.fabric.clock
        base = RTO_BASE + 2.0 * self.fabric.in_flight
        entry.armed_at = clock
        entry.base = base
        entry.deadline = None
        earliest = clock + max(1, math.ceil(base * (2 ** (entry.attempt - 1)) * 0.5))
        heapq.heappush(self._timers, (earliest, rank, seq, link))

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
        # Most frames fire nothing: return while even the earliest entry,
        # live or dead, lies ahead (always in raw mode, which sets no
        # timer).  Dead entries stay for _next_retry to drop.
        if not self._timers or self._timers[0][0] > clock:
            return
        # Expired timers fire in (link_rank, seq) order: each send moves
        # ``in_flight``, which the next timer's base reads.
        due: dict[tuple[int, int], tuple[tuple[int, int], _Pending]] = {}
        while self._next_retry(clock + 1) is not None:
            _, rank, seq, link = heapq.heappop(self._timers)
            due[rank, seq] = (link, self._unacked[link][seq])
        for rank, seq in sorted(due):
            link, entry = due[rank, seq]
            entry.attempt += 1
            PERF.retransmissions += 1
            self.fabric.send(entry.frame.copy(attempt=entry.attempt))
            self._arm(entry, rank, seq, link)

    def _next_retry(self, before: float = math.inf) -> int | None:
        """The earliest live retransmission deadline, if it is before ``before``.

        Works on the top of the heap only: drops the dead entries (acked
        frames) it finds there, and resolves an entry whose earliest clock
        is before ``before`` (one :func:`backoff_delay` call) and puts it
        back under its deadline.  A timer that is acked before its
        earliest clock comes up never pays for its jitter.  None when no
        live deadline lies before ``before``.
        """
        timers = self._timers
        while timers:
            at, rank, seq, link = timers[0]
            entry = self._unacked[link].get(seq)
            if entry is None:
                heapq.heappop(timers)
            elif at >= before:
                return None
            elif entry.deadline is None:
                delay = backoff_delay(link[0], link[1], seq, entry.attempt, entry.base)
                entry.deadline = entry.armed_at + max(1, math.ceil(delay))
                heapq.heapreplace(timers, (entry.deadline, rank, seq, link))
            else:
                return at
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
        """Nothing deliverable now: jump the clock to the next event.

        A timer that cannot fire before the next release is not resolved.
        """
        release = self.fabric.next_release()
        retry = self._next_retry(math.inf if release is None else release)
        candidates = [t for t in (release, retry) if t is not None]
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
        on_deliver=on_deliver,
        checkpoint_store=checkpoint_store,
        core_factory=core_factory,
    )
