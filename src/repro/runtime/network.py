"""Complete-graph network fabric with reliable FIFO exactly-once channels.

System model (paper Section 1): ``n`` processes, every pair connected,
channels reliable and FIFO, each message delivered exactly once.  The
:class:`Network` enforces all three properties structurally:

* *reliable* — an enqueued envelope is never dropped (crashed senders stop
  enqueueing, but what was sent before the crash stays deliverable);
* *FIFO* — a scheduler picks a channel, and the network delivers its
  head;
* *exactly-once* — per-channel sequence numbers are checked on delivery.

Delivery candidates are kept *incrementally*: one list holds the ready
channels (non-empty, receiver live) as :class:`Channel` objects sorted by
``(src, dst)``.  A channel enters it with its first queued message and
leaves when it empties (``insort`` and ``bisect_left``); a crash filters
out the receiver's channels and a revival scans them back in.  Each
delivery step (:meth:`Network.next`) hands that list to the scheduler as
it is and delivers the head of the channel picked, so the default uniform
scheduler, which reads ``len`` and one entry, costs O(1) per delivery.
The runtime tests compare the list against a full scan of the channels
(``tests/oracles/network.py``).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import attrgetter

from .channel import Channel, ChannelError
from .messages import Envelope, Payload

_channel_key = attrgetter("src", "dst")


class Network:
    """All n*(n-1) directed channels plus delivery statistics.

    Also the simulator's structural delivery source (see
    :mod:`repro.runtime.simulator`).  Queued messages survive a restart in
    their channels, and the scheduler's decisions already are the
    application schedule.
    """

    app_deliveries: tuple[tuple[int, int], ...] = ()

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("network needs at least one process")
        self.n = n
        self._channels: dict[tuple[int, int], Channel] = {
            (src, dst): Channel(src, dst)
            for src in range(n)
            for dst in range(n)
            if src != dst
        }
        # The scheduler's candidates: every non-empty channel whose
        # receiver is live, sorted by (src, dst).
        self._ready: list[Channel] = []
        self._crashed_dst: set[int] = set()
        self.messages_sent = 0
        self.messages_delivered = 0

    def send(self, src: int, dst: int, payload: Payload, send_round: int) -> None:
        if src == dst:
            raise ChannelError("self-messages are handled locally, not via network")
        channel = self._channels[(src, dst)]
        channel.enqueue(payload, send_round)
        if channel.depth == 1 and dst not in self._crashed_dst:
            insort(self._ready, channel, key=_channel_key)
        self.messages_sent += 1

    def mark_crashed(self, dst: int, recovering: bool = False) -> None:
        """Register ``dst`` as crashed: its inbound channels stop being ready.

        Messages addressed to it stay queued (reliability) but are no
        longer offered to the scheduler — delivering them would be a
        no-op, and excluding them keeps termination detection simple.
        Whether ``dst`` is ``recovering`` changes nothing here: its queued
        messages wait in their channels either way.
        """
        if dst in self._crashed_dst:
            return
        self._crashed_dst.add(dst)
        self._ready = [channel for channel in self._ready if channel.dst != dst]

    def mark_recovered(self, dst: int) -> list[Envelope]:
        """Undo :meth:`mark_crashed`: queued inbound channels become ready again.

        The channels themselves were never torn down — messages sent to
        the crashed process stayed queued (reliability) and their
        per-channel sequence numbers kept advancing, so FIFO exactly-once
        continues seamlessly across the restart: delivery resumes at the
        exact head the crash interrupted.  Nothing is parked outside the
        channels, so the returned list is always empty.
        """
        if dst in self._crashed_dst:
            self._crashed_dst.discard(dst)
            for src in range(self.n):
                if src == dst:
                    continue
                channel = self._channels[(src, dst)]
                if channel.has_pending:
                    insort(self._ready, channel, key=_channel_key)
        return []

    def next(self, sched) -> Envelope | None:
        """Deliver the head of the ready channel ``sched`` picks.

        The delivery-source step of the simulator's loop; None when
        nothing is ready.  The scheduler is handed the live ready list
        itself, and reads it before the delivery changes it.
        """
        ready = self._ready
        if not ready:
            return None
        return self.deliver(ready[sched.choose(ready)].head)

    @property
    def steps(self) -> int:
        """Delivery steps so far: every delivery is one scheduler decision."""
        return self.messages_delivered

    def deliver(self, env: Envelope) -> Envelope:
        channel = self._channels[(env.src, env.dst)]
        # Verify before popping: a rejected delivery leaves the channel as
        # the caller saw it.
        if not channel.has_pending or channel.head is not env:
            raise ChannelError("scheduler chose a non-head envelope")
        delivered = channel.deliver_head()
        # A crashed receiver's channels are not in the ready list.
        if not channel.has_pending and env.dst not in self._crashed_dst:
            ready = self._ready
            del ready[bisect_left(ready, (env.src, env.dst), key=_channel_key)]
        self.messages_delivered += 1
        return delivered

    @property
    def undelivered(self) -> int:
        return self.messages_sent - self.messages_delivered
