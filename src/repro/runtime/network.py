"""Complete-graph network fabric with reliable FIFO exactly-once channels.

System model (paper Section 1): ``n`` processes, every pair connected,
channels reliable and FIFO, each message delivered exactly once.  The
:class:`Network` enforces all three properties structurally:

* *reliable* — an enqueued envelope is never dropped (crashed senders stop
  enqueueing, but what was sent before the crash stays deliverable);
* *FIFO* — schedulers only ever see per-channel heads;
* *exactly-once* — per-channel sequence numbers are checked on delivery.

Delivery-candidate bookkeeping is *incremental*: the network maintains the
set of channels that are non-empty, and — once destinations are registered
as crashed via :meth:`mark_crashed` — the subset of those whose head is
actually deliverable, as a set *and* as a lexicographically sorted key
list (``bisect``-maintained, O(log k) search + memmove per update).  Each
delivery step (:meth:`next`) therefore asks for :meth:`ready_view` — a **lazy**
sequence over the sorted ready keys that resolves a channel head only
when indexed — instead of re-sorting and materializing all ~``n^2`` heads
per delivery.  For the default uniform scheduler (which looks at
``len(heads)`` and one chosen element) each delivery touches O(1) heads;
candidate *order* is identical to the eager :meth:`ready_heads`, which
stays as the oracle the runtime tests compare against.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterator, Sequence

from .channel import Channel, ChannelError
from .messages import Envelope, Payload


class ReadyHeadsView(Sequence):
    """Live, lazy, ordered view of a network's deliverable channel heads.

    ``view[i]`` is the head envelope of the ``i``-th ready channel in
    (src, dst) lexicographic order — element for element the same
    sequence :meth:`Network.ready_heads` materializes, but heads are
    fetched on demand: a scheduler that inspects only ``len(view)`` and
    one index (the default uniform scheduler) costs O(1) per delivery
    instead of O(ready channels).

    The view is *live*: it reflects the network's current ready set, so
    it must be consumed before the next ``send``/``deliver`` mutates the
    network (exactly how the simulator's choose-then-deliver loop uses
    it).  Schedulers that iterate receive the heads in the same order as
    the eager list.
    """

    __slots__ = ("_network",)

    def __init__(self, network: "Network"):
        self._network = network

    def __len__(self) -> int:
        return len(self._network._ready_sorted)

    def __getitem__(self, index):
        if isinstance(index, slice):
            net = self._network
            return [
                net._channels[key].head
                for key in net._ready_sorted[index]
            ]
        net = self._network
        return net._channels[net._ready_sorted[index]].head

    def __iter__(self) -> Iterator[Envelope]:
        net = self._network
        for key in net._ready_sorted:
            yield net._channels[key].head


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
        # Incrementally maintained index sets over channel keys.  The
        # sorted list mirrors the ready set exactly (same membership,
        # lexicographic order) so views and eager snapshots agree.
        self._nonempty: set[tuple[int, int]] = set()
        self._ready: set[tuple[int, int]] = set()  # non-empty AND dst not crashed
        self._ready_sorted: list[tuple[int, int]] = []
        self._crashed_dst: set[int] = set()
        self.messages_sent = 0
        self.messages_delivered = 0

    def send(self, src: int, dst: int, payload: Payload, send_round: int) -> None:
        if src == dst:
            raise ChannelError("self-messages are handled locally, not via network")
        key = (src, dst)
        self._channels[key].enqueue(payload, send_round)
        self._nonempty.add(key)
        if dst not in self._crashed_dst and key not in self._ready:
            self._ready.add(key)
            insort(self._ready_sorted, key)
        self.messages_sent += 1

    def mark_crashed(self, dst: int, recovering: bool = False) -> None:
        """Register ``dst`` as crashed: its inbound heads stop being ready.

        Messages addressed to it stay queued (reliability) but are no
        longer offered to the scheduler — delivering them would be a
        no-op, and excluding them keeps termination detection simple.
        Whether ``dst`` is ``recovering`` changes nothing here: its queued
        messages wait in their channels either way.
        """
        if dst in self._crashed_dst:
            return
        self._crashed_dst.add(dst)
        self._ready.difference_update(
            key for key in list(self._ready) if key[1] == dst
        )
        self._ready_sorted = [
            key for key in self._ready_sorted if key[1] != dst
        ]

    def mark_recovered(self, dst: int) -> list[Envelope]:
        """Undo :meth:`mark_crashed`: queued inbound heads become ready again.

        The channels themselves were never torn down — messages sent to
        the crashed process stayed queued (reliability) and their
        per-channel sequence numbers kept advancing, so FIFO exactly-once
        continues seamlessly across the restart: delivery resumes at the
        exact head the crash interrupted.  Nothing is parked outside the
        channels, so the returned list is always empty.
        """
        if dst in self._crashed_dst:
            self._crashed_dst.discard(dst)
            for key in self._nonempty:
                if key[1] == dst and key not in self._ready:
                    self._ready.add(key)
                    insort(self._ready_sorted, key)
        return []

    def ready_heads(self) -> list[Envelope]:
        """Deliverable channel heads, in deterministic (src, dst) order.

        The eager snapshot — materializes every ready head.  The hot loop
        uses :meth:`ready_view` instead; this stays as the oracle (the
        runtime tests assert ``list(ready_view()) == ready_heads()``) and
        as the convenient API for non-hot callers.
        """
        return [self._channels[key].head for key in self._ready_sorted]

    def ready_view(self) -> ReadyHeadsView:
        """Lazy ordered view over the deliverable heads (see class docs)."""
        return ReadyHeadsView(self)

    @property
    def has_ready(self) -> bool:
        return bool(self._ready)

    def next(self, sched) -> Envelope | None:
        """Deliver the ready head ``sched`` picks; None when nothing is ready.

        The delivery-source step of the simulator's loop.  The lazy view
        resolves only the heads the scheduler inspects: O(1) per delivery
        for the default uniform scheduler instead of materializing ~n^2
        heads.
        """
        if not self._ready:
            return None
        heads = self.ready_view()
        return self.deliver(heads[sched.choose(heads)])

    @property
    def steps(self) -> int:
        """Delivery steps so far: every delivery is one scheduler decision."""
        return self.messages_delivered

    def deliver(self, env: Envelope) -> Envelope:
        key = (env.src, env.dst)
        channel = self._channels[key]
        delivered = channel.deliver_head()
        if delivered is not env:
            raise ChannelError("scheduler chose a non-head envelope")
        if not channel.has_pending:
            self._nonempty.discard(key)
            if key in self._ready:
                self._ready.discard(key)
                idx = bisect_left(self._ready_sorted, key)
                del self._ready_sorted[idx]
        self.messages_delivered += 1
        return delivered

    @property
    def undelivered(self) -> int:
        return self.messages_sent - self.messages_delivered
