"""Full-scan references for the reliable transport's two orders.

:class:`~repro.runtime.transport.LossyFabric` keeps a sorted scan of the
links whose queue holds a frame, and
:class:`~repro.runtime.transport.TransportNetwork` a retransmission timer
heap.  Both must reproduce these scans exactly, because frame order
numbers and per-link RNG draws depend on the order frames are chosen and
retransmitted in.

The heap keys a timer by its earliest possible clock until it resolves
the jitter, so the timer scans never read the heap or a stored deadline:
they compute every unacknowledged frame's deadline from the clock and the
timeout base its timer was armed with.
"""

from __future__ import annotations

import math

from repro.runtime.transport import Frame, LossyFabric, TransportNetwork, backoff_delay


def busy_links(fabric: LossyFabric) -> list[tuple[int, int]]:
    """The links whose queue holds a frame, in ``(src, dst)`` order."""
    return sorted(key for key, queue in fabric._queues.items() if queue)


def ready_frames_scan(fabric: LossyFabric) -> list[Frame]:
    """Deliverable link heads: sort every queue's link, skip partitioned links."""
    out = []
    for key in sorted(fabric._queues):
        queue = fabric._queues[key]
        if not queue:
            continue
        if fabric.plan.spec(*key).partitioned_at(fabric.clock):
            continue
        head = queue[0]
        if head.release <= fabric.clock:
            out.append(head)
    return out


def deadline(link: tuple[int, int], seq: int, entry) -> int:
    """The clock at which an unacknowledged frame's armed timer fires."""
    delay = backoff_delay(link[0], link[1], seq, entry.attempt, entry.base)
    return entry.armed_at + max(1, math.ceil(delay))


def expired_timers(transport: TransportNetwork) -> list[tuple[tuple[int, int], int]]:
    """The ``(link, seq)`` timers due now, in the order they must fire.

    Dict order of the unacknowledged frames: the order links first
    carried a reliable frame, then sequence number.
    """
    clock = transport.fabric.clock
    return [
        (link, seq)
        for link, pending in transport._unacked.items()
        for seq, entry in pending.items()
        if deadline(link, seq, entry) <= clock
    ]


def next_retry_scan(transport: TransportNetwork) -> int | None:
    """The earliest retransmission deadline over every unacknowledged frame."""
    deadlines = [
        deadline(link, seq, entry)
        for link, pending in transport._unacked.items()
        for seq, entry in pending.items()
    ]
    return min(deadlines, default=None)
