"""Full-scan references for the reliable transport's two orders.

:class:`~repro.runtime.transport.LossyFabric` keeps a sorted scan of the
links whose queue holds a frame, and
:class:`~repro.runtime.transport.TransportNetwork` a retransmission timer
heap.  Both must reproduce these scans exactly, because frame order
numbers and per-link RNG draws depend on the order frames are chosen and
retransmitted in.
"""

from __future__ import annotations

from repro.runtime.transport import Frame, LossyFabric, TransportNetwork


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
        if entry.next_retry <= clock
    ]


def next_retry_scan(transport: TransportNetwork) -> int | None:
    """The earliest retransmission deadline over every unacknowledged frame."""
    deadlines = [
        entry.next_retry
        for pending in transport._unacked.values()
        for entry in pending.values()
    ]
    return min(deadlines, default=None)
