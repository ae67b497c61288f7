"""Full-scan reference for the structural network's ready list.

:class:`~repro.runtime.network.Network` keeps its ready channels in an
incrementally maintained list sorted by ``(src, dst)``, which it hands
to the scheduler.  This scan rebuilds the answer from the channels
themselves, so a comparison checks that list.
"""

from __future__ import annotations

from repro.runtime.messages import Envelope
from repro.runtime.network import Network


def ready_heads(net: Network) -> list[Envelope]:
    """Heads of every non-empty channel whose receiver is live, in (src, dst) order."""
    return [
        channel.head
        for (_src, dst), channel in sorted(net._channels.items())
        if channel.has_pending and dst not in net._crashed_dst
    ]


def checked_ready_view(net: Network) -> list[Envelope]:
    """The heads of ``net``'s ready list, after checking them against :func:`ready_heads`."""
    heads = [channel.head for channel in net._ready]
    assert heads == ready_heads(net)
    return heads
