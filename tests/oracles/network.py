"""Full-scan reference for the structural network's ready set.

:class:`~repro.runtime.network.Network` keeps its deliverable channels
in an incrementally maintained sorted list, which
:meth:`~repro.runtime.network.Network.ready_view` reads.  This scan
rebuilds the answer from the channels themselves, so a comparison checks
that index, not just the view over it.
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
    """``net.ready_view()`` as a list, after checking it against :func:`ready_heads`."""
    view = list(net.ready_view())
    assert view == ready_heads(net)
    return view
