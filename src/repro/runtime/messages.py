"""Typed messages exchanged by the protocols.

The paper's messages are tuples: ``(x_i, i, 0)`` in round 0 and
``(h_i[t-1], i, t)`` in rounds t >= 1; the stable-vector primitive
additionally exchanges views (sets of round-0 tuples).  We model each as an
immutable dataclass; the network layer wraps them in :class:`Envelope`
records carrying source/destination and a per-channel sequence number (the
FIFO/exactly-once bookkeeping of the system model).

Round-0 values travel as plain tuples (hashable, immutable), so views can
be sets and traces can be compared structurally.  A round t >= 1 message
carries the sender's state itself: a :class:`ConvexPolytope` is immutable
(read-only vertex array, cached properties that are pure functions of it),
so every receiver can buffer the sender's own object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from ..geometry.polytope import ConvexPolytope

Point = tuple[float, ...]


def freeze_point(value) -> Point:
    """Convert an array-like d-vector into a hashable tuple of floats."""
    arr = np.asarray(value, dtype=float).reshape(-1)
    return tuple(float(v) for v in arr)


@dataclass(frozen=True)
class InputTuple:
    """A round-0 tuple ``(x_k, k, 0)`` as it appears inside views."""

    value: Point
    sender: int

    def __lt__(self, other: "InputTuple") -> bool:  # stable ordering for traces
        return (self.sender, self.value) < (other.sender, other.value)


@dataclass(frozen=True)
class SVInit:
    """Stable-vector initial broadcast: the sender's round-0 tuple."""

    entry: InputTuple


@dataclass(frozen=True)
class SVView:
    """Stable-vector view echo: the set of round-0 tuples the sender knows."""

    entries: frozenset[InputTuple]


@dataclass(frozen=True)
class RoundMessage:
    """A round t >= 1 message ``(h, j, t)``: the sender's previous state.

    ``state`` is the sender's ``h_j[t-1]`` object, shared by every
    receiver; equality and hashing compare it by identity.
    """

    state: ConvexPolytope
    sender: int
    round_index: int


@dataclass(frozen=True)
class BBroadcast:
    """Bracha reliable-broadcast origin message (Byzantine sibling).

    ``origin`` is the claimed originator (receivers check it against the
    envelope source), ``round_index`` tags the protocol round the body
    belongs to (round 0: the origin's input point; round t >= 1: the
    sorted tuple of level-(t-1) senders the origin's state was built
    from), and ``body`` is the hashable content itself.
    """

    origin: int
    round_index: int
    body: tuple


@dataclass(frozen=True)
class BEcho:
    """Bracha echo: "I received this exact body from the origin"."""

    origin: int
    round_index: int
    body: tuple


@dataclass(frozen=True)
class BReady:
    """Bracha ready: "enough echoes/readies — I commit to this body"."""

    origin: int
    round_index: int
    body: tuple


Payload = Union[SVInit, SVView, RoundMessage, BBroadcast, BEcho, BReady]


@dataclass(frozen=True)
class Envelope:
    """A message in flight on the channel ``src -> dst``.

    ``seq`` is the channel-local sequence number enforcing FIFO delivery
    and exactly-once semantics; ``send_round`` tags which protocol round
    the sender was in when it sent (crash bookkeeping - the paper's
    ``F[t]`` is defined by "crashed before sending any round-t message").
    """

    src: int
    dst: int
    seq: int
    send_round: int
    payload: Payload = field(compare=False)
