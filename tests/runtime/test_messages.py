"""Unit tests for message types and the point-freezing helper."""

import numpy as np
from repro.geometry.polytope import ConvexPolytope
from repro.runtime.messages import (
    Envelope,
    InputTuple,
    RoundMessage,
    SVInit,
    SVView,
    freeze_point,
)


class TestFreezing:
    def test_freeze_point(self):
        assert freeze_point(np.array([1.0, 2.5])) == (1.0, 2.5)

    def test_freeze_point_from_list(self):
        assert freeze_point([3]) == (3.0,)

    def test_frozen_values_hashable(self):
        entry = InputTuple(value=freeze_point([1.0, 2.0]), sender=3)
        assert hash(entry) is not None
        assert entry in {entry}


class TestInputTuple:
    def test_ordering_by_sender(self):
        a = InputTuple(value=(1.0,), sender=0)
        b = InputTuple(value=(0.0,), sender=1)
        assert a < b

    def test_equality(self):
        a = InputTuple(value=(1.0,), sender=0)
        b = InputTuple(value=(1.0,), sender=0)
        assert a == b

    def test_distinct_senders_distinct_tuples(self):
        a = InputTuple(value=(1.0,), sender=0)
        b = InputTuple(value=(1.0,), sender=1)
        assert a != b
        assert len({a, b}) == 2


class TestPayloads:
    def test_svview_holds_frozenset(self):
        entries = frozenset(
            {InputTuple(value=(0.0,), sender=0), InputTuple(value=(1.0,), sender=1)}
        )
        view = SVView(entries=entries)
        assert len(view.entries) == 2

    def test_round_message_fields(self):
        state = ConvexPolytope.from_points([[0.0, 0.0], [1.0, 1.0]])
        msg = RoundMessage(state=state, sender=2, round_index=3)
        assert msg.round_index == 3
        assert msg.state is state
        assert msg.state.num_vertices == 2

    def test_envelope_identity_semantics(self):
        payload = SVInit(entry=InputTuple(value=(0.0,), sender=0))
        e1 = Envelope(src=0, dst=1, seq=0, send_round=0, payload=payload)
        e2 = Envelope(src=0, dst=1, seq=0, send_round=0, payload=payload)
        # payload excluded from equality; envelopes compare by routing info
        assert e1 == e2
