"""Unit tests for the reliable-FIFO-exactly-once network fabric."""

import pytest

from repro.runtime.messages import InputTuple, SVInit
from repro.runtime.network import ChannelError, Network


def _payload(i=0):
    return SVInit(entry=InputTuple(value=(float(i),), sender=0))


class TestNetwork:
    def test_send_and_deliver(self):
        net = Network(3)
        net.send(0, 1, _payload(), send_round=0)
        heads = net.ready_heads()
        assert len(heads) == 1
        env = net.deliver(heads[0])
        assert env.src == 0 and env.dst == 1
        assert net.undelivered == 0

    def test_fifo_order_per_channel(self):
        net = Network(2)
        for i in range(5):
            net.send(0, 1, _payload(i), send_round=0)
        seqs = []
        while True:
            heads = net.ready_heads()
            if not heads:
                break
            env = net.deliver(heads[0])
            seqs.append(env.seq)
        assert seqs == [0, 1, 2, 3, 4]

    def test_self_send_rejected(self):
        net = Network(2)
        with pytest.raises(ChannelError):
            net.send(1, 1, _payload(), send_round=0)

    def test_heads_exclude_dead_destinations(self):
        net = Network(3)
        net.send(0, 1, _payload(), send_round=0)
        net.send(0, 2, _payload(), send_round=0)
        net.mark_crashed(1)
        heads = net.ready_heads()
        assert all(env.dst == 2 for env in heads)

    def test_deliver_non_head_rejected(self):
        net = Network(2)
        net.send(0, 1, _payload(0), send_round=0)
        net.send(0, 1, _payload(1), send_round=0)
        heads = net.ready_heads()
        env0 = net.deliver(heads[0])
        assert env0.seq == 0
        # Grab the new head, then try to re-deliver a stale envelope object.
        with pytest.raises(ChannelError):
            net.deliver(env0)

    def test_counters(self):
        net = Network(4)
        for dst in (1, 2, 3):
            net.send(0, dst, _payload(), send_round=1)
        assert net.messages_sent == 3
        assert net.undelivered == 3

    def test_needs_processes(self):
        with pytest.raises(ValueError):
            Network(0)

    def test_duplicate_delivery_raises(self):
        # Exactly-once: handing the same envelope to deliver() twice is a
        # harness bug and must surface as ChannelError, not a silent redo.
        net = Network(2)
        net.send(0, 1, _payload(), send_round=0)
        env = net.deliver(net.ready_heads()[0])
        net.send(0, 1, _payload(1), send_round=0)
        with pytest.raises(ChannelError):
            net.deliver(env)
        assert net.messages_delivered == 1

    def test_mark_crashed_idempotent(self):
        net = Network(3)
        net.send(0, 1, _payload(), send_round=0)
        net.send(0, 2, _payload(), send_round=0)
        net.mark_crashed(1)
        ready_after_first = [(e.src, e.dst) for e in net.ready_heads()]
        net.mark_crashed(1)
        assert [(e.src, e.dst) for e in net.ready_heads()] == ready_after_first
        assert ready_after_first == [(0, 2)]
        # Messages to the crashed process stay queued (reliability).
        assert net.undelivered == 2
        assert net.mark_recovered(1) == []
        assert [(e.src, e.dst) for e in net.ready_heads()] == [(0, 1), (0, 2)]

    def test_ready_heads_order_stable(self):
        # The scheduler's candidate list is (src, dst)-lexicographic no
        # matter the send order — the determinism seeded runs rely on.
        net = Network(4)
        for src, dst in [(3, 0), (1, 2), (0, 3), (2, 1), (0, 1)]:
            net.send(src, dst, _payload(), send_round=0)
        keys = [(e.src, e.dst) for e in net.ready_heads()]
        assert keys == sorted(keys)
        # Delivering one head keeps the rest in the same relative order.
        net.deliver(net.ready_heads()[0])
        keys_after = [(e.src, e.dst) for e in net.ready_heads()]
        assert keys_after == [k for k in keys if k != (0, 1)]


class TestReadyHeadsView:
    """The lazy view (hot-loop path) mirrors the eager oracle exactly."""

    def _filled_net(self, n=4, seed=3):
        import random

        rng = random.Random(seed)
        net = Network(n)
        for _ in range(20):
            src = rng.randrange(n)
            dst = rng.randrange(n)
            if src != dst:
                net.send(src, dst, _payload(), send_round=0)
        return net

    def test_view_matches_oracle_elementwise(self):
        net = self._filled_net()
        view = net.ready_view()
        eager = net.ready_heads()
        assert len(view) == len(eager)
        assert list(view) == eager
        for i in range(len(eager)):
            assert view[i] is eager[i]
        assert view[1:3] == eager[1:3]

    def test_view_is_live_through_mutations(self):
        import random

        rng = random.Random(7)
        net = self._filled_net()
        view = net.ready_view()
        # Interleave deliveries, sends, and a crash; the one view object
        # tracks the oracle through every mutation.
        for step in range(30):
            if not net.has_ready:
                break
            assert list(view) == net.ready_heads()
            env = view[rng.randrange(len(view))]
            net.deliver(env)
            if step == 5:
                net.send(0, 1, _payload(99), send_round=1)
            if step == 10:
                net.mark_crashed(2)
        assert list(view) == net.ready_heads()

    def test_crash_removes_inbound_from_view(self):
        net = Network(3)
        net.send(0, 1, _payload(), send_round=0)
        net.send(0, 2, _payload(), send_round=0)
        net.mark_crashed(1)
        view = net.ready_view()
        assert [(e.src, e.dst) for e in view] == [(0, 2)]
        # Sends to the crashed destination never enter the view.
        net.send(2, 1, _payload(), send_round=0)
        assert [(e.src, e.dst) for e in view] == [(0, 2)]

    def test_queued_channel_stays_ready_after_delivery(self):
        net = Network(2)
        net.send(0, 1, _payload(0), send_round=0)
        net.send(0, 1, _payload(1), send_round=0)
        view = net.ready_view()
        net.deliver(view[0])
        # Channel still non-empty: stays in the view with its new head.
        assert len(view) == 1
        assert list(view) == net.ready_heads()
