"""Unit tests for the reliable-FIFO-exactly-once network fabric."""

import pytest

from repro.runtime.messages import InputTuple, SVInit
from repro.runtime.network import ChannelError, Network
from repro.runtime.scheduler import FifoFairScheduler
from tests.oracles.network import checked_ready_view


def _payload(i=0):
    return SVInit(entry=InputTuple(value=(float(i),), sender=0))


class TestNetwork:
    def test_send_and_deliver(self):
        net = Network(3)
        net.send(0, 1, _payload(), send_round=0)
        heads = checked_ready_view(net)
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
            heads = checked_ready_view(net)
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
        heads = checked_ready_view(net)
        assert all(env.dst == 2 for env in heads)

    def test_deliver_non_head_rejected(self):
        net = Network(2)
        net.send(0, 1, _payload(0), send_round=0)
        net.send(0, 1, _payload(1), send_round=0)
        heads = checked_ready_view(net)
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
        env = net.deliver(checked_ready_view(net)[0])
        net.send(0, 1, _payload(1), send_round=0)
        (second,) = checked_ready_view(net)
        with pytest.raises(ChannelError):
            net.deliver(env)
        assert net.messages_delivered == 1
        # The rejected delivery left the channel as it was: the second
        # message is still its head, still undelivered and still ready.
        assert net._channels[(0, 1)].head is second
        assert net.undelivered == 1
        assert checked_ready_view(net) == [second]
        assert net.next(FifoFairScheduler()) is second
        assert net.undelivered == 0 and checked_ready_view(net) == []

    def test_delivery_from_an_empty_channel_raises(self):
        net = Network(2)
        net.send(0, 1, _payload(), send_round=0)
        env = net.deliver(checked_ready_view(net)[0])
        with pytest.raises(ChannelError):
            net.deliver(env)
        assert net.messages_delivered == 1 and checked_ready_view(net) == []

    def test_mark_crashed_idempotent(self):
        net = Network(3)
        net.send(0, 1, _payload(), send_round=0)
        net.send(0, 2, _payload(), send_round=0)
        net.mark_crashed(1)
        ready_after_first = [(e.src, e.dst) for e in checked_ready_view(net)]
        net.mark_crashed(1)
        assert [(e.src, e.dst) for e in checked_ready_view(net)] == ready_after_first
        assert ready_after_first == [(0, 2)]
        # Messages to the crashed process stay queued (reliability).
        assert net.undelivered == 2
        assert net.mark_recovered(1) == []
        assert [(e.src, e.dst) for e in checked_ready_view(net)] == [(0, 1), (0, 2)]

    def test_ready_heads_order_stable(self):
        # The scheduler's candidate list is (src, dst)-lexicographic no
        # matter the send order — the determinism seeded runs rely on.
        net = Network(4)
        for src, dst in [(3, 0), (1, 2), (0, 3), (2, 1), (0, 1)]:
            net.send(src, dst, _payload(), send_round=0)
        keys = [(e.src, e.dst) for e in checked_ready_view(net)]
        assert keys == sorted(keys)
        # Delivering one head keeps the rest in the same relative order.
        net.deliver(checked_ready_view(net)[0])
        keys_after = [(e.src, e.dst) for e in checked_ready_view(net)]
        assert keys_after == [k for k in keys if k != (0, 1)]


class TestReadyList:
    """The ready list the scheduler is handed mirrors the full-scan oracle."""

    def test_ready_list_through_crash_and_revival(self):
        net = Network(4)
        for src, dst in [(3, 0), (1, 2), (0, 3), (2, 1), (0, 1), (1, 2), (0, 2), (3, 2)]:
            net.send(src, dst, _payload(), send_round=0)
            checked_ready_view(net)
        # (1, 2) keeps its second message; (0, 1) empties and leaves.
        for src, dst in [(1, 2), (0, 1)]:
            net.deliver(net._channels[(src, dst)].head)
            checked_ready_view(net)
        net.mark_crashed(2)
        assert all(env.dst != 2 for env in checked_ready_view(net))
        # Emptying a crashed receiver's channel, sends to it (one on that
        # empty channel) and a delivery from it leave the list alone.
        net.deliver(net._channels[(3, 2)].head)
        checked_ready_view(net)
        for src in (3, 0, 1, 3):
            net.send(src, 2, _payload(src), send_round=1)
            assert all(env.dst != 2 for env in checked_ready_view(net))
        net.deliver(net._channels[(2, 1)].head)
        checked_ready_view(net)

        net.mark_recovered(2)
        keys = [(env.src, env.dst) for env in checked_ready_view(net)]
        assert keys == [(0, 2), (0, 3), (1, 2), (3, 0), (3, 2)]
        assert all(net._channels[(c.src, c.dst)] is c for c in net._ready)
        # Delivery resumes at the heads the crash interrupted.
        seqs: dict[tuple[int, int], list[int]] = {}
        sched = FifoFairScheduler()
        while (env := net.next(sched)) is not None:
            seqs.setdefault((env.src, env.dst), []).append(env.seq)
            checked_ready_view(net)
        assert seqs == {
            (0, 2): [0, 1],
            (0, 3): [0],
            (1, 2): [1, 2],
            (3, 0): [0],
            (3, 2): [1, 2],
        }
        assert net.undelivered == 0
