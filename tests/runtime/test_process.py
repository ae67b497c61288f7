"""Unit tests for the process shell (crash interception, accounting)."""

from repro.runtime.faults import CrashSpec
from repro.runtime.messages import InputTuple, RoundMessage, SVInit
from repro.runtime.network import Network
from repro.runtime.process import ProcessShell, ProtocolCore


class FakeCore(ProtocolCore):
    """Scripted core: emits predeclared outgoing batches on demand."""

    def __init__(self, pid, batches):
        self.pid = pid
        self._batches = list(batches)
        self._round = 0
        self.received = []

    def set_round(self, r):
        self._round = r

    def on_start(self):
        return self._batches.pop(0) if self._batches else []

    def on_message(self, payload, src):
        self.received.append((payload, src))
        return self._batches.pop(0) if self._batches else []

    @property
    def current_round(self):
        return self._round

    @property
    def done(self):
        return False


def _sv(i=0):
    return SVInit(entry=InputTuple(value=(float(i),), sender=i))


def _rm(t):
    return RoundMessage(vertices=((0.0,),), sender=0, round_index=t)


class TestDispatch:
    def test_broadcast_expands_ascending(self):
        net = Network(4)
        core = FakeCore(0, [[(None, _sv())]])
        shell = ProcessShell(core, net)
        shell.start()
        heads = net.ready_heads()
        assert sorted(env.dst for env in heads) == [1, 2, 3]

    def test_unicast(self):
        net = Network(3)
        core = FakeCore(0, [[(2, _sv())]])
        ProcessShell(core, net).start()
        heads = net.ready_heads()
        assert [env.dst for env in heads] == [2]

    def test_send_round_stamp(self):
        net = Network(2)
        core = FakeCore(0, [[(1, _sv())]])
        core.set_round(3)
        ProcessShell(core, net).start()
        env = net.ready_heads()[0]
        assert env.send_round == 3


class TestCrashSpec:
    def test_crash_before_any_send(self):
        net = Network(3)
        core = FakeCore(0, [[(None, _sv())]])
        shell = ProcessShell(core, net, crash_spec=CrashSpec(0, after_sends=0))
        shell.start()
        assert shell.crashed
        assert net.messages_sent == 0

    def test_mid_broadcast_prefix(self):
        net = Network(5)
        core = FakeCore(0, [[(None, _sv())]])
        shell = ProcessShell(core, net, crash_spec=CrashSpec(0, after_sends=2))
        shell.start()
        assert shell.crashed
        heads = net.ready_heads()
        assert sorted(env.dst for env in heads) == [1, 2]  # ascending prefix

    def test_crash_in_later_round(self):
        net = Network(3)
        core = FakeCore(0, [[(None, _sv())], [(None, _sv())]])
        shell = ProcessShell(core, net, crash_spec=CrashSpec(1, after_sends=0))
        shell.start()
        assert not shell.crashed
        core.set_round(1)
        shell.receive(_sv(1), src=1)
        assert shell.crashed
        assert shell.crash_fired_round == 1

    def test_crash_fires_when_round_overshoots(self):
        # Spec says round 1 after 5 sends, but the process jumps to round 2:
        # the crash fires at its first round-2 send attempt.
        net = Network(3)
        core = FakeCore(0, [[], [(None, _sv())]])
        shell = ProcessShell(core, net, crash_spec=CrashSpec(1, after_sends=5))
        shell.start()
        core.set_round(2)
        shell.receive(_sv(1), src=1)
        assert shell.crashed

    def test_crashed_shell_ignores_messages(self):
        net = Network(3)
        core = FakeCore(0, [[(None, _sv())], [(None, _sv())]])
        shell = ProcessShell(core, net, crash_spec=CrashSpec(0, 1))
        shell.start()
        assert shell.crashed
        before = len(core.received)
        shell.receive(_sv(1), src=1)
        assert len(core.received) == before


class TestAccounting:
    def test_protocol_sends_use_payload_round(self):
        # An SV echo sent while the core is in round 3 still counts as a
        # round-0 protocol send; a RoundMessage counts for its own tag.
        net = Network(3)
        core = FakeCore(0, [[(None, _sv())], [(None, _rm(2))]])
        shell = ProcessShell(core, net)
        core.set_round(3)
        shell.start()
        shell.receive(_sv(1), src=1)
        assert shell.protocol_sends[0] == 2  # SV broadcast to 2 peers
        assert shell.protocol_sends[2] == 2  # round-2 message to 2 peers
        assert shell.sends_in_round[3] == 4  # all sent while in round 3
