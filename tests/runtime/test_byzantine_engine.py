"""ByzantineEngine: seeded lies, consistent forgeries, bounded palette."""

import numpy as np
import pytest

from repro.geometry.cache import PERF
from repro.geometry.polytope import ConvexPolytope
from repro.runtime.byzantine import ByzantineEngine, byzantine_engines
from repro.runtime.faults import ByzantineSpec, FaultPlan
from repro.runtime.messages import (
    BBroadcast,
    InputTuple,
    RoundMessage,
    SVInit,
    SVView,
    freeze_point,
)


#: Forged vertices of ``test_round_message_forgery_is_bit_identical``,
#: per behavior and destination, as ``float.hex``.  Recorded when round
#: messages carried vertex tuples; a forged polytope must reproduce them.
FORGED_HEX = {
    "forge": {
        dst: [
            ["-0x1.27a4d6e49f9d8p+0", "0x1.766dd8e13a0b8p+0"],
            ["0x1.9c95de3c551d0p+1", "-0x1.c95fdeda42ff6p+2"],
            ["-0x1.ee64df7a8da80p-4", "-0x1.3c5695d89f56ep+2"],
        ]
        for dst in (0, 1)
    },
    "equivocate": {
        0: [
            ["-0x1.27a4d6e49f9d8p+0", "0x1.766dd8e13a0b8p+0"],
            ["0x1.9c95de3c551d0p+1", "-0x1.c95fdeda42ff6p+2"],
            ["-0x1.ee64df7a8da80p-4", "-0x1.3c5695d89f56ep+2"],
        ],
        1: [
            ["-0x1.f84f43f31e9b4p+1", "-0x1.94f902d82edf8p+2"],
            ["-0x1.ee64df7a8da80p-4", "-0x1.3c5695d89f56ep+2"],
            ["-0x1.ee64df7a8da80p-4", "-0x1.3c5695d89f56ep+2"],
        ],
    },
}


def sv_init(value=0.5, sender=0):
    return SVInit(entry=InputTuple(value=freeze_point([value]), sender=sender))


class TestDeterminism:
    def test_same_spec_same_stream(self):
        spec = ByzantineSpec(seed=7)
        a = ByzantineEngine(3, spec, 4)
        b = ByzantineEngine(3, spec, 4)
        payloads = [sv_init(v) for v in (0.1, 0.2, 0.3)]
        seq_a = [a.mutate(p, dst) for p in payloads for dst in (0, 1, 2)]
        seq_b = [b.mutate(p, dst) for p in payloads for dst in (0, 1, 2)]
        assert seq_a == seq_b

    def test_different_pids_different_streams(self):
        spec = ByzantineSpec(behaviors=("forge",), seed=7)
        a = ByzantineEngine(1, spec, 4)
        b = ByzantineEngine(2, spec, 4)
        pa = a.mutate(sv_init(), 0)
        pb = b.mutate(sv_init(), 0)
        assert pa != pb


class TestBehaviors:
    def test_omit_swallows_and_counts(self):
        engine = ByzantineEngine(0, ByzantineSpec(behaviors=("omit",)), 4)
        before = PERF.byz_omissions
        assert engine.mutate(sv_init(), 1) is None
        assert PERF.byz_omissions == before + 1

    def test_forge_is_consistent_across_destinations(self):
        engine = ByzantineEngine(0, ByzantineSpec(behaviors=("forge",)), 4)
        payload = sv_init()
        before = PERF.byz_forgeries
        forged = [engine.mutate(payload, dst) for dst in (1, 2, 3)]
        assert PERF.byz_forgeries == before + 3
        assert forged[0] == forged[1] == forged[2]
        assert forged[0] != payload

    def test_equivocate_varies_per_destination(self):
        engine = ByzantineEngine(0, ByzantineSpec(behaviors=("equivocate",)), 4)
        payload = sv_init()
        before = PERF.byz_equivocations
        lies = [engine.mutate(payload, dst) for dst in (1, 2)]
        assert PERF.byz_equivocations == before + 2
        # The palette guarantees the first two fabrications are distinct
        # fresh entries.
        assert lies[0] != lies[1]

    def test_rate_zero_point_one_mostly_passes_through(self):
        engine = ByzantineEngine(0, ByzantineSpec(rate=0.01, seed=3), 4)
        payload = sv_init()
        outcomes = [engine.mutate(payload, 1) for _ in range(50)]
        assert outcomes.count(payload) >= 40


class TestPaletteBound:
    def test_fake_values_come_from_a_bounded_palette(self):
        # An unbounded lie stream would inflate stable-vector views
        # forever; the engine must draw every fabricated point from at
        # most max(n, 2) values per dimension.
        n = 4
        engine = ByzantineEngine(0, ByzantineSpec(behaviors=("equivocate",)), n)
        values = set()
        for i in range(200):
            mutated = engine.mutate(sv_init(0.5, sender=0), i % 3)
            values.add(mutated.entry.value)
        assert len(values) <= n


class TestRewriteShapes:
    def test_svview_rewrite_preserves_senders(self):
        engine = ByzantineEngine(0, ByzantineSpec(behaviors=("forge",)), 4)
        view = SVView(
            entries=frozenset(
                InputTuple(value=freeze_point([float(i)]), sender=i)
                for i in range(3)
            )
        )
        mutated = engine.mutate(view, 1)
        assert {e.sender for e in mutated.entries} == {0, 1, 2}

    def test_round_message_rewrite_same_shape(self):
        engine = ByzantineEngine(0, ByzantineSpec(behaviors=("forge",)), 4)
        msg = RoundMessage(
            state=ConvexPolytope.from_points([[0.0, 0.0], [1.0, 1.0]]),
            sender=0,
            round_index=2,
        )
        mutated = engine.mutate(msg, 1)
        assert isinstance(mutated, RoundMessage)
        assert mutated.sender == 0 and mutated.round_index == 2
        assert mutated.state.dim == 2
        assert mutated.state.num_vertices == 2
        assert not mutated.state.vertices.flags.writeable

    @pytest.mark.parametrize("behavior", ["forge", "equivocate"])
    def test_round_message_forgery_is_bit_identical(self, behavior):
        # One fake point per vertex, drawn in vertex order from the
        # engine's RNG stream.  Equivocation's second lie picks from the
        # filled palette.
        msg = RoundMessage(
            state=ConvexPolytope(
                np.array([[0.0, 0.0], [1.0, 0.0], [0.25, 1.0]]), 2, _trusted=True
            ),
            sender=2,
            round_index=3,
        )
        engine = ByzantineEngine(2, ByzantineSpec(behaviors=(behavior,), seed=5), 4)
        for dst in (0, 1):
            forged = engine.mutate(msg, dst)
            assert (forged.sender, forged.round_index) == (2, 3)
            assert forged.state.dim == 2
            assert not forged.state.vertices.flags.writeable
            got = [[x.hex() for x in row] for row in forged.state.vertices.tolist()]
            assert got == FORGED_HEX[behavior][dst]

    def test_rb_point_body_rewritten_claim_body_stays_valid_shape(self):
        engine = ByzantineEngine(0, ByzantineSpec(behaviors=("forge",)), 4)
        point_msg = BBroadcast(origin=0, round_index=0, body=(0.5, 0.5))
        claim_msg = BBroadcast(origin=0, round_index=1, body=(0, 1, 2))
        forged_point = engine.mutate(point_msg, 1)
        forged_claim = engine.mutate(claim_msg, 1)
        assert len(forged_point.body) == 2
        assert all(isinstance(v, float) for v in forged_point.body)
        assert forged_claim.body == tuple(sorted(forged_claim.body))
        assert all(0 <= p < 4 for p in forged_claim.body)
        assert len(forged_claim.body) == 3


class TestWiring:
    def test_engines_built_only_for_byzantine_pids(self):
        plan = FaultPlan.byzantine_at([1, 3], seed=2)
        engines = byzantine_engines(plan, 5)
        assert sorted(engines) == [1, 3]
        assert engines[1].pid == 1

    def test_no_byzantine_plan_builds_nothing(self):
        assert byzantine_engines(FaultPlan.none(), 5) == {}
