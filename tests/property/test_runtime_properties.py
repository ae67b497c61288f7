"""Property-based fuzzing of the runtime fabric itself.

The network's three contractual properties (reliable, FIFO, exactly-once)
and the simulator's determinism are load-bearing for every experiment;
hypothesis drives random operation sequences against them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runner import run_convex_hull_consensus
from repro.runtime.messages import InputTuple, SVInit
from repro.runtime.network import Network
from repro.runtime.scheduler import BurstyScheduler, RandomScheduler
from tests.oracles.network import checked_ready_view


def _payload(tag):
    return SVInit(entry=InputTuple(value=(float(tag),), sender=0))


@given(
    n=st.integers(2, 6),
    ops=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.booleans()),
        min_size=1,
        max_size=60,
    ),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_network_fifo_and_exactly_once(n, ops, seed):
    """Random send/deliver interleavings preserve per-channel order and
    deliver each message exactly once."""
    net = Network(n)
    rng = np.random.default_rng(seed)
    sent: dict[tuple[int, int], list[int]] = {}
    delivered: dict[tuple[int, int], list[int]] = {}
    counter = 0
    for src, dst, deliver_now in ops:
        src, dst = src % n, dst % n
        if src != dst:
            net.send(src, dst, _payload(counter), send_round=0)
            sent.setdefault((src, dst), []).append(counter)
            counter += 1
        if deliver_now:
            heads = checked_ready_view(net)
            if heads:
                env = heads[int(rng.integers(0, len(heads)))]
                net.deliver(env)
                delivered.setdefault((env.src, env.dst), []).append(env.seq)
    # Drain everything.
    while True:
        heads = checked_ready_view(net)
        if not heads:
            break
        env = heads[int(rng.integers(0, len(heads)))]
        net.deliver(env)
        delivered.setdefault((env.src, env.dst), []).append(env.seq)
    # Exactly-once + FIFO: per channel, seqs are exactly 0..k-1 in order.
    assert net.undelivered == 0
    for channel, seqs in delivered.items():
        assert seqs == list(range(len(seqs)))
        assert len(seqs) == len(sent.get(channel, []))


@given(seed=st.integers(0, 2**31 - 1), input_seed=st.integers(0, 200))
@settings(max_examples=10, deadline=None)
def test_simulation_determinism(seed, input_seed):
    """Identical (inputs, scheduler seed) produce identical outputs."""
    rng = np.random.default_rng(input_seed)
    inputs = rng.uniform(-1, 1, size=(5, 1))
    a = run_convex_hull_consensus(
        inputs, 1, 0.3, scheduler=RandomScheduler(seed=seed)
    )
    b = run_convex_hull_consensus(
        inputs, 1, 0.3, scheduler=RandomScheduler(seed=seed)
    )
    assert a.report.delivery_steps == b.report.delivery_steps
    assert a.trace.messages_sent == b.trace.messages_sent
    for pid in a.outputs:
        assert a.outputs[pid].approx_equal(b.outputs[pid], tol=0.0)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=8, deadline=None)
def test_schedule_independence_of_guarantees(seed):
    """Different schedules change message counts but never the guarantees
    — and with identical (full) views, not even the decisions."""
    rng = np.random.default_rng(3)
    inputs = rng.uniform(-1, 1, size=(5, 1))
    random_run = run_convex_hull_consensus(
        inputs, 1, 0.3, scheduler=RandomScheduler(seed=seed)
    )
    bursty_run = run_convex_hull_consensus(
        inputs, 1, 0.3, scheduler=BurstyScheduler(seed=seed)
    )
    from repro.core.invariants import check_all

    assert check_all(random_run.trace).ok
    assert check_all(bursty_run.trace).ok
