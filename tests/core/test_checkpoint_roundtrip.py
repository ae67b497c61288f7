"""CCProcess.checkpoint / from_checkpoint: a bit-exact protocol snapshot."""

import json

import numpy as np

from repro.core.algorithm_cc import CCProcess
from repro.core.runner import build_config, run_convex_hull_consensus
from repro.geometry.cache import array_key
from repro.runtime.checkpoint import CheckpointStore, checkpoint_digest
from repro.runtime.faults import DURABLE, FaultPlan


def _checkpoints_along_a_run(n=5, d=1, seed=7):
    """Every snapshot process 0 saved during one fault-free run."""
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-1.0, 1.0, size=(n, d))
    store = CheckpointStore()
    result = run_convex_hull_consensus(
        inputs,
        1,
        0.2,
        seed=seed,
        input_bounds=(-1.0, 1.0),
        checkpoint_store=store,
    )
    config = build_config(inputs, 1, 0.2, input_bounds=(-1.0, 1.0))
    return config, store, result


def test_checkpoint_is_json_safe_and_stable():
    config, store, _ = _checkpoints_along_a_run()
    data = store.load(0)
    assert data is not None
    # Canonical-JSON round trip is the identity (the digest covers it).
    rehydrated = json.loads(json.dumps(data, sort_keys=True))
    assert checkpoint_digest(rehydrated) == checkpoint_digest(data)


def test_restore_reproduces_identical_checkpoint():
    # restore(checkpoint(p)).checkpoint() == checkpoint(p), bit-for-bit:
    # the round trip loses nothing the protocol can observe.
    config, store, _ = _checkpoints_along_a_run()
    for pid in range(config.n):
        data = store.load(pid)
        restored = CCProcess.from_checkpoint(config, data)
        assert checkpoint_digest(restored.checkpoint()) == checkpoint_digest(
            data
        ), pid


def test_restored_process_is_fresh_not_aliased():
    config, store, _ = _checkpoints_along_a_run()
    data = store.load(0)
    a = CCProcess.from_checkpoint(config, data)
    b = CCProcess.from_checkpoint(config, data)
    assert a is not b
    assert a._h is not b._h
    assert a._sv is not b._sv


def test_final_checkpoint_carries_decision_state():
    config, store, result = _checkpoints_along_a_run()
    data = store.load(0)
    assert data["done"] is True
    restored = CCProcess.from_checkpoint(config, data)
    assert restored.done
    # The restored decision polytope equals the recorded output exactly.
    decided = result.trace.outputs()[0]
    t_end = config.t_end
    np.testing.assert_array_equal(
        np.asarray(data["h"][str(t_end)], dtype=float), decided.vertices
    )
    # So does every state h[t], saved and restored, bit for bit.
    states = result.trace.processes[0].states
    assert sorted(int(t) for t in data["h"]) == sorted(states) == list(range(t_end + 1))
    for t, poly in states.items():
        key = array_key(poly.vertices)
        assert array_key(np.asarray(data["h"][str(t)], dtype=float)) == key, t
        assert array_key(restored._h[t].vertices) == key, t


def test_durable_recovery_decision_matches_no_crash_decisions():
    # The recovered process's decision must agree (within eps) with the
    # fault-free processes — here it is byte-identical to what it would
    # have decided anyway, because durable recovery loses no state.
    rng = np.random.default_rng(3)
    inputs = rng.uniform(-1.0, 1.0, size=(5, 1))
    base = run_convex_hull_consensus(
        inputs, 1, 0.2, seed=5, input_bounds=(-1.0, 1.0)
    )
    plan = FaultPlan.crash_recover({4: (1, 0, 6)}, durability=DURABLE)
    recovered = run_convex_hull_consensus(
        inputs, 1, 0.2, fault_plan=plan, seed=5, input_bounds=(-1.0, 1.0)
    )
    assert 4 in recovered.report.recovered
    assert 4 in recovered.report.decided
    for pid, poly in recovered.trace.outputs().items():
        np.testing.assert_array_equal(
            poly.vertices, base.trace.outputs()[pid].vertices
        )
