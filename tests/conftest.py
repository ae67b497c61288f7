"""Shared fixtures: canonical executions reused across test modules.

Full consensus runs cost 0.1-2 s each; session-scoped fixtures let many
test modules assert different properties of the *same* executions without
re-running them.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.runner import CCResult, run_convex_hull_consensus
from repro.runtime.faults import FaultPlan
from repro.runtime.scheduler import BurstyScheduler, TargetedDelayScheduler
from repro.workloads import gaussian_cluster, with_outliers


def _run_digest(report, decisions=()) -> str:
    """SHA-256 over one execution's integer observables.

    Covers the recorded scheduler decisions, the application delivery
    sequence, step and message counts and the decided/crashed/recovered
    pids.  No float is hashed, so a pinned digest holds on every Python
    and numpy version while still failing on any change of delivery order.
    """
    payload = {
        "decisions": [[int(s), int(d)] for s, d in decisions],
        "app_deliveries": [[int(s), int(d)] for s, d in report.app_deliveries],
        "delivery_steps": report.delivery_steps,
        "messages_sent": report.messages_sent,
        "messages_delivered": report.messages_delivered,
        "decided": list(report.decided),
        "crashed": list(report.crashed),
        "recovered": list(report.recovered),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.fixture(scope="session")
def run_digest():
    """The cross-commit golden digest of a run (see :func:`_run_digest`)."""
    return _run_digest


@pytest.fixture(scope="session")
def benign_1d_run() -> CCResult:
    """n=5, d=1, fault-free, random scheduler."""
    rng = np.random.default_rng(42)
    inputs = rng.uniform(-1.0, 1.0, size=(5, 1))
    return run_convex_hull_consensus(inputs, f=1, eps=0.1, seed=7)


@pytest.fixture(scope="session")
def benign_2d_run() -> CCResult:
    """n=8, d=2, fault-free."""
    inputs = gaussian_cluster(8, 2, seed=1)
    return run_convex_hull_consensus(inputs, f=1, eps=0.3, seed=3)


@pytest.fixture(scope="session")
def crashy_2d_run() -> CCResult:
    """n=8, d=2, one outlier-faulty process crashing mid-broadcast."""
    inputs = with_outliers(gaussian_cluster(8, 2, seed=2), [7], magnitude=4.0, seed=2)
    plan = FaultPlan.crash_at({7: (1, 3)})
    return run_convex_hull_consensus(
        inputs,
        f=1,
        eps=0.3,
        fault_plan=plan,
        scheduler=BurstyScheduler(seed=5),
        input_bounds=(-5.0, 5.0),
    )


@pytest.fixture(scope="session")
def starved_2d_run() -> CCResult:
    """n=8, d=2, silent faulty outlier starved by the scheduler (Thm 3 style)."""
    inputs = with_outliers(gaussian_cluster(8, 2, seed=3), [7], magnitude=4.0, seed=3)
    plan = FaultPlan.silent_faulty([7])
    return run_convex_hull_consensus(
        inputs,
        f=1,
        eps=0.3,
        fault_plan=plan,
        scheduler=TargetedDelayScheduler(slow=frozenset({7}), seed=9),
        input_bounds=(-5.0, 5.0),
    )


@pytest.fixture(scope="session")
def round0_crash_run() -> CCResult:
    """n=6, d=1, crash during the stable-vector fan-out with starvation.

    Produces strictly nested views among fault-free processes (the
    Containment property doing real work).
    """
    rng = np.random.default_rng(11)
    inputs = rng.uniform(-1.0, 1.0, size=(6, 1))
    inputs[5] = -1.0
    plan = FaultPlan.crash_at({5: (0, 1)})
    return run_convex_hull_consensus(
        inputs,
        f=1,
        eps=0.1,
        fault_plan=plan,
        scheduler=TargetedDelayScheduler(slow=frozenset({0, 5}), seed=4),
    )


@pytest.fixture(scope="session")
def all_session_runs(
    benign_1d_run, benign_2d_run, crashy_2d_run, starved_2d_run, round0_crash_run
) -> list[CCResult]:
    return [
        benign_1d_run,
        benign_2d_run,
        crashy_2d_run,
        starved_2d_run,
        round0_crash_run,
    ]
