"""Float-free goldens for the baseline cores.

The other baseline tests assert properties; this one pins executions.
Each cell of {core} x {crash plan} x {scheduler} runs the core directly
under :func:`run_simulation` and pins two SHA-256 digests: the run digest
(``tests/conftest.py::_run_digest`` over the scheduler decisions, the
delivery sequence and the outcome) and a digest of every process's
``round_senders``.  Neither hashes a float, so the goldens hold on every
numpy version while failing on any change of round structure, quorum
freeze or delivery order.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.baselines import (
    NaiveCollectProcess,
    PointConsensusProcess,
    ScalarAgreementProcess,
)
from repro.core.config import CCConfig
from repro.runtime.faults import FaultPlan
from repro.runtime.scheduler import BurstyScheduler, RandomScheduler, ScheduleRecorder
from repro.runtime.simulator import run_simulation

CORES = {
    "naive": NaiveCollectProcess,
    "point": PointConsensusProcess,
    "scalar": ScalarAgreementProcess,
}

CRASH_PLANS = {
    "none": FaultPlan.none(),
    "round0-mid-broadcast": FaultPlan.crash_at({4: (0, 2)}),
    "round1-mid-broadcast": FaultPlan.crash_at({4: (1, 1)}),
}

SCHEDULERS = {
    "random": lambda: RandomScheduler(seed=5),
    "bursty": lambda: BurstyScheduler(seed=5),
}

#: ``(run digest, round_senders digest)`` per "core-plan-scheduler" cell.
GOLDEN = {
    "naive-none-bursty": (
        "55bdb87ef5eddb4d731d793aa21e7d1f47e31c2a3e194ece72891653e5248a41",
        "de68c3eb90a2f69488675b8b8a1392b9c66f51e2d792e58b35af5dcdcc86fa14",
    ),
    "naive-none-random": (
        "a197229130049a8277be201edbb0ba2527982cd7bbed714ab2889866f709b2de",
        "168b88a24f638f585e1545aca067bd273349dfe4c02de0726b3da556b130268d",
    ),
    "naive-round0-mid-broadcast-bursty": (
        "ad12ae7b372ca32662ec494c68f70bb39e36b3a43beac4a0433550c0ce9e0fed",
        "0ae290b6a2e42a6697d059eb54fd33552eb233d42d6bec87b13bb6903428c404",
    ),
    "naive-round0-mid-broadcast-random": (
        "81bb037242c55d64ad6f4824d21a615173f8a601393c4c3c58e9b6edbabfc811",
        "0ae290b6a2e42a6697d059eb54fd33552eb233d42d6bec87b13bb6903428c404",
    ),
    "naive-round1-mid-broadcast-bursty": (
        "4516beef37e334ba2c4b1df580120731d7990745ba3bfa5773584e7a2ea2c9af",
        "1a1ed909ae7193e0015062853299c0b34f9f1f0408e57146b9ef9d1d91abf87f",
    ),
    "naive-round1-mid-broadcast-random": (
        "25b87d8a69a170e10c5cfd76d6b3c895c88a71e9d838949c10f4354ef189e41b",
        "6b9e9bf531d035361bc57d9098e2bebd95e8107ed0cf8f7da87910aaf9fe490a",
    ),
    "point-none-bursty": (
        "84705d13d02fa423187cbe897bc8b4a3037e617d50cef5023463b9b69c318930",
        "d3cbcbaf0e40ac2e66a2f8aa7889613d81cc9fb5fa55d8f6b22ab43b353fcf37",
    ),
    "point-none-random": (
        "c04110726bfc6dcae3bf31ae5a878f264b7f7f2ad955d00b850d01a4cfc01632",
        "5f07db6f6016013543373f7d2e1e6ff566a6083abd5c4883872b8631e86fe21f",
    ),
    "point-round0-mid-broadcast-bursty": (
        "931b410ab9e85c31ec25880e37743ef8b44f58e43a0c79decb587ebdeea179f5",
        "0ae290b6a2e42a6697d059eb54fd33552eb233d42d6bec87b13bb6903428c404",
    ),
    "point-round0-mid-broadcast-random": (
        "c4df0d7349c80fd6558562708f25082f985ad1425b0789382390fd9f524e9ee3",
        "0ae290b6a2e42a6697d059eb54fd33552eb233d42d6bec87b13bb6903428c404",
    ),
    "point-round1-mid-broadcast-bursty": (
        "d6761dd7a7c32d3144be549bbf34bfa1a85dacc2ccf01c2436a63245aae245a0",
        "1a1ed909ae7193e0015062853299c0b34f9f1f0408e57146b9ef9d1d91abf87f",
    ),
    "point-round1-mid-broadcast-random": (
        "c415f813c63d858a43d89666cdfe4b8ab1cf933766054f7c163e927bdc41482b",
        "6b9e9bf531d035361bc57d9098e2bebd95e8107ed0cf8f7da87910aaf9fe490a",
    ),
    "scalar-none-bursty": (
        "84705d13d02fa423187cbe897bc8b4a3037e617d50cef5023463b9b69c318930",
        "d3cbcbaf0e40ac2e66a2f8aa7889613d81cc9fb5fa55d8f6b22ab43b353fcf37",
    ),
    "scalar-none-random": (
        "c04110726bfc6dcae3bf31ae5a878f264b7f7f2ad955d00b850d01a4cfc01632",
        "5f07db6f6016013543373f7d2e1e6ff566a6083abd5c4883872b8631e86fe21f",
    ),
    "scalar-round0-mid-broadcast-bursty": (
        "931b410ab9e85c31ec25880e37743ef8b44f58e43a0c79decb587ebdeea179f5",
        "0ae290b6a2e42a6697d059eb54fd33552eb233d42d6bec87b13bb6903428c404",
    ),
    "scalar-round0-mid-broadcast-random": (
        "c4df0d7349c80fd6558562708f25082f985ad1425b0789382390fd9f524e9ee3",
        "0ae290b6a2e42a6697d059eb54fd33552eb233d42d6bec87b13bb6903428c404",
    ),
    "scalar-round1-mid-broadcast-bursty": (
        "d6761dd7a7c32d3144be549bbf34bfa1a85dacc2ccf01c2436a63245aae245a0",
        "1a1ed909ae7193e0015062853299c0b34f9f1f0408e57146b9ef9d1d91abf87f",
    ),
    "scalar-round1-mid-broadcast-random": (
        "c415f813c63d858a43d89666cdfe4b8ab1cf933766054f7c163e927bdc41482b",
        "6b9e9bf531d035361bc57d9098e2bebd95e8107ed0cf8f7da87910aaf9fe490a",
    ),
}


def _senders_digest(cores) -> str:
    senders = [
        {str(t): list(s) for t, s in sorted(core.trace.round_senders.items())}
        for core in cores
    ]
    canonical = json.dumps(senders, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(77)
    pts = rng.uniform(-1.0, 1.0, size=(5, 1))
    pts[4] = 0.95  # faulty holds an extreme (incorrect) input
    return pts


@pytest.mark.parametrize("sched_name", sorted(SCHEDULERS))
@pytest.mark.parametrize("plan_name", sorted(CRASH_PLANS))
@pytest.mark.parametrize("core_name", sorted(CORES))
def test_cell(inputs, core_name, plan_name, sched_name, run_digest):
    config = CCConfig(n=5, f=1, dim=1, eps=0.2, enforce_resilience=False)
    cores = [
        CORES[core_name](i, config, inputs[i]) for i in range(config.n)
    ]
    recorder = ScheduleRecorder(inner=SCHEDULERS[sched_name]())
    report = run_simulation(
        cores, fault_plan=CRASH_PLANS[plan_name], scheduler=recorder
    )
    digests = (run_digest(report, recorder.decisions), _senders_digest(cores))
    assert digests == GOLDEN[f"{core_name}-{plan_name}-{sched_name}"]
