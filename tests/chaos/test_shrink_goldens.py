"""Float-free goldens for what the shrinker produces.

Each case pins a SHA-256 of a shrink result: the case id, the list of
reductions, the final plan's JSON, the final schedule, the violation's
kind, pid and round, the number of replays and the ``minimal`` flag.
No computed float is hashed, so the goldens hold on every numpy version
while failing on any change of which reductions the shrinker keeps, in
what order, and at what cost in replays.

Every pass of :func:`~repro.chaos.shrink` runs in at least one cheap
d = 1 case.  Four are generated: ``below-bound`` drops a faulty pid,
``beyond-bound`` lowers ``after_sends`` and ``round``, and the two
Byzantine probes drop behaviors.  The rest are hand-built, because no
generated case at d = 1 reaches those passes: amnesia recoveries 40
steps after each crash drive the drop-recovery pass and the
``recover_at`` ladder, and an omitting adversary on a silent faulty pid
is demoted to plain faulty.  The schedule pass runs in every case.

The digests were generated before the shrinker moved from plan dicts
to :class:`~repro.runtime.faults.FaultPlan` objects, and must never be
regenerated to make a change pass.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.chaos import FuzzConfig, generate_case, run_case, shrink
from repro.runtime.faults import AMNESIA, OMIT, ByzantineSpec, RecoverySpec


def _generated(profile: str, seed: int):
    return generate_case(FuzzConfig(profile=profile, d_choices=(1,)), seed)


def _amnesia_recoveries(case):
    """Every crashing pid revives, amnesiac, 40 steps after its crash."""
    plan = case.fault_plan
    recoveries = {
        pid: RecoverySpec(recover_at=40, durability=AMNESIA)
        for pid in plan.crashes
    }
    return dataclasses.replace(
        case, fault_plan=dataclasses.replace(plan, recoveries=recoveries)
    )


def _byzantine(case, pid: int, spec: ByzantineSpec):
    return dataclasses.replace(
        case,
        fault_plan=dataclasses.replace(case.fault_plan, byzantine={pid: spec}),
    )


CASES = {
    "below-bound/4": lambda: _generated("below-bound", 4),
    "beyond-bound/1": lambda: _generated("beyond-bound", 1),
    "byzantine-below-bound/2": lambda: _generated("byzantine-below-bound", 2),
    "byzantine-beyond-bound/9": lambda: _generated(
        "byzantine-beyond-bound", 9
    ),
    "beyond-bound/0+amnesia": lambda: _amnesia_recoveries(
        _generated("beyond-bound", 0)
    ),
    "beyond-bound/1+amnesia": lambda: _amnesia_recoveries(
        _generated("beyond-bound", 1)
    ),
    "beyond-bound/5+amnesia": lambda: _amnesia_recoveries(
        _generated("beyond-bound", 5)
    ),
    "beyond-bound/8+byzantine": lambda: _byzantine(
        _generated("beyond-bound", 8),
        5,
        ByzantineSpec(behaviors=(OMIT,), rate=0.5, magnitude=4.0, seed=7),
    ),
}

#: Shrink digest per case, with the non-schedule reductions it records.
GOLDEN = {
    "below-bound/4":  # empty-initial-polytope; dropped faulty process 2
        "b625db14b6d95803c1617c75c40c5b4582ef640ec7bb14733e6a9341d27f2864",
    "beyond-bound/1":  # termination; crash(2): after_sends 9 -> 0,
    # round 2 -> 0; crash(3): after_sends 4 -> 0, round 2 -> 0
        "8906b6ec06bd9c98a720f45b92ae9c5fac4dd9fd89f35a98e54c54f21ac73a90",
    "byzantine-below-bound/2":  # termination; byzantine(1): dropped 'forge'
        "79f385d226ca2b05090c7bc92bb057b7b159468816c057409a38d52a0cd63a06",
    "byzantine-beyond-bound/9":  # termination; byzantine(2): dropped
    # 'equivocate'; byzantine(3): dropped 'forge'
        "d2939add4b9db59daefde0d34916c04a972e53b2aba38dfc53c3cd87cbc83a44",
    "beyond-bound/0+amnesia":  # validity; recovery(3): recover_at
    # 40 -> 20 -> 10 -> 5 -> 2 -> 1
        "03fa80fc45ec112cc198cbacd209c7de4f1d043e4d5c9ae19bb876d689188935",
    "beyond-bound/1+amnesia":  # termination; dropped recovery of 2 and 3;
    # crash(2): after_sends 9 -> 0, round 2 -> 0; crash(3): after_sends
    # 4 -> 0, round 2 -> 0
        "29fa8294e96e147fb6a850236e904aafee527975205eab6d12cb26ccf8e592fc",
    "beyond-bound/5+amnesia":  # validity; dropped recovery of 0 and 4;
    # crash(0): after_sends 3 -> 0; crash(4): after_sends 4 -> 2 -> 1
        "f6fd3864e22279f12562ff41dc5cf7d5e2f74531ed8e51fd16e8872d72ffbaab",
    "beyond-bound/8+byzantine":  # validity; demoted Byzantine process 5;
    # crash(1): after_sends 9 -> 0
        "f50b9b1894c37852240e6bb41d1ac9bd0f93a5c57a0721b1dbd0df72e570b33a",
}


def shrink_digest(result) -> str:
    violation = result.violation
    payload = {
        "case_id": result.case.case_id,
        "reductions": list(result.reductions),
        "plan": result.plan.to_json_dict(),
        "schedule": [[src, dst] for src, dst in result.schedule],
        "violation": {
            "kind": violation.kind,
            "pid": violation.pid,
            "round_index": violation.round_index,
        },
        "runs": result.runs,
        "minimal": result.minimal,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_shrink_golden(name):
    outcome = run_case(CASES[name]())
    assert outcome.violation is not None
    assert shrink_digest(shrink(outcome)) == GOLDEN[name]
