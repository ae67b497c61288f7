"""Float-free goldens for what the lossy fabric carries.

Each case pins a SHA-256 over every fabric delivery of one seeded
transport run, as ``(kind, src, dst, seq, attempt, release, order)``,
plus the application delivery sequence and the run's transport counters
(retransmissions, acks, dup and link drops, link dups, corrupt drops and
partition heals).  A change to the link scan, the frame copies, the
timer heap or the per-link fault rolls that moves one frame, one RNG
draw or one scheduler choice changes the digest.

The cases are the three link-fault plans of
``tests/runtime/test_transport_oracle.py`` at two run seeds each (the
second with a crash), plus one raw (``reliable_transport=False``) run
over perfect links.  The digests were generated before the fabric's scan
list and slotted frames, and must never be regenerated to make a change
pass.
"""

import hashlib
import json

import pytest

from repro.runtime.faults import FaultPlan, LinkFaultPlan
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.transport import LossyFabric, run_transport_simulation
from tests.runtime.test_transport_oracle import PLANS, _cores

#: The transport counters hashed with the deliveries.
COUNTERS = (
    "retransmissions",
    "ack_messages",
    "dup_drops",
    "link_drops",
    "link_dups",
    "corrupt_drops",
    "partition_heals",
)

#: Case name -> (reliable, link plan, run seed, crash plan or None).
CASES = {
    **{
        f"{name}/seed{seed}": (True, plan, seed, {4: (1, 2)} if seed else None)
        for name, plan in PLANS.items()
        for seed in (0, 1)
    },
    "raw-perfect/seed0": (False, LinkFaultPlan(), 0, None),
}

#: Case name -> (fabric deliveries, SHA-256 of the run).
GOLDEN = {
    "corrupt/seed0": (
        1567,
        "3c7a3e821199fb12dd80a2a92533aa42d7014238ec0ffa4871217e6338b9bd1a",
    ),
    "corrupt/seed1": (
        1379,
        "4efb44dfb996084093328fb0a78d594bb9ea594a9d3a7a44474dd923ecac2a98",
    ),
    "lossy/seed0": (
        1340,
        "806f029b1fc174eb55c9d6fdc0b56c54bd07f3bf3a173b1b8c0f17696b66f665",
    ),
    "lossy/seed1": (
        1234,
        "08d2049fb1415522dafab1df7c883ee0de8d5d1d54c948f7355241888ac3390a",
    ),
    "partition-heal/seed0": (
        1357,
        "0ba79c18c7a537ed18d578335584d357d43b51106e68b353f287f37c840d36f5",
    ),
    "partition-heal/seed1": (
        1141,
        "01d286f112f110ca5439796a29a4698681ce284a1bafc479e9ad0203332c4c3a",
    ),
    "raw-perfect/seed0": (
        420,
        "6ad9517339fb525db669370fd8658b2a1752ef25377fc5da3235b1fff4994c06",
    ),
}


def _digest(case):
    reliable, plan, seed, crashes = CASES[case]
    frames = []
    deliver = LossyFabric.deliver

    def recording_deliver(fabric, frame):
        frames.append(
            [frame.kind, frame.src, frame.dst, frame.seq, frame.attempt,
             frame.release, frame.order]
        )
        return deliver(fabric, frame)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LossyFabric, "deliver", recording_deliver)
        report = run_transport_simulation(
            _cores(seed=seed),
            FaultPlan.crash_at(crashes) if crashes else None,
            RandomScheduler(seed=7 + seed),
            link_faults=plan,
            reliable_transport=reliable,
        )
    payload = {
        "frames": frames,
        "app_deliveries": [list(link) for link in report.app_deliveries],
        "counters": {name: report.perf_counters[name] for name in COUNTERS},
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return len(frames), hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_fabric_golden(case):
    assert _digest(case) == GOLDEN[case]
