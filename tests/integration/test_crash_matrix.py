"""Systematic crash/scheduler sweep: the paper's properties must hold in
every cell of the (crash timing) x (scheduler) x (link faults) matrix.

The link-fault axis runs every crash cell on the structural reliable
network, over the lossy fabric + reliable transport, and over a
partition that cuts node 0 off for a while on lossy, corrupting links,
so the channel machinery and the crash machinery are exercised together:
a crash mid-broadcast must behave identically whether the undelivered
messages sit in a structural channel or in a retransmit queue, and
frames withheld by the partition must arrive after the heal.

Every cell also pins its execution: ``GOLDEN`` holds the run digest
(``tests/conftest.py::_run_digest``) each cell produced when it was
generated, so a refactor of the runtime that changes any delivery
decision, message count or outcome fails here.
"""

import numpy as np
import pytest

from repro.core.invariants import check_all
from repro.core.runner import run_convex_hull_consensus
from repro.runtime.faults import FaultPlan, LinkFaultPlan, LinkFaultSpec
from repro.runtime.scheduler import (
    BurstyScheduler,
    FifoFairScheduler,
    RandomScheduler,
    ScheduleRecorder,
    TargetedDelayScheduler,
)

SCHEDULERS = {
    "random": lambda: RandomScheduler(seed=5),
    "fifo": lambda: FifoFairScheduler(),
    "bursty": lambda: BurstyScheduler(seed=5),
    "starve-victim": lambda: TargetedDelayScheduler(slow=frozenset({4}), seed=5),
}

CRASH_PLANS = {
    "none": FaultPlan.none(),
    "silent": FaultPlan.silent_faulty([4]),
    "round0-early": FaultPlan.crash_at({4: (0, 0)}),
    "round0-mid-broadcast": FaultPlan.crash_at({4: (0, 2)}),
    "round1-mid-broadcast": FaultPlan.crash_at({4: (1, 1)}),
    "round2": FaultPlan.crash_at({4: (2, 3)}),
}

LINK_PLANS = {
    "reliable": lambda: None,
    "lossy": lambda: LinkFaultPlan(
        default=LinkFaultSpec(loss=0.15, dup=0.1, delay=2, reorder=0.2),
        seed=9,
    ),
    # Node 0 cut off over [10, 150) on top of lossy, corrupting links:
    # frames queued before the cut are withheld until the heal.
    "partition": lambda: LinkFaultPlan.isolate(
        [0],
        5,
        start=10,
        heal=150,
        base=LinkFaultSpec(loss=0.1, dup=0.05, delay=1, corrupt=0.05),
        seed=9,
    ),
}

#: Run digest per "plan-scheduler-link" cell.  ``silent`` matches ``none``:
#: a faulty process that never crashes leaves the same execution.
GOLDEN = {
    "none-bursty-lossy": "5b09f050fa11ff22186c50c755927d7477d2553bdca67892396e985184267dd2",
    "none-bursty-partition": "a1a22b8113c3b0e25198855c3342b12e3b2471f677d0dc42f905a4c8b126d0cb",
    "none-bursty-reliable": "84705d13d02fa423187cbe897bc8b4a3037e617d50cef5023463b9b69c318930",
    "none-fifo-lossy": "fccfd40a9069cfd9de21b399baf897df7c0b5e6879bcee80d4b2df16b6442c4d",
    "none-fifo-partition": "a7806116e76bc7fa094eba20bd19613162ce1a6acf4da0cc49858dee072583d5",
    "none-fifo-reliable": "5fecd4da78905bd89d995bceb740ce4c1c0d683ce6d7a78023f971728362199a",
    "none-random-lossy": "fcc8061a85b7286f67e99106d041306e8a0c3216d65323c26338eec58e0bd37a",
    "none-random-partition": "c591ee4c5e565acbce5d04d9a7dfa411c962354552bc9ed2c6a89a46dfb0f919",
    "none-random-reliable": "c04110726bfc6dcae3bf31ae5a878f264b7f7f2ad955d00b850d01a4cfc01632",
    "none-starve-victim-lossy": "437b5b90eb0ca06b9e596cc7acf3f72b9417cbfec6739fc1dc01f8f349384f76",
    "none-starve-victim-partition": "f86d651a51242458ffe7e3ec67014ae02f18134b6bb1688778118403a112128e",
    "none-starve-victim-reliable": "108c61126b26131c378221b8d98fad2e181a308e05e62c8df7a6f653f389b04f",
    "round0-early-bursty-lossy": "ff6c0a06a71ff3794a1225772416dabe25310138773b2e69c591a492e190f755",
    "round0-early-bursty-partition": "afb261c2dec574e43df4f24416106e0716189552832bc04a6f2a5289f8d68ff5",
    "round0-early-bursty-reliable": "a098944f5e3c1a076f5b31d5bbbad87fadf4f3896559849ea4214809ab9c514a",
    "round0-early-fifo-lossy": "a08e643830f0f6293e442bd4c9d51b47c8fccbde3043df1d8c2a8f587ea7aa62",
    "round0-early-fifo-partition": "49592c513aeea44b143dec52d79f3f785277311f2d749177752fe39cf046cf2c",
    "round0-early-fifo-reliable": "36bc05eedc1a29ddce7d229cbe8ed3ea7a4c92063e2f3519613f80f05d784541",
    "round0-early-random-lossy": "4d51d2d215c412f96af05ae35b0b1ba061dca2a4fb948dc2e0ac080399cf15fc",
    "round0-early-random-partition": "d5d814e74325ece61727adc097e7042472112107fc27ef9bd29d2a4fba5e4caa",
    "round0-early-random-reliable": "24dce9deb9a315891fecca049812a81590540e8ba3ad6f49a7857321e93c02a6",
    "round0-early-starve-victim-lossy": "7e8ea25bfd91d89beb4ffca05e86246edec08e13d7388b86e23caff82f5b01d7",
    "round0-early-starve-victim-partition": "86c7c92d90285c7863023d6f60c6604274549281495ce48fb98f8fe70457cb19",
    "round0-early-starve-victim-reliable": "24dce9deb9a315891fecca049812a81590540e8ba3ad6f49a7857321e93c02a6",
    "round0-mid-broadcast-bursty-lossy": "883c161b24e88a5e8e6c4831a19276636c548b75214a3c11e3695716db748570",
    "round0-mid-broadcast-bursty-partition": "8bac2fe75a7bba84ed46a0ddc2d3a1bcbb415e68e98c1c89d1988f6f40ff5c7b",
    "round0-mid-broadcast-bursty-reliable": "931b410ab9e85c31ec25880e37743ef8b44f58e43a0c79decb587ebdeea179f5",
    "round0-mid-broadcast-fifo-lossy": "73e51389eec9de14255ba76285e114aa912d258d00fd44d833898301af289c59",
    "round0-mid-broadcast-fifo-partition": "aa56845b26db2564f8901877eb4a08525fac08ac116c25df01464459d3dc4a65",
    "round0-mid-broadcast-fifo-reliable": "0feecdc6b27a75a4d3b2bbf3c2e462a2b4b3c33456e9b595fcead3130352f246",
    "round0-mid-broadcast-random-lossy": "1102d712dde43fceda8b839f53693e466cb047feb782b4d5428f251a6594b3c3",
    "round0-mid-broadcast-random-partition": "52f4a2f4f10581aa3546ee3b40c8a79b51487577126f6c051fd9c56621c5fd18",
    "round0-mid-broadcast-random-reliable": "c4df0d7349c80fd6558562708f25082f985ad1425b0789382390fd9f524e9ee3",
    "round0-mid-broadcast-starve-victim-lossy": "0eb04271ee5a35248dc97e0bd1cac190236de0b94da95cd1668cfe5cfb60b428",
    "round0-mid-broadcast-starve-victim-partition": "78badd3ca987931c47ca24f73876b02def8b8eb929cfcd1dfc84a21f82e614b1",
    "round0-mid-broadcast-starve-victim-reliable": "22a1339c587e03d57239f55da3ed6045af00f028362e00d672ce1ccd14fb9b08",
    "round1-mid-broadcast-bursty-lossy": "6a10f029f77271a74019c832e6466a888042b92c4020fe7c418a84f6789cb49d",
    "round1-mid-broadcast-bursty-partition": "237a594867216225854ef3193fb85fa5d490adc09461f3ddce59c1dc84c3298c",
    "round1-mid-broadcast-bursty-reliable": "d6761dd7a7c32d3144be549bbf34bfa1a85dacc2ccf01c2436a63245aae245a0",
    "round1-mid-broadcast-fifo-lossy": "3defb45495c8b57e3d98c479ac440150330394231113d86dbf70e1a5ab600eb8",
    "round1-mid-broadcast-fifo-partition": "a8deb45e3e117d62a59c9e32f407f555636270344a2f83b9d300e61ecc30bc05",
    "round1-mid-broadcast-fifo-reliable": "70aadd42b8a21ea430e81bd3dd682ce2456cb649451392f64c75a9eee0261eee",
    "round1-mid-broadcast-random-lossy": "5db3789b6a9c9165242dbb021c948a7732c892090d0d083c60be999ac2331f91",
    "round1-mid-broadcast-random-partition": "3c06f479f75b6c2fae31f442fdcd0aa7054d846080de94dc661577ff64dc445c",
    "round1-mid-broadcast-random-reliable": "c415f813c63d858a43d89666cdfe4b8ab1cf933766054f7c163e927bdc41482b",
    "round1-mid-broadcast-starve-victim-lossy": "35b6508d601ad3a36eaf7eb6bdec6fc9ac844444f5802088673b4e3c528c2ffd",
    "round1-mid-broadcast-starve-victim-partition": "3dbf1217bb9422c39c116363dcdd659fc1c94e1033a6af5b1597405d1bb30348",
    "round1-mid-broadcast-starve-victim-reliable": "783776e144168d812ca0732f1175439557d9fa1fa86e9f9c7ae28e2254abb62f",
    "round2-bursty-lossy": "bb2f45050db5f12f0a51621b7aa1c7a38f988ba685d8d1330db7f71a60f9e3a4",
    "round2-bursty-partition": "409eed9d377d3d1ef3aae69cedd51d853d98a6f7280dec4e443cc1b5eb4d8b45",
    "round2-bursty-reliable": "eb672c29fa023884cc414dc75b35f97b158eb99bb5288a5d37ca80b336d08be2",
    "round2-fifo-lossy": "3402e601184e92e228909d740b012b2ef0c7bf9dd1bcfb538c0073cf56ffdffc",
    "round2-fifo-partition": "36444b56256549a4ea9e844ee34457cfe4052cb9944d8e2c04786e00960540da",
    "round2-fifo-reliable": "d5d455835cf066192d2bb2ceb47a98cb215ee6f83b17d4a6f9945ae669aa9875",
    "round2-random-lossy": "85ee620687e3b93c30efffc6cb4876ee14743995b88fa57f9885d77b269dabce",
    "round2-random-partition": "f53dc39681752fadec8c6d67f089cf5e433ede2fefda39ea3b42fa55be68ae7b",
    "round2-random-reliable": "200b4c97fec000c0d32d05de4b22348fe49bc0ebc488d98b0112d94c72b4afcf",
    "round2-starve-victim-lossy": "220c1fc5219b50c10740a3eb1d504d6d40bd073e0696717226e7d20dfb27c2bb",
    "round2-starve-victim-partition": "8d6de3bc12c5867a721bfff5e45ad082a98477bc5bed7f6d6d56e0d01099a88f",
    "round2-starve-victim-reliable": "783776e144168d812ca0732f1175439557d9fa1fa86e9f9c7ae28e2254abb62f",
    "silent-bursty-lossy": "5b09f050fa11ff22186c50c755927d7477d2553bdca67892396e985184267dd2",
    "silent-bursty-partition": "a1a22b8113c3b0e25198855c3342b12e3b2471f677d0dc42f905a4c8b126d0cb",
    "silent-bursty-reliable": "84705d13d02fa423187cbe897bc8b4a3037e617d50cef5023463b9b69c318930",
    "silent-fifo-lossy": "fccfd40a9069cfd9de21b399baf897df7c0b5e6879bcee80d4b2df16b6442c4d",
    "silent-fifo-partition": "a7806116e76bc7fa094eba20bd19613162ce1a6acf4da0cc49858dee072583d5",
    "silent-fifo-reliable": "5fecd4da78905bd89d995bceb740ce4c1c0d683ce6d7a78023f971728362199a",
    "silent-random-lossy": "fcc8061a85b7286f67e99106d041306e8a0c3216d65323c26338eec58e0bd37a",
    "silent-random-partition": "c591ee4c5e565acbce5d04d9a7dfa411c962354552bc9ed2c6a89a46dfb0f919",
    "silent-random-reliable": "c04110726bfc6dcae3bf31ae5a878f264b7f7f2ad955d00b850d01a4cfc01632",
    "silent-starve-victim-lossy": "437b5b90eb0ca06b9e596cc7acf3f72b9417cbfec6739fc1dc01f8f349384f76",
    "silent-starve-victim-partition": "f86d651a51242458ffe7e3ec67014ae02f18134b6bb1688778118403a112128e",
    "silent-starve-victim-reliable": "108c61126b26131c378221b8d98fad2e181a308e05e62c8df7a6f653f389b04f",
}


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(77)
    pts = rng.uniform(-1.0, 1.0, size=(5, 1))
    pts[4] = 0.95  # faulty holds an extreme (incorrect) input
    return pts


@pytest.mark.parametrize("link_name", sorted(LINK_PLANS))
@pytest.mark.parametrize("sched_name", sorted(SCHEDULERS))
@pytest.mark.parametrize("plan_name", sorted(CRASH_PLANS))
def test_cell(inputs, sched_name, plan_name, link_name, run_digest):
    recorder = ScheduleRecorder(inner=SCHEDULERS[sched_name]())
    result = run_convex_hull_consensus(
        inputs,
        1,
        0.2,
        fault_plan=CRASH_PLANS[plan_name],
        scheduler=recorder,
        input_bounds=(-1.0, 1.0),
        link_faults=LINK_PLANS[link_name](),
    )
    report = check_all(result.trace)
    assert report.ok, (sched_name, plan_name, link_name)
    digest = run_digest(result.report, recorder.decisions)
    assert digest == GOLDEN[f"{plan_name}-{sched_name}-{link_name}"]


def test_crash_reduces_decided_count(inputs):
    baseline = run_convex_hull_consensus(inputs, 1, 0.2, seed=1)
    crashed = run_convex_hull_consensus(
        inputs, 1, 0.2, fault_plan=CRASH_PLANS["round1-mid-broadcast"], seed=1
    )
    assert len(baseline.report.decided) == 5
    assert len(crashed.report.decided) == 4


def test_crashed_endpoint_never_delivers_app_frames(inputs):
    # PR-5 keeps a crashed process's transport endpoint alive as channel
    # *infrastructure*: frames addressed to it are consumed and retired
    # at the channel layer (so retransmission storms stop and the run
    # terminates), but the dead application never acknowledges or
    # processes them.  Regression guards: the drops are counted, the
    # application-level delivery count excludes them, and the crashed
    # process's protocol state stays frozen at its crash point.
    from repro.geometry.cache import PERF

    drops0 = PERF.crashed_app_drops
    result = run_convex_hull_consensus(
        inputs,
        1,
        0.2,
        fault_plan=CRASH_PLANS["round0-mid-broadcast"],
        seed=1,
        input_bounds=(-1.0, 1.0),
        link_faults=LINK_PLANS["lossy"](),
    )
    assert PERF.crashed_app_drops > drops0  # frames were retired, not acked
    # The channel retired those frames without the app seeing them.
    assert result.report.messages_delivered < result.report.messages_sent
    proc = result.trace.processes[4]
    assert 4 not in result.report.decided
    assert not proc.decided
    # Frozen at the crash: no state beyond the crash round was computed.
    assert all(t <= 1 for t in proc.states)
    report = check_all(result.trace)
    assert report.ok
