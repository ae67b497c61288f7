"""Property-based tests: stable vector under random adversarial schedules.

Liveness and Containment (paper Section 3) must hold for *every* delivery
order and crash pattern; hypothesis drives randomised schedules and crash
prefixes through a raw stable-vector harness (no consensus layer).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.faults import CrashSpec, FaultPlan
from repro.runtime.messages import InputTuple, Payload, SVInit, SVView, freeze_point
from repro.runtime.process import Outgoing, ProtocolCore
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.simulator import run_simulation
from repro.runtime.stable_vector import StableVectorEngine


class SVHarnessCore(ProtocolCore):
    """Minimal core that runs only the stable-vector protocol."""

    def __init__(self, pid: int, n: int, f: int, value: float):
        self.pid = pid
        self._sv = StableVectorEngine(
            pid=pid, n=n, f=f,
            entry=InputTuple(value=freeze_point([value]), sender=pid),
        )

    def on_start(self) -> list[Outgoing]:
        return [(None, p) for p in self._sv.start()]

    def on_message(self, payload: Payload, src: int) -> list[Outgoing]:
        if isinstance(payload, SVInit):
            out = self._sv.on_init(payload, src)
        elif isinstance(payload, SVView):
            out = self._sv.on_view(payload, src)
        else:  # pragma: no cover
            raise TypeError(type(payload))
        return [(None, p) for p in out]

    @property
    def current_round(self) -> int:
        return 0

    @property
    def done(self) -> bool:
        return self._sv.result is not None

    @property
    def result(self):
        return self._sv.result


@given(
    n=st.integers(min_value=3, max_value=8),
    seed=st.integers(0, 2**31 - 1),
    crash_sends=st.integers(0, 20),
    crash_last=st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_liveness_and_containment_under_crashes(n, seed, crash_sends, crash_last):
    f = 1
    if n < 2 * f + 1:
        return
    crash_pid = n - 1 if crash_last else 0
    plan = FaultPlan(
        faulty=frozenset({crash_pid}),
        crashes={crash_pid: CrashSpec(round_index=0, after_sends=crash_sends)},
    )
    cores = [SVHarnessCore(pid=i, n=n, f=f, value=float(i)) for i in range(n)]
    run_simulation(
        cores,
        fault_plan=plan,
        scheduler=RandomScheduler(seed=seed),
    )
    results = [core.result for core in cores if core.result is not None]
    # Liveness: every fault-free process returned, with >= n - f tuples.
    live_count = sum(
        1 for core in cores if core.pid != crash_pid and core.result is not None
    )
    assert live_count == n - 1
    for r in results:
        assert len(r) >= n - f
    # Containment: all returned views pairwise comparable.
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            a, b = set(results[i]), set(results[j])
            assert a <= b or b <= a


@given(
    n=st.integers(min_value=3, max_value=7),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_fault_free_executions_return_everywhere(n, seed):
    cores = [SVHarnessCore(pid=i, n=n, f=1, value=float(i) / n) for i in range(n)]
    run_simulation(
        cores,
        scheduler=RandomScheduler(seed=seed),
    )
    for core in cores:
        assert core.result is not None
        assert len(core.result) >= n - 1


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_views_contain_own_entry(seed):
    n = 5
    cores = [SVHarnessCore(pid=i, n=n, f=1, value=float(i)) for i in range(n)]
    run_simulation(
        cores,
        scheduler=RandomScheduler(seed=seed),
    )
    for core in cores:
        senders = {entry.sender for entry in core.result}
        assert core.pid in senders
