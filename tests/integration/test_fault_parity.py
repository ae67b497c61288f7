"""Fault parity: the same ``FaultPlan`` on both runtimes.

The discrete-event simulator is where the chaos engine fuzzes; the
asyncio runtime is the concurrency-realistic cross-check.  For the same
scenario and fault plan both must satisfy every paper property, and
their decided hulls must land in the same region (exact interleavings
differ by design, so the comparison is geometric, not bitwise).
"""

import numpy as np
import pytest

from repro.core.invariants import check_all
from repro.core.runner import run_convex_hull_consensus
from repro.geometry.hausdorff import hausdorff_distance
from repro.runtime.asyncio_runtime import run_asyncio_consensus
from repro.runtime.faults import FaultPlan
from repro.workloads import gaussian_cluster, with_outliers


SCENARIOS = [
    pytest.param(
        FaultPlan.crash_at({4: (0, 2)}), id="mid-broadcast-round0"
    ),
    pytest.param(
        FaultPlan.crash_at({4: (1, 0)}), id="silent-from-round1"
    ),
    pytest.param(FaultPlan.silent_faulty([4]), id="never-crashes"),
]


@pytest.fixture(scope="module")
def inputs():
    points = gaussian_cluster(5, 1, seed=13)
    return with_outliers(points, [4], magnitude=3.0, seed=13)


@pytest.mark.parametrize("plan", SCENARIOS)
class TestFaultParity:
    @pytest.fixture()
    def runs(self, inputs, plan):
        sim = run_convex_hull_consensus(
            inputs, 1, 0.2, fault_plan=plan, seed=3, input_bounds=(-4.0, 4.0)
        )
        aio = run_asyncio_consensus(
            inputs, 1, 0.2, fault_plan=plan, seed=3, input_bounds=(-4.0, 4.0)
        )
        return sim, aio

    def test_both_runtimes_satisfy_all_invariants(self, runs):
        sim, aio = runs
        assert check_all(sim.trace).ok
        assert check_all(aio.trace).ok

    def test_decided_hulls_land_close(self, inputs, runs):
        sim, aio = runs
        so = next(iter(sim.fault_free_outputs.values()))
        ao = next(iter(aio.trace.fault_free_outputs().values()))
        # Both hulls contain I_Z and lie inside the correct-input hull,
        # so their distance is bounded by the correct-input spread.
        correct = np.delete(np.asarray(inputs), 4, axis=0)
        spread = float(np.linalg.norm(correct.max(0) - correct.min(0)))
        assert hausdorff_distance(so, ao) <= spread + 1e-9

    def test_same_fault_bookkeeping(self, runs):
        sim, aio = runs
        assert sim.trace.faulty == aio.trace.faulty
