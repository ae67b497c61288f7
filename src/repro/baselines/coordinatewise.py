"""Coordinate-wise scalar agreement — the baseline vector consensus lacks.

Running a scalar approximate-agreement instance independently per
coordinate *converges* and even agrees, but it does **not** satisfy convex
validity for ``d >= 2``: the per-coordinate outputs combine into a point
that can fall outside the convex hull of the correct inputs (the classic
counterexample — three inputs at the corners of a triangle; coordinate-wise
medians/averages land outside it).  This failure is exactly what motivates
vector consensus [13, 20] and, in turn, convex hull consensus.

Experiment E4 quantifies the violation rate of this baseline against
Algorithm CC's zero rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.runner import derive_bounds, prepare_run
from ..core.vector_consensus import PointOutputs
from ..geometry.polytope import ConvexPolytope
from ..geometry.tolerances import INVARIANT_TOL
from ..runtime.faults import FaultPlan
from ..runtime.scheduler import default_scheduler
from ..runtime.simulator import run_simulation
from ..runtime.tracing import ExecutionTrace
from .scalar_agreement import ScalarAgreementProcess


@dataclass
class CoordinatewiseResult(PointOutputs):
    """Per-process output points assembled from per-coordinate runs."""

    points: dict[int, np.ndarray]
    coordinate_traces: list[ExecutionTrace]
    faulty: frozenset[int]

    def validity_violations(
        self, correct_inputs: np.ndarray, tol: float = INVARIANT_TOL
    ) -> dict[int, float]:
        """Distance outside ``H(correct inputs)`` per violating process.

        ``tol`` defaults to ``INVARIANT_TOL``, the tolerance
        ``check_validity`` applies to Algorithm CC, so E4 holds both
        sides to the same bar.
        """
        hull = ConvexPolytope.from_points(correct_inputs)
        violations: dict[int, float] = {}
        for pid, point in self.fault_free_points.items():
            dist = hull.distance_to_point(point)
            if dist > tol:
                violations[pid] = dist
        return violations


def run_coordinatewise_consensus(
    inputs,
    f: int,
    eps: float,
    *,
    fault_plan: FaultPlan | None = None,
    scheduler_factory=None,
    seed: int = 0,
    input_bounds: tuple[float, float] | None = None,
) -> CoordinatewiseResult:
    """Run one scalar agreement instance per coordinate.

    Each coordinate gets an independent asynchronous execution (fresh
    scheduler seeded from ``seed``), mirroring a system that treats the
    vector problem as ``d`` scalar problems.  Per-coordinate agreement is
    ``eps / sqrt(d)`` so the combined points still epsilon-agree.
    """
    arr = np.asarray(inputs, dtype=float)
    dim = arr.shape[1]
    plan = fault_plan or FaultPlan.none()
    if input_bounds is None:
        input_bounds = derive_bounds(arr)
    per_coord_eps = eps / np.sqrt(dim)
    traces: list[ExecutionTrace] = []
    coord_outputs: list[dict[int, float]] = []
    for coord in range(dim):
        run = prepare_run(
            arr[:, coord : coord + 1],
            f,
            per_coord_eps,
            fault_plan=plan,
            input_bounds=input_bounds,
            enforce_resilience=False,  # scalar agreement needs only 3f+1
            core_cls=ScalarAgreementProcess,
        )
        if scheduler_factory is None:
            sched = default_scheduler(seed=seed + 1000 * coord)
        else:
            sched = scheduler_factory(coord)
        report = run_simulation(run.cores, fault_plan=plan, scheduler=sched)
        result = run.result(report, seed=seed, scheduler_name=type(sched).__name__)
        traces.append(result.trace)
        coord_outputs.append(
            {
                core.pid: core.output
                for core in run.cores
                if core.done and core.output is not None
            }
        )
    decided = set(coord_outputs[0])
    for outputs in coord_outputs[1:]:
        decided &= set(outputs)
    points = {
        pid: np.array([coord_outputs[c][pid] for c in range(dim)])
        for pid in sorted(decided)
    }
    return CoordinatewiseResult(
        points=points, coordinate_traces=traces, faulty=plan.faulty
    )
