"""Point-valued approximate vector consensus (Mendes-Herlihy / Vaidya-Garg
style, adapted to crash faults with incorrect inputs).

The dedicated baseline the paper generalises: it runs Algorithm CC's
round skeleton (:class:`~repro.core.algorithm_cc.CCSkeleton`: stable
vector in round 0, iterated averaging with ``n - f`` quorums afterwards),
but the state is a single point:

* round 0 — compute the same safe polytope ``h_i[0]`` CC computes (the
  subset-hull intersection protects against ``f`` incorrect inputs), then
  *collapse it to its Steiner point*;
* round t — average the ``n - f`` received points.

Validity holds because averages of points in the hull of correct inputs
stay in it; agreement follows from the same ergodicity argument as CC
(Lemma 3 applies verbatim — the states are 0-dimensional polytopes).

Comparing this baseline with CC isolates the paper's contribution: the
*output is a region, not a point*.  Experiment E7 measures both under the
same adversaries; the decided point of the baseline always lies inside
CC's decided polytope (it is a selector of the same information), while
CC additionally reports the full optimal region ``I_Z``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.algorithm_cc import CCSkeleton
from ..core.runner import prepare_run
from ..core.vector_consensus import PointOutputs
from ..geometry.polytope import ConvexPolytope
from ..geometry.steiner import steiner_point
from ..runtime.faults import FaultPlan
from ..runtime.messages import InputTuple
from ..runtime.scheduler import Scheduler, default_scheduler
from ..runtime.simulator import SimulationReport, run_simulation
from ..runtime.tracing import ExecutionTrace


class PointConsensusProcess(CCSkeleton):
    """One process of the point-valued baseline (singleton-polytope states)."""

    @property
    def output(self) -> np.ndarray | None:
        state = super().output
        return None if state is None else state.vertices[0].copy()

    def initial_state(self, r_view: tuple[InputTuple, ...]) -> ConvexPolytope:
        """The Steiner point of CC's own ``h_i[0]``."""
        return ConvexPolytope.singleton(
            steiner_point(self.subset_intersection(r_view))
        )

    def combine(self, received: dict[int, ConvexPolytope]) -> ConvexPolytope:
        """The mean of the received points, in arrival order."""
        points = np.array([poly.vertices[0] for poly in received.values()])
        return ConvexPolytope.singleton(np.mean(points, axis=0))


@dataclass
class BaselineVCResult(PointOutputs):
    """Outputs of one baseline execution."""

    points: dict[int, np.ndarray]
    trace: ExecutionTrace
    report: SimulationReport

    @property
    def faulty(self) -> frozenset[int]:
        return self.trace.faulty


def run_baseline_vector_consensus(
    inputs,
    f: int,
    eps: float,
    *,
    fault_plan: FaultPlan | None = None,
    scheduler: Scheduler | None = None,
    seed: int = 0,
    input_bounds: tuple[float, float] | None = None,
) -> BaselineVCResult:
    """Run the point-valued baseline to termination."""
    run = prepare_run(
        inputs,
        f,
        eps,
        fault_plan=fault_plan,
        input_bounds=input_bounds,
        core_cls=PointConsensusProcess,
    )
    sched = scheduler or default_scheduler(seed=seed)
    sched.reset()
    report = run_simulation(run.cores, fault_plan=run.plan, scheduler=sched)
    result = run.result(report, seed=seed, scheduler_name=type(sched).__name__)
    points = {core.pid: core.output for core in run.cores if core.done}
    return BaselineVCResult(points=points, trace=result.trace, report=report)
