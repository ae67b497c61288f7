"""Vector consensus by reduction from convex hull consensus (Section 1).

The paper: "a solution for convex hull consensus trivially yields a
solution for vector consensus [13, 20]".  The reduction implemented here
makes the triviality precise:

1. run Algorithm CC with agreement parameter ``eps / c_d``, where ``c_d``
   is a Hausdorff-Lipschitz bound for the point selector;
2. each process outputs the **Steiner point** of its decided polytope.

Because the Steiner point is ``c_d``-Lipschitz w.r.t. the Hausdorff
metric, the outputs are within ``c_d * (eps / c_d) = eps`` of each other
(epsilon-agreement), they lie inside the decided polytopes (validity
inherits from CC), and termination is CC's.

This derived algorithm is what experiment E7 compares against the
dedicated point-valued baseline in :mod:`repro.baselines`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry.steiner import steiner_lipschitz_bound, steiner_point
from ..runtime.faults import FaultPlan
from ..runtime.scheduler import Scheduler
from .runner import CCResult, run_convex_hull_consensus


class PointOutputs:
    """Accessors shared by every result whose processes decide points.

    A subclass provides ``points`` (pid -> decided point) and ``faulty``.
    """

    @property
    def fault_free_points(self) -> dict[int, np.ndarray]:
        faulty = self.faulty
        return {pid: p for pid, p in self.points.items() if pid not in faulty}

    def max_pairwise_distance(self) -> float:
        pts = list(self.fault_free_points.values())
        worst = 0.0
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                worst = max(worst, float(np.linalg.norm(pts[i] - pts[j])))
        return worst


@dataclass
class VectorConsensusResult(PointOutputs):
    """Per-process points plus the underlying CC execution."""

    points: dict[int, np.ndarray]
    cc_result: CCResult

    @property
    def faulty(self) -> frozenset[int]:
        return self.cc_result.trace.faulty


def run_vector_consensus(
    inputs,
    f: int,
    eps: float,
    *,
    fault_plan: FaultPlan | None = None,
    scheduler: Scheduler | None = None,
    seed: int = 0,
    input_bounds: tuple[float, float] | None = None,
) -> VectorConsensusResult:
    """Approximate vector consensus via the CC + Steiner-point reduction.

    Guarantees (for fault-free processes): outputs in the convex hull of
    correct inputs, pairwise Euclidean distance < ``eps``, termination.
    """
    arr = np.asarray(inputs, dtype=float)
    dim = arr.shape[1]
    c_d = steiner_lipschitz_bound(dim)
    cc = run_convex_hull_consensus(
        inputs,
        f,
        eps / c_d,
        fault_plan=fault_plan,
        scheduler=scheduler,
        seed=seed,
        input_bounds=input_bounds,
    )
    points = {pid: steiner_point(poly) for pid, poly in cc.outputs.items()}
    return VectorConsensusResult(points=points, cc_result=cc)
