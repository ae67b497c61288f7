"""Measurement helpers shared by the experiment harness.

These convert raw :class:`ExecutionTrace` objects into the quantities the
per-experiment tables report: per-round disagreement series against the
Eq. (18) envelope, output-size ratios against the optimal ``I_Z`` and the
hull of correct inputs, convergence-rate fits, and message/round counters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.invariants import has_views
from ..geometry.hausdorff import disagreement_diameter, hausdorff_distance
from ..geometry.intersection import optimal_polytope_iz
from ..geometry.polytope import ConvexPolytope
from ..geometry.volume import polytope_measure, volume_ratio
from ..runtime.tracing import ExecutionTrace


@dataclass
class ConvergenceSeries:
    """Per-round disagreement with the analytic envelope alongside."""

    rounds: list[int]
    disagreement: list[float]
    envelope: list[float]

    def empirical_rate(self) -> float | None:
        """Geometric-decay fit over the rounds with positive disagreement.

        Returns the fitted per-round factor, or None when fewer than two
        positive measurements exist (e.g. instant agreement).
        """
        ts, ys = [], []
        for t, y in zip(self.rounds, self.disagreement):
            if y > 1e-14:
                ts.append(t)
                ys.append(np.log(y))
        if len(ts) < 2:
            return None
        slope = np.polyfit(ts, ys, 1)[0]
        return float(np.exp(slope))

    def rounds_to(self, eps: float) -> int | None:
        """First round with disagreement below ``eps`` (None if never)."""
        for t, y in zip(self.rounds, self.disagreement):
            if y < eps:
                return t
        return None


def _states_at(trace: ExecutionTrace, t: int) -> list[ConvexPolytope]:
    """The states recorded at round ``t``, in process order."""
    return [proc.states[t] for proc in trace.processes if t in proc.states]


def _measured_rounds(trace: ExecutionTrace) -> list[int]:
    """The rounds the disagreement series measures: those with at least
    two recorded states."""
    return [t for t in range(trace.t_end + 1) if len(_states_at(trace, t)) >= 2]


def convergence_series(trace: ExecutionTrace) -> ConvergenceSeries:
    """Disagreement ``max_{i,j} d_H(h_i[t], h_j[t])`` per round vs Eq. (18).

    Measured over *all* processes with a recorded round-t state — the
    paper notes validity and agreement "hold for all processes that do
    not crash before completing the algorithm", and in starved-adversary
    executions the interesting divergence lives precisely in the
    faulty-but-alive process's state.
    """
    gamma = 1.0 - 1.0 / trace.n
    # The envelope's Omega uses the actual h_k[0] (the paper's definition);
    # take the coarse input-bound version used by t_end for comparability.
    omega = _omega_from_trace(trace)
    rounds = _measured_rounds(trace)
    return ConvergenceSeries(
        rounds=rounds,
        disagreement=[
            disagreement_diameter(_states_at(trace, t)) for t in rounds
        ],
        envelope=[gamma**t * omega for t in rounds],
    )


def disagreement_endpoints(trace: ExecutionTrace) -> tuple[float, float]:
    """The first and last entries of ``convergence_series(trace).disagreement``.

    Measures only those two rounds (once when they coincide), so a sweep
    row does not pay for the middle of the series; ``(0.0, 0.0)`` when no
    round has two recorded states.
    """
    rounds = _measured_rounds(trace)
    if not rounds:
        return 0.0, 0.0
    first = disagreement_diameter(_states_at(trace, rounds[0]))
    if rounds[-1] == rounds[0]:
        return first, first
    return first, disagreement_diameter(_states_at(trace, rounds[-1]))


def _omega_from_trace(trace: ExecutionTrace) -> float:
    """The paper's Omega evaluated on the recorded ``h_k[0]`` polytopes.

    Omega = max over points p_k in h_k[0] of
    sqrt( sum_l ( sum_k |p_k(l)| )^2 ); maximised at vertices, computed
    coordinatewise from per-polytope maxima of |coordinate|.
    """
    per_proc_max: list[np.ndarray] = []
    for proc in trace.processes:
        state = proc.states.get(0)
        if state is None or state.is_empty:
            continue
        per_proc_max.append(np.max(np.abs(state.vertices), axis=0))
    if not per_proc_max:
        return 0.0
    stacked = np.array(per_proc_max)
    coord_sums = stacked.sum(axis=0)
    return float(np.sqrt(np.sum(coord_sums**2)))


@dataclass
class OutputSizeReport:
    """How large the decided region is, against the two natural yardsticks."""

    iz_measure: float
    output_measures: dict[int, float]
    correct_hull_measure: float
    min_ratio_vs_iz: float
    mean_ratio_vs_correct_hull: float
    output_diameters: dict[int, float]
    #: The largest Hausdorff distance from a fault-free output to ``I_Z``:
    #: how much *extra* region beyond the guaranteed optimum the run
    #: retained (Theorem 3 allows any excess; the guarantee is
    #: one-sided).  None without outputs, with an empty ``I_Z`` or
    #: without ``I_Z``.
    final_gap: float | None


def output_size_report(trace: ExecutionTrace) -> OutputSizeReport:
    """Measures of decided polytopes vs ``I_Z`` and the correct-input hull.

    ``I_Z`` needs a stable-vector view, which the Byzantine sibling never
    forms; without one (the rule of :func:`~repro.core.invariants.has_views`)
    ``iz_measure`` and ``min_ratio_vs_iz`` are NaN and ``final_gap`` is
    None, and the outputs are still measured.
    """
    iz = None
    if has_views(trace):
        iz = optimal_polytope_iz(trace.common_view_points(), trace.f)
    correct_hull = ConvexPolytope.from_points(trace.correct_inputs)
    outputs = trace.fault_free_outputs()
    measures = {pid: polytope_measure(poly) for pid, poly in outputs.items()}
    diameters = {pid: poly.diameter for pid, poly in outputs.items()}
    ratios_iz = []
    if iz is not None:
        ratios_iz = [volume_ratio(poly, iz) for poly in outputs.values()]
    ratios_hull = [
        volume_ratio(poly, correct_hull) for poly in outputs.values()
    ]
    final_gap = None
    if outputs and iz is not None and not iz.is_empty:
        final_gap = max(hausdorff_distance(out, iz) for out in outputs.values())
    return OutputSizeReport(
        iz_measure=float("nan") if iz is None else polytope_measure(iz),
        output_measures=measures,
        correct_hull_measure=polytope_measure(correct_hull),
        min_ratio_vs_iz=min(ratios_iz) if ratios_iz else float("nan"),
        mean_ratio_vs_correct_hull=(
            float(np.mean(ratios_hull)) if ratios_hull else float("nan")
        ),
        output_diameters=diameters,
        final_gap=final_gap,
    )


@dataclass
class CostSummary:
    """Communication/latency counters of one execution."""

    messages_sent: int
    messages_delivered: int
    delivery_steps: int
    rounds: int
    max_vertices_seen: int


def cost_summary(trace: ExecutionTrace) -> CostSummary:
    max_vertices = 0
    for proc in trace.processes:
        for state in proc.states.values():
            max_vertices = max(max_vertices, state.num_vertices)
    return CostSummary(
        messages_sent=trace.messages_sent,
        messages_delivered=trace.messages_delivered,
        delivery_steps=trace.delivery_steps,
        rounds=trace.t_end,
        max_vertices_seen=max_vertices,
    )
