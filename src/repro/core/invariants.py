"""Runtime invariant checkers for the paper's correctness properties.

Given an :class:`ExecutionTrace`, these functions decide — with explicit
tolerances — whether the execution satisfied:

* **Validity** (Definition 3 / Theorem 2): every live state ``h_i[t]`` is
  contained in the convex hull of the *correct* inputs;
* **epsilon-Agreement** (Theorem 2): pairwise Hausdorff distance of the
  fault-free outputs is below ``eps``;
* **Termination**: every non-crashed process decided;
* **Lemma 6 / Theorem 3 optimality**: the polytope ``I_Z`` (Eq. 21) is
  contained in every live state at every round;
* **Stable-vector properties** (Section 3): Liveness (``|R_i| >= n - f``)
  and Containment (views ordered by inclusion).

Each check returns a small report object rather than a bare bool so tests
and experiment tables can show *how much* margin there was.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry.hausdorff import disagreement_diameter
from ..geometry.intersection import optimal_polytope_iz
from ..geometry.polytope import ConvexPolytope
from ..geometry.tolerances import INVARIANT_TOL
from ..runtime.tracing import ExecutionTrace, correct_inputs


def _excess(points, target: ConvexPolytope) -> float:
    """How far ``points`` stick out of ``target``: the largest distance
    from one of them to the polytope, 0.0 for no points.

    The one measurement behind validity (state vertices against the
    correct-input hull), Lemma 6 (``I_Z`` vertices against a state) and
    the streaming validity check.

    In d = 1 the target is an interval ``[lo, hi]`` and every point is
    measured by one vectorised exact clamp: the largest of ``lo - x`` and
    ``x - hi`` over the points, floored at 0.0.  That is bit for bit the
    largest distance the per-point projection (the exact 1-d clamp of
    :func:`~repro.geometry.projection.project_onto_hull`) gives, without
    a call per point; a non-finite point raises ``ValueError`` as the
    projection does.

    In d >= 2 only the points the target's cached H-rep cannot certify
    are projected; the violations of all of them come from one matrix
    product (:meth:`ConvexPolytope.violation`).  Why that is sound:

    * every H-rep row is a unit normal (2-d edges are normalised, Qhull
      facet equations are unit, rows lifted through an orthonormal chart
      stay unit), so a violation <= 0 puts the point inside the H-rep
      polytope;
    * that polytope differs from the hull only by the rounding of the
      facet offsets, a few ulps times the coordinate scale (~1e-10 at
      1e6), far below :data:`INVARIANT_TOL`;
    * a lower-dimensional target carries equality pairs, which rarely
      certify, so its points fall back to projection;
    * a point with a violation > 0 still takes its excess from the
      projection, so the reported excesses are the projection's.

    The uncertified rows are selected as ``not (v <= 0)``: a non-finite
    point has a NaN or infinite violation and is projected, which raises
    ``ValueError``.
    """
    points = np.asarray(points, dtype=float)
    if not len(points):
        return 0.0
    if target.dim == 1:
        x = points[:, 0]
        if not np.isfinite(x).all():
            raise ValueError("points must be finite (no NaN/inf)")
        lo, hi = target.bounding_box
        return max(0.0, float(np.maximum(lo[0] - x, x - hi[0]).max()))
    with np.errstate(invalid="ignore"):
        violation = target.violation(points)
    points = points[~(violation <= 0.0)]
    return max((target.distance_to_point(p) for p in points), default=0.0)


@dataclass
class ValidityReport:
    """Containment of every live state in the hull of correct inputs."""

    checked_states: int
    violations: list[tuple[int, int, float]] = field(default_factory=list)
    worst_excess: float = 0.0
    #: States recorded by Byzantine processes, examined for triage but
    #: exempt from the property: validity quantifies over correct
    #: processes only (an adversary's honest core still traces what it
    #: computed — useful when diagnosing a finding — but the property
    #: says nothing about it).
    adversary_states: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def check_validity(trace: ExecutionTrace) -> ValidityReport:
    """Every ``h_i[t]`` must lie in ``H(correct inputs)`` (Theorem 2).

    Checked for *all* recorded states of all processes (the paper notes
    validity holds for every process that has not crashed yet, not only
    the fault-free ones) — including every state of every pre-recovery
    incarnation of a restarted process: a state that ever existed was
    observable by others, so it must have been valid.  Byzantine
    processes are the exception: the property is quantified over correct
    processes only, so their states are counted (``adversary_states``)
    but never flagged.
    """
    byzantine = set(trace.fault_plan.byzantine)
    hull = ConvexPolytope.from_points(trace.correct_inputs)
    checked = 0
    adversary = 0
    violations: list[tuple[int, int, float]] = []
    worst = 0.0
    for proc in trace.processes:
        if proc.pid in byzantine:
            adversary += sum(1 for _ in proc.all_states())
            continue
        for t, state in proc.all_states():
            checked += 1
            excess = _excess(state.vertices, hull)
            if excess > INVARIANT_TOL:
                violations.append((proc.pid, t, excess))
                worst = max(worst, excess)
    return ValidityReport(
        checked_states=checked,
        violations=violations,
        worst_excess=worst,
        adversary_states=adversary,
    )


@dataclass
class AgreementReport:
    disagreement: float
    eps: float
    num_outputs: int
    #: How many of the outputs came from processes that crashed and
    #: recovered (0 for crash-stop runs — the historical report).
    num_recovered: int = 0

    @property
    def ok(self) -> bool:
        return self.disagreement < self.eps


def check_agreement(trace: ExecutionTrace) -> AgreementReport:
    """epsilon-Agreement over the fault-free outputs (Theorem 2).

    Recovery-aware: the agreement scope is
    :meth:`~repro.runtime.tracing.ExecutionTrace.agreement_outputs` —
    fault-free outputs *plus* every post-recovery decider, in any
    durability mode.  A process that came back and decided announced a
    decision to the world; it does not get a pass on agreeing with it.
    """
    outputs = trace.agreement_outputs()
    recovered = trace.recovered_outputs()
    values = list(outputs.values())
    disagreement = disagreement_diameter(values) if len(values) >= 2 else 0.0
    return AgreementReport(
        disagreement=disagreement,
        eps=trace.eps,
        num_outputs=len(values),
        num_recovered=len(recovered),
    )


@dataclass
class TerminationReport:
    decided: list[int]
    crashed: list[int]
    stuck: list[int]
    #: Processes that recovered without durable state and ended
    #: undecided — the *documented* termination regression (amnesia /
    #: late-join rejoiners may never re-earn a decision); allowed by
    #: :attr:`ok`.  A *durable* recoverer that ends undecided goes into
    #: ``stuck`` instead: with its full pre-crash state restored it is
    #: indistinguishable from a slow process and must decide.
    recovered_undecided: list[int] = field(default_factory=list)
    #: Byzantine processes, reported for triage but exempt from the
    #: property: an adversary sabotaging its own broadcasts may
    #: legitimately never decide.
    byzantine: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.stuck


def check_termination(trace: ExecutionTrace) -> TerminationReport:
    """Every process that never crashed must have decided.

    Recovery-aware extension: a durable-recovered process must also
    decide (it is a slow process, not a ghost); amnesia and late-join
    recoverers are permitted to end undecided, reported separately as
    ``recovered_undecided``.  Byzantine processes are exempt (reported
    in ``byzantine``): termination quantifies over correct processes.
    """
    from ..runtime.faults import DURABLE

    decided, crashed, stuck = [], [], []
    recovered_undecided: list[int] = []
    byzantine: list[int] = []
    byz_pids = set(trace.fault_plan.byzantine)
    for proc in trace.processes:
        if proc.pid in byz_pids:
            byzantine.append(proc.pid)
        elif proc.recovered_at_step is not None:
            if proc.decided:
                decided.append(proc.pid)
            elif proc.recovery_durability == DURABLE:
                stuck.append(proc.pid)
            else:
                recovered_undecided.append(proc.pid)
        elif proc.crash_fired_round is not None:
            crashed.append(proc.pid)
        elif proc.decided:
            decided.append(proc.pid)
        else:
            stuck.append(proc.pid)
    return TerminationReport(
        decided=decided,
        crashed=crashed,
        stuck=stuck,
        recovered_undecided=recovered_undecided,
        byzantine=byzantine,
    )


@dataclass
class OptimalityReport:
    """Lemma 6: ``I_Z`` contained in every state, with worst excess."""

    iz: ConvexPolytope
    checked_states: int
    violations: list[tuple[int, int, float]] = field(default_factory=list)
    worst_excess: float = 0.0
    #: States of Byzantine processes, counted but exempt, as in
    #: :class:`ValidityReport`: Lemma 6 is about correct processes.
    adversary_states: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def check_optimality(trace: ExecutionTrace) -> OptimalityReport:
    """``I_Z subseteq h_i[t]`` for all live states (Lemma 6).

    Scope under crash-recovery: only the *current* incarnation's states
    are checked.  Lemma 6 is a statement about one protocol execution;
    a discarded pre-restart incarnation's states belong to an execution
    that was abandoned, and the common view ``Z`` is likewise built from
    the surviving incarnations' round-0 views.  Byzantine processes are
    exempt, as in validity: their states are counted
    (``adversary_states``) but never flagged.
    """
    points = trace.common_view_points()
    if points.size == 0:
        raise ValueError("trace has no common view; was the run completed?")
    iz = optimal_polytope_iz(points, trace.f)
    byzantine = set(trace.fault_plan.byzantine)
    checked = 0
    adversary = 0
    violations: list[tuple[int, int, float]] = []
    worst = 0.0
    for proc in trace.processes:
        if proc.pid in byzantine:
            adversary += len(proc.states)
            continue
        for t, state in proc.states.items():
            checked += 1
            excess = _excess(iz.vertices, state)
            if excess > INVARIANT_TOL:
                violations.append((proc.pid, t, excess))
                worst = max(worst, excess)
    return OptimalityReport(
        iz=iz,
        checked_states=checked,
        violations=violations,
        worst_excess=worst,
        adversary_states=adversary,
    )


@dataclass
class StableVectorReport:
    view_sizes: list[int]
    liveness_ok: bool
    containment_ok: bool

    @property
    def ok(self) -> bool:
        return self.liveness_ok and self.containment_ok


def check_stable_vector(trace: ExecutionTrace) -> StableVectorReport:
    """Section 3 properties of the round-0 views ``R_i``.

    Liveness: every process that completed round 0 holds ``>= n - f``
    tuples.  Containment: all completed views are pairwise inclusion-
    comparable.  Byzantine processes are exempt, as in validity and
    termination: the properties quantify over correct processes.
    """
    byzantine = trace.fault_plan.byzantine
    views = [
        set(proc.r_view)
        for proc in trace.processes
        if proc.r_view is not None and proc.pid not in byzantine
    ]
    sizes = [len(v) for v in views]
    liveness = all(size >= trace.n - trace.f for size in sizes)
    containment = True
    for a_idx in range(len(views)):
        for b_idx in range(a_idx + 1, len(views)):
            a, b = views[a_idx], views[b_idx]
            if not (a <= b or b <= a):
                containment = False
    return StableVectorReport(
        view_sizes=sizes, liveness_ok=liveness, containment_ok=containment
    )


@dataclass
class FullReport:
    validity: ValidityReport
    agreement: AgreementReport
    termination: TerminationReport
    #: None when the trace has no stable-vector views at all — the
    #: Byzantine sibling replaces the primitive with reliable broadcast,
    #: so the Lemma 6 common view ``Z`` does not exist there and the
    #: optimality claim is vacuous (benign, not a failure).
    optimality: OptimalityReport | None
    stable_vector: StableVectorReport

    @property
    def ok(self) -> bool:
        return (
            self.validity.ok
            and self.agreement.ok
            and self.termination.ok
            and (self.optimality is None or self.optimality.ok)
            and self.stable_vector.ok
        )


def has_views(trace: ExecutionTrace) -> bool:
    """Whether any process completed a stable-vector round 0; Lemma 6 is
    vacuous without one (see :class:`FullReport`)."""
    return any(proc.r_view is not None for proc in trace.processes)


def check_all(trace: ExecutionTrace) -> FullReport:
    """Run every invariant check on one execution."""
    return FullReport(
        validity=check_validity(trace),
        agreement=check_agreement(trace),
        termination=check_termination(trace),
        optimality=check_optimality(trace) if has_views(trace) else None,
        stable_vector=check_stable_vector(trace),
    )


class OnlineViolation(RuntimeError):
    """First invariant violation observed by a streaming checker.

    Raised *during* a simulated execution, aborting it — the chaos
    fuzzer's per-case cost for a violating run is then proportional to
    how early the violation occurs, not to the full execution length.
    """

    def __init__(
        self,
        kind: str,
        detail: str,
        *,
        pid: int | None = None,
        round_index: int | None = None,
    ):
        super().__init__(f"{kind} violated: {detail}")
        self.kind = kind
        self.detail = detail
        self.pid = pid
        self.round_index = round_index


class StreamingInvariantChecker:
    """Incremental per-delivery checking of the streamable invariants.

    Validity and the stable-vector properties are *prefix-closed*: a
    violation is visible the moment the offending state or view is
    recorded, so they can be checked online against the live
    :class:`~repro.runtime.tracing.ProcessTrace` objects while the
    simulator runs.  The checker covers every state and view
    :func:`check_validity` and :func:`check_stable_vector` would see
    after the run, plus those of discarded incarnations, so a run it
    passed needs only the end-state properties (ε-Agreement,
    Termination, Lemma 6) checked post hoc.  Byzantine processes are
    outside every streamed property's quantifier, as in the post-hoc
    checks.

    Wire-up: pass an instance as ``observer=`` to
    :func:`~repro.core.runner.run_convex_hull_consensus`; the runner
    calls :meth:`bind` before the run and :meth:`poll` after every
    delivery.  Each poll examines only states and views recorded since
    the previous poll — total online-checking cost over a run is
    O(states + views), the same as one post-hoc pass.
    """

    def __init__(self):
        self.polls = 0
        self.states_checked = 0
        self.views_checked = 0
        self._traces = None

    def bind(self, traces, fault_plan, config) -> "StreamingInvariantChecker":
        """Attach to the live traces of a run about to start."""
        traces = list(traces)
        self._correct_hull = ConvexPolytope.from_points(
            correct_inputs(traces, fault_plan)
        )
        # Byzantine pids are outside the quantifier of every streamed
        # property — their (honest-core) states are never checked.
        self._traces = [t for t in traces if t.pid not in fault_plan.byzantine]
        self._n = config.n
        self._f = config.f
        self._seen_states: dict[int, set[int]] = {
            t.pid: set() for t in self._traces
        }
        self._views: dict[int, frozenset] = {}
        # The correct-input hull is fixed for the run, so a state's excess
        # depends on its vertices alone: live processes record the same
        # state again and again, and each distinct one is measured once.
        self._excess_by_vertices: dict[tuple, float] = {}
        # Incarnation tracking: a restart (amnesia / late-join) clears a
        # trace's states and r_view, so the per-pid diffing state must be
        # reset too — the new incarnation is re-checked from scratch.
        self._generations: dict[int, int] = {
            t.pid: t.restarts for t in self._traces
        }
        return self

    def poll(self) -> None:
        """Check everything recorded since the last poll; raise on violation."""
        if self._traces is None:
            raise RuntimeError("poll() before bind(); attach to a run first")
        self.polls += 1
        for proc in self._traces:
            if proc.restarts != self._generations[proc.pid]:
                self._generations[proc.pid] = proc.restarts
                self._seen_states[proc.pid] = set()
                self._views.pop(proc.pid, None)
            if proc.r_view is not None and proc.pid not in self._views:
                self._check_view(proc.pid, proc.r_view)
            seen = self._seen_states[proc.pid]
            if len(proc.states) != len(seen):
                for t in sorted(set(proc.states) - seen):
                    seen.add(t)
                    self._check_state(proc.pid, t, proc.states[t])

    # ------------------------------------------------------------------
    def _check_view(self, pid: int, r_view) -> None:
        view = frozenset(r_view)
        self.views_checked += 1
        if len(view) < self._n - self._f:
            raise OnlineViolation(
                "stable-vector-liveness",
                f"process {pid} stabilised on |R_i|={len(view)} < "
                f"n-f={self._n - self._f}",
                pid=pid,
                round_index=0,
            )
        for other_pid, other in self._views.items():
            if not (view <= other or other <= view):
                raise OnlineViolation(
                    "stable-vector-containment",
                    f"views of processes {other_pid} and {pid} are not "
                    f"inclusion-comparable "
                    f"(|{other_pid}|={len(other)}, |{pid}|={len(view)})",
                    pid=pid,
                    round_index=0,
                )
        self._views[pid] = view

    def _check_state(self, pid: int, t: int, state: ConvexPolytope) -> None:
        self.states_checked += 1
        vertices = state.vertices
        key = (vertices.shape, vertices.tobytes())
        excess = self._excess_by_vertices.get(key)
        if excess is None:
            excess = _excess(vertices, self._correct_hull)
            self._excess_by_vertices[key] = excess
        if excess > INVARIANT_TOL:
            raise OnlineViolation(
                "validity",
                f"h_{pid}[{t}] exceeds the hull of correct inputs by "
                f"{excess:.6g}",
                pid=pid,
                round_index=t,
            )
