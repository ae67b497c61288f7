"""The certified excess against the projection-only reference.

In d >= 2, ``core/invariants.py::_excess`` projects only the vertices the
target's H-rep cannot certify; in d = 1 it clamps every point at once.
These tests compare the reports of ``check_validity`` and
``check_optimality`` with the ones the reference
(``tests/oracles/invariants.py``, which projects every vertex) gives on
real runs, and the two excesses on degenerate, far-from-origin and 1-d
targets.
"""

from unittest import mock

import numpy as np
import pytest

from repro.chaos import FuzzConfig, generate_case
from repro.chaos.generator import build_inputs, build_scheduler
from repro.core import invariants
from repro.core.invariants import check_optimality, check_validity
from repro.core.runner import run_convex_hull_consensus
from repro.geometry.polytope import ConvexPolytope
from repro.geometry.tolerances import INVARIANT_TOL
from repro.runtime.faults import FaultPlan, LinkFaultPlan
from repro.runtime.messages import InputTuple
from repro.runtime.scheduler import AdaptiveAdversaryScheduler, RandomScheduler
from repro.runtime.tracing import ExecutionTrace, ProcessTrace
from repro.workloads import inputs as gen
from repro.workloads.scenarios import outlier_attack
from tests.oracles import invariants as reference


def _fields(report):
    return (report.checked_states, report.violations, report.worst_excess)


def _assert_reports_match(trace):
    """Validity and Lemma 6 reports equal the reference's, field by field."""
    validity = check_validity(trace)
    optimality = check_optimality(trace)
    with mock.patch.object(invariants, "_excess", reference.excess):
        ref_validity = check_validity(trace)
        ref_optimality = check_optimality(trace)
    assert _fields(validity) == _fields(ref_validity)
    assert validity.adversary_states == ref_validity.adversary_states
    assert _fields(optimality) == _fields(ref_optimality)
    return validity


def _first_rounds(trace, last):
    """``trace`` with every state after round ``last`` dropped.  The
    reference projects every vertex: on a whole ``byzantine-vs-crash``
    run with findings it takes 10-50 s, on a whole 3-d run ~9 s."""
    for proc in trace.processes:
        proc.states = {t: s for t, s in proc.states.items() if t <= last}
    return trace


def _crash_adaptive(seed):
    return run_convex_hull_consensus(
        gen.uniform_box(5, 2, seed=seed),
        1,
        0.1,
        fault_plan=FaultPlan.crash_at({4: (0, 2)}),
        scheduler=AdaptiveAdversaryScheduler(seed=seed),
        seed=seed,
    )


def _outlier_attack(seed):
    sc = outlier_attack(n=5, d=2, f=1, eps=0.1, seed=seed)
    return run_convex_hull_consensus(
        sc.inputs,
        sc.f,
        sc.eps,
        fault_plan=sc.fault_plan,
        scheduler=sc.scheduler,
        seed=seed,
        input_bounds=sc.input_bounds,
    )


class TestRealRuns:
    @pytest.mark.parametrize("seed", [1, 5])
    def test_crash_adaptive(self, seed):
        _assert_reports_match(_crash_adaptive(seed).trace)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_outlier_attack(self, seed):
        _assert_reports_match(_outlier_attack(seed).trace)

    @pytest.mark.parametrize("seed", [0, 4])
    def test_lossy_1d(self, seed):
        """The ``lossy-1d`` perfbench workload: n=8, d=1, f=2 over lossy links."""
        result = run_convex_hull_consensus(
            gen.uniform_box(8, 1, seed=seed),
            2,
            0.05,
            scheduler=RandomScheduler(seed=seed),
            seed=seed,
            link_faults=LinkFaultPlan.uniform(
                loss=0.2, dup=0.05, reorder=0.1, delay=2, seed=seed
            ),
        )
        assert result.trace.dim == 1
        assert _assert_reports_match(result.trace).checked_states > 0

    def test_3d_run(self):
        result = run_convex_hull_consensus(
            gen.uniform_box(6, 3, seed=4),
            1,
            0.3,
            fault_plan=FaultPlan.crash_at({5: (1, 2)}),
            seed=4,
        )
        assert result.trace.dim == 3
        _assert_reports_match(_first_rounds(result.trace, 2))

    def test_byzantine_vs_crash_findings(self):
        """Crash-model CC under a Byzantine adversary, run without the
        streaming checker, so every validity finding is reported."""
        config = FuzzConfig(profile="byzantine-vs-crash", d_choices=(2,))
        with_findings = 0
        for seed in (1, 6):
            case = generate_case(config, seed)
            inputs, bounds = build_inputs(case)
            result = run_convex_hull_consensus(
                inputs,
                case.f,
                case.eps,
                fault_plan=case.fault_plan.validate(case.n),
                scheduler=build_scheduler(case),
                seed=case.scheduler_seed,
                input_bounds=bounds,
                enforce_resilience=case.enforce_resilience,
                link_faults=case.link_faults,
                algorithm=case.algorithm,
            )
            validity = _assert_reports_match(_first_rounds(result.trace, 1))
            with_findings += bool(validity.violations)
        assert with_findings == 2


def _off_hull(target, direction, distance=1e-3):
    """A point ``distance`` beyond ``target`` along the unit ``direction``."""
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    return target.support_point(direction) + distance * direction


class TestDegenerateTargets:
    """Equality pairs rarely certify, so these targets mostly fall back to
    projection; a point 1e-3 off must report its excess either way."""

    TARGETS = {
        "segment-2d": ([[0.0, 0.0], [1.0, 0.5]], [-1.0, 2.0]),
        "point-2d": ([[0.3, -0.7]], [1.0, 1.0]),
        "flat-triangle-3d": (
            [[0.0, 0.0, 0.2], [1.0, 0.0, 0.2], [0.0, 1.0, 0.2]],
            [0.0, 0.0, 1.0],
        ),
    }

    @pytest.mark.parametrize("name", sorted(TARGETS))
    def test_off_point_reports_its_excess(self, name):
        vertices, normal = self.TARGETS[name]
        target = ConvexPolytope.from_points(vertices)
        assert target.affine_dim < target.dim
        inside = np.random.default_rng(0).dirichlet(
            np.ones(target.num_vertices), size=4
        ) @ target.vertices
        points = np.vstack([target.vertices, inside, _off_hull(target, normal)])
        got = invariants._excess(points, target)
        assert got == reference.excess(points, target)
        assert got == pytest.approx(1e-3, rel=1e-6)
        assert invariants._excess(points[:-1], target) <= INVARIANT_TOL


class TestFarFromOrigin:
    """Hulls translated to 1e6.  The d >= 2 projection is unreliable
    there: it puts interior points up to ~1 away from the hull, so the
    reference would flag them.  Certification answers 0 for them, and a
    point 1e-3 off is still projected, so it keeps the reference's excess
    and is reported."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_translated_hull(self, dim, seed):
        rng = np.random.default_rng(seed)
        target = ConvexPolytope.from_points(rng.uniform(-1, 1, (7, dim)) + 1e6)
        weights = rng.dirichlet(np.ones(target.num_vertices), size=5)
        inside = np.vstack([target.vertices, weights @ target.vertices])
        assert invariants._excess(inside, target) == 0.0
        off = _off_hull(target, rng.normal(size=dim))
        got = invariants._excess(np.vstack([inside, off]), target)
        assert got == reference.excess([off], target)
        assert got >= 1e-3 - 1e-9

    def test_translated_run_has_no_false_finding(self):
        """A ``crash-adaptive`` run translated to 1e6 is valid.  The
        reference flags every one of its 328 states (excess up to 0.56);
        the certified excess flags none."""
        result = run_convex_hull_consensus(
            gen.uniform_box(5, 2, seed=1) + 1e6,
            1,
            0.1,
            fault_plan=FaultPlan.crash_at({4: (0, 2)}),
            scheduler=AdaptiveAdversaryScheduler(seed=1),
            seed=1,
        )
        report = check_validity(result.trace)
        assert report.checked_states == 328
        assert report.ok, report.violations[:3]


def _interval_case(rng):
    """Random 1-d ``(points, target)``: an interval or a single vertex,
    often translated to +-1e6, and points inside, outside, on the
    endpoints and one ulp either side of them."""
    shift = rng.choice([0.0, 1e6, -1e6])
    count = 1 if rng.random() < 0.25 else int(rng.integers(2, 6))
    target = ConvexPolytope.from_points(shift + rng.uniform(-1, 1, (count, 1)))
    lo, hi = target.bounding_box
    ends = [
        value
        for end in (lo[0], hi[0])
        for value in (end, np.nextafter(end, -np.inf), np.nextafter(end, np.inf))
    ]
    picked = rng.choice(ends, size=int(rng.integers(0, 7)))
    spread = shift + rng.uniform(-2, 2, int(rng.integers(1, 8)))
    points = rng.permutation(np.concatenate([picked, spread]))
    return points[:, None], target


class TestInterval:
    """d = 1: one vectorised clamp for all points, bit for bit the
    reference's per-point projection."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_bit_for_bit(self, seed):
        for case in range(250):
            points, target = _interval_case(np.random.default_rng([seed, case]))
            got = invariants._excess(points, target)
            assert type(got) is float
            assert got.hex() == reference.excess(points, target).hex()

    @pytest.mark.parametrize(
        "vertices, points",
        [
            ([[-0.0], [1.0]], [[0.0]]),
            ([[-0.0], [1.0]], [[0.0], [-0.0]]),
            ([[0.0]], [[-0.0], [0.0]]),
            ([[2.5]], [[2.5]]),
            ([[-3.0], [-1.0]], [[-3.0], [-1.0], [-2.0]]),
        ],
    )
    def test_signed_zeros_and_endpoints(self, vertices, points):
        target = ConvexPolytope.from_points(vertices)
        got = invariants._excess(points, target)
        assert got.hex() == reference.excess(points, target).hex() == (0.0).hex()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_raises(self, bad):
        target = ConvexPolytope.from_points([[0.0], [1.0]])
        with pytest.raises(ValueError, match="finite"):
            invariants._excess([[0.5], [bad]], target)

    @pytest.mark.parametrize("points", [[], np.zeros((0, 1))])
    def test_no_points(self, points):
        target = ConvexPolytope.from_points([[0.0], [1.0]])
        assert invariants._excess(points, target) == 0.0


def _trace_with_state(state, inputs):
    n = len(inputs)
    procs = []
    for pid in range(n):
        proc = ProcessTrace(pid=pid, input_point=np.asarray(inputs[pid]))
        proc.states = {1: state}
        proc.decided = True
        proc.r_view = tuple(
            InputTuple(value=tuple(map(float, inputs[k])), sender=k)
            for k in range(n)
        )
        procs.append(proc)
    return ExecutionTrace(
        n=n,
        f=1,
        dim=2,
        eps=0.1,
        t_end=1,
        fault_plan=FaultPlan.none(),
        seed=0,
        scheduler_name="synthetic",
        processes=procs,
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_raises(bad):
    """``from_trusted_vertices`` does not check finiteness; the excess must
    project a non-finite vertex, and the projection raises."""
    state = ConvexPolytope.from_trusted_vertices(
        [[0.2, 0.2], [bad, 0.4], [0.4, 0.6]], dim=2
    )
    inputs = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]]
    with pytest.raises(ValueError, match="finite"):
        check_validity(_trace_with_state(state, inputs))
