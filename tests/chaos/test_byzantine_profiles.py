"""Byzantine chaos profiles: sampling, the bound gap, shrinking, replay.

The four profiles probe the crash-vs-Byzantine resilience gap from both
sides:

* ``byzantine-legal`` — BCC at ``max(3f+1, (d+2)f+1)`` with at most
  ``f`` adversaries: zero findings expected (the in-repo slice of the
  100-case acceptance campaign);
* ``byzantine-vs-crash`` — the crash algorithm at its *own* bound
  facing the same adversary: findings expected, because the crash bound
  is simply not enough against equivocation — that is the gap;
* ``byzantine-beyond-bound`` — ``f+1`` adversaries against BCC;
* ``byzantine-below-bound`` — one process short of the Byzantine bound.
"""

import numpy as np

from repro.chaos.bundle import load_bundle, make_bundle, replay_bundle, write_bundle
from repro.chaos.campaign import hunt
from repro.chaos.generator import (
    BYZANTINE_LABELS,
    EXPECTED_VIOLATION_LABELS,
    LABEL_BYZ_BELOW,
    LABEL_BYZ_BEYOND,
    LABEL_BYZ_LEGAL,
    LABEL_BYZ_VS_CRASH,
    FuzzCase,
    FuzzConfig,
    generate_case,
)
from repro.chaos.runner import outcome_fingerprint, replay_case, run_case
from repro.chaos.shrinker import _drop_pid, shrink
from repro.core.config import byzantine_required_processes, required_processes
from repro.runtime.faults import BYZANTINE_BEHAVIORS, ByzantineSpec, FaultPlan


class TestSampling:
    def test_generation_is_deterministic(self):
        for profile in BYZANTINE_LABELS + ("byzantine-mixed",):
            config = FuzzConfig(profile=profile)
            a, b = generate_case(config, 17), generate_case(config, 17)
            assert a == b, profile
            assert a.to_json_dict() == b.to_json_dict()

    def test_algorithm_field_back_compat(self):
        # Bundles written before the Byzantine axis carry no
        # ``algorithm`` key; they must load as crash-model CC cases.
        case = generate_case(FuzzConfig(profile="legal"), 3)
        obj = case.to_json_dict()
        assert obj["algorithm"] == "cc"
        del obj["algorithm"]
        assert FuzzCase.from_json_dict(obj) == case

    def test_byzantine_counts_match_profile(self):
        for seed in range(8):
            legal = generate_case(FuzzConfig(profile=LABEL_BYZ_LEGAL), seed)
            plan = legal.fault_plan
            assert 1 <= len(plan.byzantine) <= legal.f
            assert set(plan.byzantine) == set(plan.faulty)
            assert not plan.crashes
            assert legal.algorithm == "bcc"
            assert legal.n >= byzantine_required_processes(legal.d, legal.f)
            assert legal.enforce_resilience

            beyond = generate_case(FuzzConfig(profile=LABEL_BYZ_BEYOND), seed)
            assert len(beyond.fault_plan.byzantine) == min(
                beyond.f + 1, beyond.n - 1
            )
            assert not beyond.enforce_resilience

            below = generate_case(FuzzConfig(profile=LABEL_BYZ_BELOW), seed)
            assert below.n == byzantine_required_processes(below.d, below.f) - 1
            assert not below.enforce_resilience

    def test_vs_crash_runs_cc_at_the_crash_bound(self):
        # The gap probe: algorithm stays "cc", n satisfies only the
        # crash bound, and the adversary count stays within f — so the
        # runner's resilience check passes and any finding is a genuine
        # consequence of the weaker fault model.
        for seed in range(8):
            case = generate_case(FuzzConfig(profile=LABEL_BYZ_VS_CRASH), seed)
            assert case.algorithm == "cc"
            assert case.n >= required_processes(case.d, case.f)
            assert len(case.fault_plan.byzantine) <= case.f
            assert case.enforce_resilience

    def test_behavior_specs_are_well_formed(self):
        for seed in range(12):
            case = generate_case(FuzzConfig(profile="byzantine-mixed"), seed)
            for spec in case.fault_plan.byzantine.values():
                assert set(spec.behaviors) <= set(BYZANTINE_BEHAVIORS)
                assert 0 < spec.rate <= 1.0
                assert spec.magnitude > 0

    def test_legacy_profiles_sample_no_byzantine(self):
        # Byzantine draws are appended after every legacy draw, so the
        # historical profiles regenerate their exact original cases.
        for profile in ("legal", "below-bound", "lossy", "recovery-legal"):
            for seed in range(6):
                case = generate_case(FuzzConfig(profile=profile), seed)
                assert not case.fault_plan.byzantine
                assert case.algorithm == "cc"

    def test_triage_labels(self):
        assert LABEL_BYZ_LEGAL not in EXPECTED_VIOLATION_LABELS
        assert LABEL_BYZ_BELOW in EXPECTED_VIOLATION_LABELS
        assert LABEL_BYZ_BEYOND in EXPECTED_VIOLATION_LABELS
        assert LABEL_BYZ_VS_CRASH in EXPECTED_VIOLATION_LABELS


class TestExecution:
    def test_byzantine_legal_slice_has_zero_violations(self):
        # The in-repo slice of the acceptance campaign: BCC at its bound
        # with a within-bound adversary upholds every applicable
        # property.
        config = FuzzConfig(profile=LABEL_BYZ_LEGAL)
        for seed in range(8):
            outcome = run_case(generate_case(config, seed))
            assert outcome.status == "ok", (seed, outcome.violation)

    def test_vs_crash_hunt_finds_and_shrinks_the_gap(self):
        # The bound-gap headline: the crash algorithm under a Byzantine
        # adversary breaks within a small budget, and the counterexample
        # shrinks to a locally-minimal one.
        found = hunt(
            FuzzConfig(profile=LABEL_BYZ_VS_CRASH),
            budget=12,
            shrink_max_runs=120,
        )
        assert found is not None, "crash bound survived a Byzantine hunt"
        outcome, shrunk, _tried = found
        assert outcome.violation is not None
        assert shrunk is not None
        assert shrunk.violation.kind == outcome.violation.kind
        assert shrunk.schedule_len <= len(outcome.schedule)

    def test_byzantine_replay_is_fingerprint_identical(self):
        config = FuzzConfig(profile=LABEL_BYZ_LEGAL)
        case = generate_case(config, 2)
        recorded = run_case(case)
        assert recorded.status == "ok"
        replayed = replay_case(case, case.fault_plan, recorded.schedule)
        assert outcome_fingerprint(replayed) == outcome_fingerprint(recorded)

    def test_violation_bundle_round_trips_bit_identically(self, tmp_path):
        # The acceptance artifact: a Byzantine counterexample bundle
        # written to disk, loaded back, and replayed must verify.
        found = hunt(
            FuzzConfig(profile=LABEL_BYZ_VS_CRASH),
            budget=12,
            shrink_violations=False,
        )
        assert found is not None
        outcome = found[0]
        bundle = make_bundle(outcome)
        path = write_bundle(bundle, tmp_path / "byz-gap.json")
        loaded = load_bundle(path)
        replayed, verified = replay_bundle(loaded)
        assert verified
        assert outcome_fingerprint(replayed) == bundle["fingerprint"]

    def test_byzantine_decisions_are_byte_identical_across_runs(self):
        from repro.chaos.generator import build_inputs, build_scheduler
        from repro.core.runner import run_convex_hull_consensus

        case = generate_case(FuzzConfig(profile=LABEL_BYZ_LEGAL), 4)
        inputs, bounds = build_inputs(case)

        def execute():
            return run_convex_hull_consensus(
                inputs,
                case.f,
                case.eps,
                algorithm=case.algorithm,
                fault_plan=case.fault_plan,
                scheduler=build_scheduler(case),
                seed=case.scheduler_seed,
                input_bounds=bounds,
            )

        first, second = execute(), execute()
        assert sorted(first.trace.outputs()) == sorted(second.trace.outputs())
        for pid, poly in first.trace.outputs().items():
            np.testing.assert_array_equal(
                poly.vertices, second.trace.outputs()[pid].vertices
            )


class TestShrinkerThreading:
    def test_drop_pid_also_drops_its_byzantine_spec(self):
        forge = ByzantineSpec(behaviors=("forge",), rate=1.0)
        plan = FaultPlan(
            faulty=frozenset({1, 4}),
            byzantine={1: forge, 4: ByzantineSpec(behaviors=("omit",), rate=0.5)},
        )
        out = _drop_pid(plan, 4)
        assert out.faulty == {1}
        assert out.byzantine == {1: forge}
        assert set(plan.byzantine) == {1, 4}  # the input plan is untouched

    def test_shrunk_plan_objs_rebuild_as_fault_plans(self):
        # A shrunk plan reaches a bundle as JSON and comes back from it.
        case = generate_case(FuzzConfig(profile=LABEL_BYZ_BEYOND), 5)
        assert case.fault_plan.byzantine
        for pid in sorted(case.fault_plan.faulty):
            reduced = _drop_pid(case.fault_plan, pid)
            assert pid not in reduced.byzantine
            assert FaultPlan.from_json_dict(reduced.to_json_dict()) == reduced

    def test_shrink_demotes_and_strips_behaviors(self):
        # Pass 1b end to end: on a vs-crash counterexample the shrinker
        # must leave a *Byzantine* witness (demotion to plain crash
        # would mask the gap, so the demotion candidate fails and
        # behavior-dropping takes over).
        found = hunt(
            FuzzConfig(profile=LABEL_BYZ_VS_CRASH),
            budget=12,
            shrink_max_runs=150,
        )
        assert found is not None
        _outcome, shrunk, _ = found
        assert shrunk is not None
        final_byz = shrunk.plan.byzantine
        assert final_byz, "shrinker demoted every Byzantine process"
        for spec in final_byz.values():
            assert len(spec.behaviors) >= 1
