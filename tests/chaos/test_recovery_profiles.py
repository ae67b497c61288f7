"""Recovery chaos profiles: sampling, triage, shrinking, bundle replay."""

import numpy as np

from repro.chaos.generator import (
    EXPECTED_VIOLATION_LABELS,
    LABEL_RECOVERY_AMNESIA,
    LABEL_RECOVERY_LEGAL,
    LABEL_RECOVERY_STORM,
    RECOVERY_LABELS,
    FuzzConfig,
    generate_case,
)
from repro.chaos.runner import outcome_fingerprint, replay_case, run_case
from repro.chaos.shrinker import _drop_pid
from repro.core.config import required_processes
from repro.runtime.faults import (
    AMNESIA,
    DURABLE,
    DURABILITY_MODES,
    CrashSpec,
    FaultPlan,
    RecoverySpec,
)


class TestSampling:
    def test_generation_is_deterministic(self):
        config = FuzzConfig(profile=LABEL_RECOVERY_LEGAL)
        assert generate_case(config, 11) == generate_case(config, 11)

    def test_every_faulty_pid_crashes_and_recovers(self):
        for profile in RECOVERY_LABELS:
            config = FuzzConfig(profile=profile)
            for seed in range(8):
                case = generate_case(config, seed)
                plan = case.fault_plan
                assert set(plan.crashes) == set(plan.faulty), (profile, seed)
                assert set(plan.recoveries) == set(plan.faulty), (profile, seed)
                for spec in plan.recoveries.values():
                    assert 1 <= spec.recover_at <= 50
                    assert spec.durability in DURABILITY_MODES

    def test_durability_matches_profile(self):
        for seed in range(8):
            legal = generate_case(
                FuzzConfig(profile=LABEL_RECOVERY_LEGAL), seed
            ).fault_plan
            assert all(
                s.durability == DURABLE for s in legal.recoveries.values()
            )
            amnesia = generate_case(
                FuzzConfig(profile=LABEL_RECOVERY_AMNESIA), seed
            ).fault_plan
            assert all(
                s.durability == AMNESIA for s in amnesia.recoveries.values()
            )

    def test_recovery_cases_stay_at_legal_n(self):
        for profile in RECOVERY_LABELS:
            for seed in range(8):
                case = generate_case(FuzzConfig(profile=profile), seed)
                assert case.n >= required_processes(case.d, case.f)
                assert case.enforce_resilience

    def test_legacy_profiles_sample_no_recoveries(self):
        # The recovery draws are appended after every legacy draw, so the
        # historical profiles regenerate their exact original cases —
        # in particular, never a recovery.
        for profile in ("legal", "below-bound", "beyond-bound", "lossy"):
            for seed in range(6):
                case = generate_case(FuzzConfig(profile=profile), seed)
                assert not case.fault_plan.recoveries

    def test_triage_labels(self):
        assert LABEL_RECOVERY_LEGAL not in EXPECTED_VIOLATION_LABELS
        assert LABEL_RECOVERY_AMNESIA in EXPECTED_VIOLATION_LABELS
        assert LABEL_RECOVERY_STORM in EXPECTED_VIOLATION_LABELS


class TestExecution:
    def test_recovery_legal_slice_has_zero_violations(self):
        # The in-repo slice of the acceptance campaign: durable recovery
        # at legal (n, f) must uphold every paper property.
        config = FuzzConfig(profile=LABEL_RECOVERY_LEGAL)
        for seed in range(10):
            outcome = run_case(generate_case(config, seed))
            assert outcome.status == "ok", (seed, outcome.violation)

    def test_durable_replay_is_fingerprint_identical(self):
        # The acceptance replay test: re-running a recovery case under
        # its recorded (plan, schedule) reproduces the execution
        # byte-for-byte — same schedule, same counters, same verdict.
        config = FuzzConfig(profile=LABEL_RECOVERY_LEGAL)
        case = generate_case(config, 3)
        recorded = run_case(case)
        assert recorded.status == "ok"
        replayed = replay_case(case, case.fault_plan, recorded.schedule)
        assert outcome_fingerprint(replayed) == outcome_fingerprint(recorded)

    def test_durable_replay_decisions_are_byte_identical(self):
        from repro.chaos.generator import build_inputs, build_scheduler
        from repro.core.runner import run_convex_hull_consensus

        case = generate_case(FuzzConfig(profile=LABEL_RECOVERY_LEGAL), 3)
        inputs, bounds = build_inputs(case)

        def execute():
            return run_convex_hull_consensus(
                inputs,
                case.f,
                case.eps,
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
    def test_drop_pid_also_drops_its_recovery(self):
        plan = FaultPlan(
            faulty=frozenset({1, 4}),
            crashes={1: CrashSpec(0, 0), 4: CrashSpec(1, 2)},
            recoveries={
                1: RecoverySpec(5, DURABLE), 4: RecoverySpec(9, AMNESIA)
            },
        )
        out = _drop_pid(plan, 4)
        assert out.faulty == {1}
        assert out.crashes == {1: CrashSpec(0, 0)}
        assert out.recoveries == {1: RecoverySpec(5, DURABLE)}
        assert set(plan.recoveries) == {1, 4}  # the input plan is untouched

    def test_shrunk_plan_objs_rebuild_as_fault_plans(self):
        # A shrunk plan reaches a bundle as JSON and comes back from it.
        case = generate_case(FuzzConfig(profile=LABEL_RECOVERY_STORM), 5)
        assert case.fault_plan.recoveries
        for pid in sorted(case.fault_plan.faulty):
            reduced = _drop_pid(case.fault_plan, pid)
            assert pid not in reduced.recoveries
            assert FaultPlan.from_json_dict(reduced.to_json_dict()) == reduced
            reduced.validate(case.n)
