"""``FaultPlan.validate``: malformed plans fail fast, not deep in a run."""

import numpy as np
import pytest

from repro.core.runner import run_convex_hull_consensus
from repro.runtime.faults import ByzantineSpec, CrashSpec, FaultPlan


class TestConstructionChecks:
    def test_crash_for_non_faulty_process_rejected(self):
        with pytest.raises(ValueError, match="non-faulty"):
            FaultPlan(faulty=frozenset({1}), crashes={2: CrashSpec(0, 0)})

    def test_incorrect_inputs_must_be_faulty(self):
        with pytest.raises(ValueError, match="non-faulty"):
            FaultPlan(faulty=frozenset({1}), incorrect_inputs=frozenset({3}))

    def test_valid_plan_constructs(self):
        plan = FaultPlan(faulty=frozenset({1}), crashes={1: CrashSpec(2, 3)})
        assert plan.validate() is plan


class TestRangeChecks:
    def test_pid_out_of_range_detected_with_n(self):
        plan = FaultPlan(faulty=frozenset({9}))
        with pytest.raises(ValueError, match=r"faulty pids \[9\]"):
            plan.validate(5)
        # Without n the plan is internally consistent.
        assert plan.validate() is plan

    def test_negative_pid_detected(self):
        plan = FaultPlan(faulty=frozenset({-1}))
        with pytest.raises(ValueError, match="outside the system"):
            plan.validate(5)

    def test_in_range_plan_passes(self):
        plan = FaultPlan.crash_at({4: (0, 1)})
        assert plan.validate(5) is plan


class TestRevalidation:
    def test_mutated_crash_dict_caught_on_revalidation(self):
        # ``crashes`` is a mutable dict; a plan corrupted after
        # construction must still be caught when the simulator
        # re-validates.
        plan = FaultPlan(faulty=frozenset({1}), crashes={1: CrashSpec(0, 0)})
        plan.crashes[3] = CrashSpec(0, 0)
        with pytest.raises(ValueError, match="non-faulty"):
            plan.validate()

    def test_non_crashspec_entry_caught(self):
        plan = FaultPlan(faulty=frozenset({1}), crashes={1: CrashSpec(0, 0)})
        plan.crashes[1] = (0, 0)  # tuple instead of CrashSpec
        with pytest.raises(ValueError, match="expected CrashSpec"):
            plan.validate()


class TestSimulatorIntegration:
    def test_run_rejects_out_of_range_plan(self):
        rng = np.random.default_rng(0)
        inputs = rng.uniform(-1.0, 1.0, size=(5, 1))
        plan = FaultPlan(faulty=frozenset({9}))
        with pytest.raises(ValueError, match="outside the system"):
            run_convex_hull_consensus(
                inputs, 1, 0.2, fault_plan=plan, enforce_resilience=False
            )


class TestRecoveryChecks:
    def test_recovery_without_crash_rejected(self):
        from repro.runtime.faults import RecoverySpec

        with pytest.raises(ValueError, match="never crash"):
            FaultPlan(
                faulty=frozenset({1}),
                crashes={1: CrashSpec(0, 0)},
                recoveries={2: RecoverySpec(recover_at=5)},
            )

    def test_non_recoveryspec_entry_caught(self):
        plan = FaultPlan.crash_recover({1: (0, 0, 5)})
        plan.recoveries[1] = (5, "durable")  # tuple instead of RecoverySpec
        with pytest.raises(ValueError, match="expected RecoverySpec"):
            plan.validate()

    def test_recover_at_must_be_positive(self):
        from repro.runtime.faults import RecoverySpec

        with pytest.raises(ValueError, match="recover_at"):
            RecoverySpec(recover_at=0)

    def test_unknown_durability_rejected(self):
        from repro.runtime.faults import RecoverySpec

        with pytest.raises(ValueError, match="durability"):
            RecoverySpec(recover_at=3, durability="forgetful")

    def test_crash_recover_constructor(self):
        from repro.runtime.faults import AMNESIA

        plan = FaultPlan.crash_recover(
            {2: (0, 1, 4), 3: (1, 0, 9)}, durability=AMNESIA
        )
        assert plan.validate(5) is plan
        assert plan.recovery_spec(2).recover_at == 4
        assert plan.recovery_spec(3).durability == AMNESIA
        assert not plan.has_durable_recovery

    def test_has_durable_recovery(self):
        plan = FaultPlan.crash_recover({2: (0, 1, 4)})
        assert plan.has_durable_recovery


class TestByzantineChecks:
    """Coherence of the Byzantine fault axis (crash/Byzantine/bound)."""

    def test_byzantine_for_non_faulty_process_rejected(self):
        with pytest.raises(ValueError, match="non-faulty"):
            FaultPlan(faulty=frozenset({1}), byzantine={2: ByzantineSpec()})

    def test_both_crashed_and_byzantine_rejected(self):
        with pytest.raises(ValueError, match="both crashed and Byzantine"):
            FaultPlan(
                faulty=frozenset({1}),
                crashes={1: CrashSpec(0, 0)},
                byzantine={1: ByzantineSpec()},
            )

    def test_crash_and_byzantine_on_distinct_pids_allowed(self):
        plan = FaultPlan(
            faulty=frozenset({1, 2}),
            crashes={1: CrashSpec(0, 0)},
            byzantine={2: ByzantineSpec()},
        )
        assert plan.validate(5) is plan

    def test_non_byzantinespec_entry_caught(self):
        plan = FaultPlan.byzantine_at([1])
        plan.byzantine[1] = "equivocate"  # string instead of ByzantineSpec
        with pytest.raises(ValueError, match="expected ByzantineSpec"):
            plan.validate()

    def test_count_above_f_rejected_only_with_f(self):
        plan = FaultPlan.byzantine_at([0, 1])
        with pytest.raises(ValueError, match="exceed the configured"):
            plan.validate(7, f=1)
        # Without f the count is deliberately unchecked — beyond-bound
        # probes construct exactly this plan on purpose.
        assert plan.validate(7) is plan

    def test_below_byzantine_bound_rejected(self):
        plan = FaultPlan.byzantine_at([0])
        # d=1, f=1: max(3f+1, (d+2)f+1) = 4.
        with pytest.raises(ValueError, match="Byzantine resilience bound"):
            plan.validate(3, dim=1, f=1)
        assert plan.validate(4, dim=1, f=1) is plan

    def test_count_checked_without_dim(self):
        # The crash algorithm under a Byzantine plan (the bound-gap
        # probe) gets the count check but not the BCC bound check.
        plan = FaultPlan.byzantine_at([0, 1])
        with pytest.raises(ValueError, match="exceed the configured"):
            plan.validate(4, f=1)

    def test_empty_behaviors_rejected(self):
        with pytest.raises(ValueError, match="at least one behavior"):
            ByzantineSpec(behaviors=())

    def test_unknown_behavior_rejected(self):
        with pytest.raises(ValueError, match="unknown Byzantine behaviors"):
            ByzantineSpec(behaviors=("lie",))

    def test_rate_bounds(self):
        with pytest.raises(ValueError, match="rate"):
            ByzantineSpec(rate=0.0)
        with pytest.raises(ValueError, match="rate"):
            ByzantineSpec(rate=1.5)

    def test_spec_json_roundtrip(self):
        spec = ByzantineSpec(behaviors=("forge",), rate=0.5, magnitude=3.0, seed=9)
        assert ByzantineSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_runner_rejects_beyond_bound_byzantine_count(self):
        rng = np.random.default_rng(0)
        inputs = rng.uniform(-1.0, 1.0, size=(4, 1))
        plan = FaultPlan.byzantine_at([0, 1])
        with pytest.raises(ValueError, match="exceed the configured"):
            run_convex_hull_consensus(
                inputs, 1, 0.3, fault_plan=plan, algorithm="bcc"
            )

    @pytest.mark.parametrize("entry", ["runner", "lockstep", "asyncio"])
    def test_every_entry_point_rejects_beyond_bound_byzantine_count(self, entry):
        from repro.runtime.asyncio_runtime import run_asyncio_consensus
        from repro.runtime.lockstep import run_lockstep_consensus

        run = {
            "runner": run_convex_hull_consensus,
            "lockstep": run_lockstep_consensus,
            "asyncio": run_asyncio_consensus,
        }[entry]
        inputs = np.random.default_rng(0).uniform(-1.0, 1.0, size=(4, 1))
        plan = FaultPlan.byzantine_at([2, 3])
        with pytest.raises(
            ValueError,
            match="2 Byzantine processes exceed the configured tolerance f=1",
        ):
            run(inputs, 1, 0.4, fault_plan=plan, algorithm="bcc")

    def test_runner_rejects_bcc_below_bound_n(self):
        from repro.core.config import ResilienceError

        rng = np.random.default_rng(0)
        inputs = rng.uniform(-1.0, 1.0, size=(3, 1))
        with pytest.raises(ResilienceError):
            run_convex_hull_consensus(inputs, 1, 0.3, algorithm="bcc")

    def test_bcc_rejects_recovery_plans(self):
        rng = np.random.default_rng(0)
        inputs = rng.uniform(-1.0, 1.0, size=(4, 1))
        plan = FaultPlan.crash_recover({1: (0, 0, 5)})
        with pytest.raises(ValueError, match="crash-recovery"):
            run_convex_hull_consensus(
                inputs, 1, 0.3, fault_plan=plan, algorithm="bcc"
            )
