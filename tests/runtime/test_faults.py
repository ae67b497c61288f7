"""Unit tests for crash specs and fault plans."""

import pytest

from repro.runtime.faults import CrashSpec, FaultPlan, RecoverySpec


class TestCrashSpec:
    def test_valid(self):
        spec = CrashSpec(round_index=2, after_sends=3)
        assert spec.round_index == 2

    def test_negative_round(self):
        with pytest.raises(ValueError):
            CrashSpec(round_index=-1)

    def test_negative_sends(self):
        with pytest.raises(ValueError):
            CrashSpec(round_index=0, after_sends=-1)


class TestFaultPlan:
    def test_none(self):
        plan = FaultPlan.none()
        assert not plan.faulty
        assert plan.crash_spec(0) is None

    def test_crash_at(self):
        plan = FaultPlan.crash_at({3: (1, 2), 5: (0, 0)})
        assert plan.faulty == {3, 5}
        assert plan.crash_spec(3) == CrashSpec(round_index=1, after_sends=2)
        assert plan.crash_spec(4) is None

    def test_silent_faulty(self):
        plan = FaultPlan.silent_faulty([1, 2])
        assert plan.faulty == {1, 2}
        assert plan.crash_spec(1) is None
        assert plan.incorrect == {1, 2}

    def test_crash_spec_for_nonfaulty_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(faulty=frozenset({1}), crashes={2: CrashSpec(0)})

    def test_incorrect_subset_of_faulty(self):
        with pytest.raises(ValueError):
            FaultPlan(
                faulty=frozenset({1}),
                incorrect_inputs=frozenset({1, 2}),
            )

    def test_incorrect_defaults_to_all_faulty(self):
        plan = FaultPlan.crash_at({1: (0, 0)})
        assert plan.incorrect == {1}

    def test_crash_with_correct_inputs_variant(self):
        # The paper's "crash faults with correct inputs" extension can be
        # expressed: faulty processes whose inputs stay correct.
        plan = FaultPlan(
            faulty=frozenset({1}),
            crashes={1: CrashSpec(1, 0)},
            incorrect_inputs=frozenset(),
        )
        assert plan.incorrect == frozenset()


class TestFaultPlanJson:
    def test_round_trip(self):
        plan = FaultPlan(
            faulty=frozenset({1, 4}),
            crashes={1: CrashSpec(0, 3), 4: CrashSpec(2, 0)},
            incorrect_inputs=frozenset({4}),
            recoveries={4: RecoverySpec(7, "amnesia")},
        )
        assert FaultPlan.from_json_dict(plan.to_json_dict()) == plan

    def test_archive_without_recoveries_or_byzantine_loads(self):
        # The plan format written before the crash-recovery and Byzantine
        # extensions: neither key is present.
        plan = FaultPlan.from_json_dict(
            {
                "faulty": [2, 5],
                "crashes": {"5": [1, 4]},
                "incorrect_inputs": None,
            }
        )
        assert plan == FaultPlan(
            faulty=frozenset({2, 5}), crashes={5: CrashSpec(1, 4)}
        )
        assert plan.recoveries == {} and plan.byzantine == {}
