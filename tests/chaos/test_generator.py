"""Fuzz-case generation: determinism, JSON round-trips, profile semantics."""

import json

import numpy as np
import pytest

from repro.chaos import (
    LABEL_BELOW,
    LABEL_BEYOND,
    LABEL_LEGAL,
    FuzzCase,
    FuzzConfig,
    build_inputs,
    build_scheduler,
    generate_case,
)
from repro.core.config import required_processes
from repro.runtime.scheduler import Scheduler
from repro.workloads.inputs import WORKLOADS


class TestDeterminism:
    def test_same_seed_same_case(self):
        config = FuzzConfig(profile="mixed")
        for seed in range(20):
            a = generate_case(config, seed)
            b = generate_case(config, seed)
            assert a == b
            assert a.to_json_dict() == b.to_json_dict()

    def test_different_seeds_differ(self):
        config = FuzzConfig(profile="mixed")
        cases = {json.dumps(generate_case(config, s).to_json_dict(), sort_keys=True)
                 for s in range(30)}
        assert len(cases) == 30  # case_id embeds the seed at minimum

    def test_inputs_deterministic(self):
        config = FuzzConfig(profile=LABEL_LEGAL)
        case = generate_case(config, 5)
        points_a, bounds_a = build_inputs(case)
        points_b, bounds_b = build_inputs(case)
        np.testing.assert_array_equal(points_a, points_b)
        assert bounds_a == bounds_b


class TestJsonRoundTrip:
    def test_case_round_trip(self):
        config = FuzzConfig(profile="mixed")
        for seed in range(10):
            case = generate_case(config, seed)
            wire = json.loads(json.dumps(case.to_json_dict()))
            assert FuzzCase.from_json_dict(wire) == case


class TestProfiles:
    def test_legal_cases_respect_bound(self):
        config = FuzzConfig(profile=LABEL_LEGAL)
        for seed in range(25):
            case = generate_case(config, seed)
            assert case.label == LABEL_LEGAL
            assert case.n >= required_processes(case.d, case.f)
            assert len(case.fault_plan.faulty) <= case.f
            assert case.enforce_resilience

    def test_below_bound_cases_sit_one_below(self):
        config = FuzzConfig(profile=LABEL_BELOW)
        for seed in range(25):
            case = generate_case(config, seed)
            assert case.n == required_processes(case.d, case.f) - 1
            assert not case.enforce_resilience
            # The probe must actually stress the boundary: at least one
            # crash whenever any process is faulty.
            if case.fault_plan.faulty:
                assert case.fault_plan.crashes

    def test_beyond_bound_cases_exceed_f(self):
        config = FuzzConfig(profile=LABEL_BEYOND)
        for seed in range(25):
            case = generate_case(config, seed)
            assert case.n >= required_processes(case.d, case.f)
            assert len(case.fault_plan.faulty) == min(case.f + 1, case.n - 1)

    def test_mixed_profile_emits_all_labels(self):
        config = FuzzConfig(profile="mixed")
        labels = {generate_case(config, s).label for s in range(60)}
        assert labels == {LABEL_LEGAL, LABEL_BELOW, LABEL_BEYOND}


class TestValidation:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            FuzzConfig(profile="chaotic-evil")

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="workload"):
            FuzzConfig(workloads=("gaussian", "nope"))

    def test_every_registered_workload_builds(self):
        # The fuzzer reads the same registry as ``repro consensus
        # --workload``, ``identical`` included.
        config = FuzzConfig(workloads=tuple(WORKLOADS))
        for seed in range(12):
            case = generate_case(config, seed)
            points, _bounds = build_inputs(case)
            assert points.shape == (case.n, case.d)

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="scheduler"):
            FuzzConfig(schedulers=("random", "nope"))

    def test_built_plan_is_validated(self):
        config = FuzzConfig(profile="mixed")
        for seed in range(10):
            case = generate_case(config, seed)
            plan = case.fault_plan.validate(case.n)
            assert set(plan.crashes) <= set(plan.faulty)
            assert all(0 <= pid < case.n for pid in plan.faulty)

    def test_built_scheduler_is_a_scheduler(self):
        config = FuzzConfig(profile="mixed")
        for seed in range(10):
            sched = build_scheduler(generate_case(config, seed))
            assert isinstance(sched, Scheduler)
