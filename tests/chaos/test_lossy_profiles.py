"""Chaos-engine coverage of the link-fault profiles.

The three transport profiles pin the contract from both sides: ``lossy``
and ``partition-heal`` must produce zero violations at legal configs
(the transport earns the channel model back), ``partition-forever`` must
*reliably* produce a termination finding via the delivery-budget abort
(graceful degradation, not a hang), and raw mode must trip the
delivery-boundary oracle (the violations are real and the transport —
not luck — is what removes them).
"""

import json

import pytest

from repro.chaos import (
    EXPECTED_VIOLATION_LABELS,
    FuzzCase,
    FuzzConfig,
    generate_case,
    make_bundle,
    outcome_fingerprint,
    replay_bundle,
    run_campaign,
    run_case,
)
from repro.chaos.generator import (
    LABEL_LOSSY,
    LABEL_PARTITION_FOREVER,
    LABEL_PARTITION_HEAL,
)
from repro.core.config import required_processes


class TestGenerator:
    @pytest.mark.parametrize(
        "profile",
        [LABEL_LOSSY, LABEL_PARTITION_HEAL, LABEL_PARTITION_FOREVER],
    )
    def test_emits_link_plans_at_legal_configs(self, profile):
        for seed in range(10):
            case = generate_case(FuzzConfig(profile=profile), seed)
            assert case.label == profile
            plan = case.link_faults
            assert plan is not None and plan.faulty
            # The process side stays at or above the Theorem 2 bound.
            assert case.n >= required_processes(case.d, case.f)
            assert case.enforce_resilience

    def test_lossy_rates_within_contract(self):
        for seed in range(20):
            case = generate_case(FuzzConfig(profile=LABEL_LOSSY), seed)
            plan = case.link_faults
            specs = [plan.default, *plan.links.values()]
            assert all(s.loss <= 0.3 and s.dup <= 0.2 for s in specs)

    def test_partition_forever_never_heals_and_keeps_processes_clean(self):
        for seed in range(10):
            case = generate_case(
                FuzzConfig(profile=LABEL_PARTITION_FOREVER), seed
            )
            plan = case.link_faults
            assert plan.links  # a cut exists
            assert all(
                heal is None
                for spec in plan.links.values()
                for (_start, heal) in spec.partitions
            )
            assert not case.fault_plan.faulty

    def test_case_json_roundtrip_with_link_faults(self):
        case = generate_case(FuzzConfig(profile=LABEL_LOSSY), 3)
        rebuilt = FuzzCase.from_json_dict(
            json.loads(json.dumps(case.to_json_dict()))
        )
        assert rebuilt == case
        assert rebuilt.link_faults == case.link_faults

    def test_legacy_case_json_still_loads(self):
        # Pre-transport bundles have no link_faults/reliable_transport keys.
        case = generate_case(FuzzConfig(profile="legal"), 0)
        data = case.to_json_dict()
        del data["link_faults"]
        del data["reliable_transport"]
        rebuilt = FuzzCase.from_json_dict(data)
        assert rebuilt.link_faults is None
        assert rebuilt.reliable_transport is True

    def test_old_profiles_unchanged_by_link_sampling(self):
        # The link-fault draws happen after all legacy draws, so legacy
        # (config, seed) pairs regenerate their historical cases.
        case = generate_case(FuzzConfig(profile="legal"), 7)
        assert case.link_faults is None
        assert case.reliable_transport


class TestOutcomes:
    @pytest.mark.parametrize("seed", range(4))
    def test_lossy_cases_pass(self, seed):
        outcome = run_case(generate_case(FuzzConfig(profile=LABEL_LOSSY), seed))
        assert outcome.status == "ok", (outcome.violation, outcome.error)

    @pytest.mark.parametrize("seed", range(3))
    def test_partition_heal_cases_pass(self, seed):
        outcome = run_case(
            generate_case(FuzzConfig(profile=LABEL_PARTITION_HEAL), seed)
        )
        assert outcome.status == "ok", (outcome.violation, outcome.error)

    @pytest.mark.parametrize("seed", range(3))
    def test_partition_forever_is_expected_termination_finding(self, seed):
        case = generate_case(
            FuzzConfig(profile=LABEL_PARTITION_FOREVER), seed
        )
        outcome = run_case(case)
        assert outcome.status == "violation"
        assert outcome.violation.kind == "termination"
        assert "budget" in outcome.violation.detail
        assert case.label in EXPECTED_VIOLATION_LABELS

    def test_raw_mode_trips_channel_contract(self):
        config = FuzzConfig(profile=LABEL_LOSSY, reliable_transport=False)
        outcome = run_case(generate_case(config, 0))
        assert outcome.status == "violation"
        assert outcome.violation.kind == "channel-contract"

    def test_lossy_violation_bundle_replays_bit_identically(self):
        config = FuzzConfig(profile=LABEL_LOSSY, reliable_transport=False)
        outcome = run_case(generate_case(config, 1))
        assert outcome.status == "violation"
        bundle = make_bundle(outcome)
        replayed, identical = replay_bundle(bundle)
        assert identical
        assert outcome_fingerprint(replayed) == outcome_fingerprint(outcome)


class TestCampaignTriage:
    def test_lossy_campaign_zero_unexpected(self):
        summary = run_campaign(
            FuzzConfig(profile=LABEL_LOSSY),
            4,
            shrink_violations=False,
        )
        assert summary.ok == 4
        assert not summary.unexpected_violations
        assert not summary.errors

    def test_partition_forever_campaign_counts_expected(self):
        summary = run_campaign(
            FuzzConfig(profile=LABEL_PARTITION_FOREVER),
            2,
            shrink_violations=False,
        )
        assert len(summary.expected_violations) == 2
        assert not summary.unexpected_violations
