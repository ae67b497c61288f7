"""Chaos engine: randomized fault-space fuzzing for Algorithm CC.

The paper proves its properties for *every* execution allowed by the
model; the rest of the repo checks hand-picked executions.  This package
closes the gap stochastically:

* :mod:`~repro.chaos.generator` — seeded random scenarios (inputs ×
  fault plans × schedulers), with explicit ``below-bound`` and
  ``beyond-bound`` probe profiles around the Theorem 2 resilience bound,
  plus ``lossy`` / ``partition-heal`` / ``partition-forever`` profiles
  over the link-fault space of the lossy fabric + reliable transport;
* :mod:`~repro.chaos.runner` — one-case execution with streaming
  invariant checking and full schedule recording;
* :mod:`~repro.chaos.shrinker` — delta-debugging of violations down to
  locally-minimal counterexamples;
* :mod:`~repro.chaos.bundle` — self-contained repro bundles that replay
  bit-identically (``repro fuzz --replay bundle.json``);
* :mod:`~repro.chaos.campaign` — sharded, checkpointed campaigns on the
  parallel experiment engine, with expected/unexpected triage.
"""

from .bundle import (
    BUNDLE_FORMAT,
    load_bundle,
    make_bundle,
    replay_bundle,
    write_bundle,
)
from .campaign import (
    FUZZ_CELL_RUNNER,
    CampaignSummary,
    campaign_tasks,
    fuzz_cell,
    hunt,
    run_campaign,
)
from .generator import (
    EXPECTED_VIOLATION_LABELS,
    LABEL_BELOW,
    LABEL_BEYOND,
    LABEL_LEGAL,
    LABEL_LOSSY,
    LABEL_PARTITION_FOREVER,
    LABEL_PARTITION_HEAL,
    PROFILES,
    SCHEDULER_BUILDERS,
    FuzzCase,
    FuzzConfig,
    build_inputs,
    build_scheduler,
    generate_case,
)
from .runner import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_VIOLATION,
    FuzzOutcome,
    ViolationRecord,
    outcome_fingerprint,
    replay_case,
    run_case,
)
from .shrinker import ShrinkResult, shrink

__all__ = [
    "BUNDLE_FORMAT",
    "CampaignSummary",
    "FUZZ_CELL_RUNNER",
    "FuzzCase",
    "FuzzConfig",
    "FuzzOutcome",
    "EXPECTED_VIOLATION_LABELS",
    "LABEL_BELOW",
    "LABEL_BEYOND",
    "LABEL_LEGAL",
    "LABEL_LOSSY",
    "LABEL_PARTITION_FOREVER",
    "LABEL_PARTITION_HEAL",
    "PROFILES",
    "SCHEDULER_BUILDERS",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_VIOLATION",
    "ShrinkResult",
    "ViolationRecord",
    "build_inputs",
    "build_scheduler",
    "campaign_tasks",
    "fuzz_cell",
    "generate_case",
    "hunt",
    "load_bundle",
    "make_bundle",
    "outcome_fingerprint",
    "replay_bundle",
    "replay_case",
    "run_campaign",
    "run_case",
    "shrink",
    "write_bundle",
]
