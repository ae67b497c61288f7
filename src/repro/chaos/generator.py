"""Seeded random generation over the fault space: (inputs × plans × schedules).

The paper's guarantees quantify over *every* crash pattern and delivery
schedule; hand-picked ``FaultPlan``s explore a measure-zero sliver of that
space.  This module samples it: each :class:`FuzzCase` is a fully
self-describing, JSON-safe recipe — workload, fault plan (including
mid-broadcast :class:`~repro.runtime.faults.CrashSpec`\\ s), scheduler
strategy, agreement parameter — derived deterministically from a single
integer seed, so any case the fuzzer ever ran can be regenerated
bit-for-bit from ``(config, seed)`` alone.

Three sampling profiles pin the relationship to the Theorem 2 bound
``n >= (d+2)f + 1``:

* ``legal``        — ``n`` at or above the bound, ``|F| <= f``: every
  invariant must hold; any violation is an implementation bug.
* ``below-bound``  — ``n = (d+2)f`` (one below the bound,
  ``enforce_resilience=False``): the paper *predicts* failures here
  (Lemma 2's Tverberg argument needs the bound), and the fuzzer's
  self-test demands it finds one.
* ``beyond-bound`` — legal ``n`` but ``|F| = f + 1`` actual faults: a
  probe past the model's premise, explicitly labeled so campaigns report
  these violations as *expected* findings, not bugs.

``mixed`` interleaves all three (deterministically, by seed).

Three further profiles sample the *link*-fault space (the lossy fabric
beneath the reliable transport, :mod:`repro.runtime.transport`):

* ``lossy``             — legal process config over links with loss up to
  0.3, duplication up to 0.2, delay/reorder jitter, and (half the time) a
  healing partition: the transport must earn the paper's channel model
  back, so any violation is an implementation bug.
* ``partition-heal``    — a clean partition isolating one or two
  processes for a bounded interval, then healing: again zero violations
  expected.
* ``partition-forever`` — one process partitioned away and never healed.
  Termination is *impossible* (the channel model's fairness premise is
  broken), and the run must end in the transport's delivery-budget abort
  rather than a hang — campaigns count these violations as expected.

Three *recovery* profiles sample crash-recover schedules (every faulty
process crashes and later revives, :mod:`repro.runtime.recovery`):

* ``recovery-legal``   — all recoveries durable (checkpoint-restored).
  On the structural reliable network a durable recoverer is
  indistinguishable from a slow process, so every invariant must hold;
  violations are implementation bugs.
* ``recovery-amnesia`` — all recoveries restart from scratch.  An
  amnesiac re-broadcast is equivocation-lite; safety or termination
  findings are *expected*.
* ``recovery-storm``   — per-process random durability (durable /
  amnesia / late-join) under the full scheduler pool; expected-violation
  stress tier.

Four *Byzantine* profiles probe the crash-vs-Byzantine bound gap
(``algorithm_bcc`` at ``max(3f+1, (d+2)f+1)`` vs the crash algorithm at
``(d+2)f+1``, :mod:`repro.runtime.byzantine`):

* ``byzantine-legal``        — BCC at or above the Byzantine bound with
  ``|B| <= f`` adversaries (random behavior subsets, rates, seeds; ~30%
  of cases additionally run over a frame-corrupting fabric through the
  reliable transport).  Every invariant over the *correct* processes
  must hold; any violation is an implementation bug.
* ``byzantine-below-bound``  — BCC one process below its bound: the
  round-0 trim can empty out or reliable broadcast can starve, so
  findings are expected.
* ``byzantine-beyond-bound`` — legal ``n`` but ``f + 1`` actual
  Byzantine processes: past the premise, violations expected.
* ``byzantine-vs-crash``     — the *crash* algorithm at its own (lower)
  bound facing a Byzantine adversary it was never designed for: the
  bound-gap experiment.  Validity / containment violations here are the
  predicted outcome, demonstrating why the Byzantine bound is larger.

``byzantine-mixed`` interleaves all four (0.55 / 0.15 / 0.15 / 0.15).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from ..core.config import byzantine_required_processes, required_processes
from ..core.runner import derive_bounds
from ..runtime.faults import (
    AMNESIA,
    BYZANTINE_BEHAVIORS,
    DURABLE,
    EQUIVOCATE,
    FORGE,
    LATE_JOIN,
    OMIT,
    ByzantineSpec,
    CrashSpec,
    FaultPlan,
    LinkFaultPlan,
    LinkFaultSpec,
    RecoverySpec,
)
from ..runtime.scheduler import (
    AdaptiveAdversaryScheduler,
    BurstyScheduler,
    FifoFairScheduler,
    RandomScheduler,
    Scheduler,
    TargetedDelayScheduler,
)
from ..workloads import inputs as gen

LABEL_LEGAL = "legal"
LABEL_BELOW = "below-bound"
LABEL_BEYOND = "beyond-bound"
LABEL_LOSSY = "lossy"
LABEL_PARTITION_HEAL = "partition-heal"
LABEL_PARTITION_FOREVER = "partition-forever"
LABEL_RECOVERY_LEGAL = "recovery-legal"
LABEL_RECOVERY_AMNESIA = "recovery-amnesia"
LABEL_RECOVERY_STORM = "recovery-storm"
LABEL_BYZ_LEGAL = "byzantine-legal"
LABEL_BYZ_BELOW = "byzantine-below-bound"
LABEL_BYZ_BEYOND = "byzantine-beyond-bound"
LABEL_BYZ_VS_CRASH = "byzantine-vs-crash"

PROFILES = (
    LABEL_LEGAL,
    LABEL_BELOW,
    LABEL_BEYOND,
    "mixed",
    LABEL_LOSSY,
    LABEL_PARTITION_HEAL,
    LABEL_PARTITION_FOREVER,
    LABEL_RECOVERY_LEGAL,
    LABEL_RECOVERY_AMNESIA,
    LABEL_RECOVERY_STORM,
    LABEL_BYZ_LEGAL,
    LABEL_BYZ_BELOW,
    LABEL_BYZ_BEYOND,
    LABEL_BYZ_VS_CRASH,
    "byzantine-mixed",
)

#: Profiles whose violations a campaign counts as expected findings:
#: the probes deliberately break a premise (the Theorem 2 bound, the
#: fair-lossy channel assumption, or — for the recovery probes — the
#: crash-stop assumption without durable state: an amnesiac restart can
#: equivocate across incarnations, so agreement/containment violations
#: are the *predicted* outcome, and a storm mixes durability modes on
#: top).  ``recovery-legal`` (durable state, structural network) is
#: deliberately *not* here: a durable recoverer is just a slow process,
#: so every invariant must hold and any violation is an implementation
#: bug.
EXPECTED_VIOLATION_LABELS = frozenset(
    {
        LABEL_BELOW,
        LABEL_BEYOND,
        LABEL_PARTITION_FOREVER,
        LABEL_RECOVERY_AMNESIA,
        LABEL_RECOVERY_STORM,
        LABEL_BYZ_BELOW,
        LABEL_BYZ_BEYOND,
        LABEL_BYZ_VS_CRASH,
    }
)

#: The recovery probes (crash-recover schedules in all durability modes).
RECOVERY_LABELS = (
    LABEL_RECOVERY_LEGAL,
    LABEL_RECOVERY_AMNESIA,
    LABEL_RECOVERY_STORM,
)

#: The Byzantine probes.  Only ``byzantine-legal`` demands zero findings;
#: the other three deliberately break a premise (the Byzantine bound or
#: the crash-fault assumption itself) and are in
#: :data:`EXPECTED_VIOLATION_LABELS`.
BYZANTINE_LABELS = (
    LABEL_BYZ_LEGAL,
    LABEL_BYZ_BELOW,
    LABEL_BYZ_BEYOND,
    LABEL_BYZ_VS_CRASH,
)

#: Every non-empty subset of the Byzantine behaviors, in a fixed order
#: (the generator picks one combo per adversary).
BEHAVIOR_COMBOS = (
    (EQUIVOCATE,),
    (FORGE,),
    (OMIT,),
    (EQUIVOCATE, FORGE),
    (EQUIVOCATE, OMIT),
    (FORGE, OMIT),
    BYZANTINE_BEHAVIORS,
)

#: Scheduler name -> (seed, slow pids) -> strategy instance.
SCHEDULER_BUILDERS = {
    "random": lambda seed, slow: RandomScheduler(seed=seed),
    "fifo": lambda seed, slow: FifoFairScheduler(),
    "bursty": lambda seed, slow: BurstyScheduler(seed=seed),
    "targeted": lambda seed, slow: TargetedDelayScheduler(
        slow=frozenset(slow), seed=seed
    ),
    "adaptive": lambda seed, slow: AdaptiveAdversaryScheduler(seed=seed),
}


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs of the fault-space sampler (see ``docs/FAULT_MODEL.md``).

    Two configs with equal fields generate identical case streams.
    """

    profile: str = LABEL_LEGAL
    d_choices: tuple[int, ...] = (1, 2)
    f_choices: tuple[int, ...] = (1,)
    max_extra_processes: int = 2
    workloads: tuple[str, ...] = ("gaussian", "uniform", "two-clusters", "collinear")
    schedulers: tuple[str, ...] = ("random", "bursty", "targeted", "adaptive", "fifo")
    eps_range: tuple[float, float] = (0.1, 0.4)
    crash_probability: float = 0.8
    outlier_probability: float = 0.5
    outlier_magnitude: float = 3.0
    max_crash_round: int = 2
    #: Set False to fuzz with the recovery layer bypassed: lossy cases
    #: must then trip the delivery-boundary ChannelError oracle (the
    #: negative control of the transport's end-to-end test).
    reliable_transport: bool = True

    def __post_init__(self) -> None:
        if self.profile not in PROFILES:
            raise ValueError(
                f"unknown profile {self.profile!r}; choose from {PROFILES}"
            )
        unknown_w = set(self.workloads) - set(gen.WORKLOADS)
        if unknown_w:
            raise ValueError(f"unknown workloads: {sorted(unknown_w)}")
        unknown_s = set(self.schedulers) - set(SCHEDULER_BUILDERS)
        if unknown_s:
            raise ValueError(f"unknown schedulers: {sorted(unknown_s)}")


@dataclass(frozen=True)
class FuzzCase:
    """One sampled point of the fault space, fully JSON-serialisable.

    The case carries everything needed to *rebuild* the scenario
    (``build_inputs`` / ``build_scheduler``, plus the fault and link
    plans themselves), and a repro bundle additionally pins the built
    artefacts so replays survive generator evolution.
    """

    case_id: str
    seed: int
    label: str
    n: int
    d: int
    f: int
    eps: float
    workload: str
    scheduler: str
    scheduler_seed: int
    fault_plan: FaultPlan = field(default_factory=FaultPlan)
    outlier_pids: tuple[int, ...] = ()
    outlier_magnitude: float = 3.0
    enforce_resilience: bool = True
    #: None = reliable network.
    link_faults: LinkFaultPlan | None = None
    reliable_transport: bool = True
    #: Which sibling runs the case: ``"cc"`` (crash, the default — every
    #: pre-Byzantine case deserialises to it) or ``"bcc"``.
    algorithm: str = "cc"

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "case_id": self.case_id,
            "seed": self.seed,
            "label": self.label,
            "n": self.n,
            "d": self.d,
            "f": self.f,
            "eps": self.eps,
            "workload": self.workload,
            "scheduler": self.scheduler,
            "scheduler_seed": self.scheduler_seed,
            "fault_plan": self.fault_plan.to_json_dict(),
            "outlier_pids": list(self.outlier_pids),
            "outlier_magnitude": self.outlier_magnitude,
            "enforce_resilience": self.enforce_resilience,
            "link_faults": (
                self.link_faults.to_json_dict()
                if self.link_faults is not None
                else None
            ),
            "reliable_transport": self.reliable_transport,
            "algorithm": self.algorithm,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "FuzzCase":
        return cls(
            case_id=str(data["case_id"]),
            seed=int(data["seed"]),
            label=str(data["label"]),
            n=int(data["n"]),
            d=int(data["d"]),
            f=int(data["f"]),
            eps=float(data["eps"]),
            workload=str(data["workload"]),
            scheduler=str(data["scheduler"]),
            scheduler_seed=int(data["scheduler_seed"]),
            fault_plan=FaultPlan.from_json_dict(data["fault_plan"]),
            outlier_pids=tuple(int(p) for p in data["outlier_pids"]),
            outlier_magnitude=float(data["outlier_magnitude"]),
            enforce_resilience=bool(data["enforce_resilience"]),
            link_faults=(
                LinkFaultPlan.from_json_dict(data["link_faults"])
                if data.get("link_faults") is not None
                else None
            ),
            reliable_transport=bool(data.get("reliable_transport", True)),
            algorithm=str(data.get("algorithm", "cc")),
        )


def build_inputs(case: FuzzCase) -> tuple[np.ndarray, tuple[float, float]]:
    """The case's input array and a-priori bounds, deterministically."""
    points = gen.WORKLOADS[case.workload](case.n, case.d, case.seed)
    if case.outlier_pids:
        points = gen.with_outliers(
            points,
            list(case.outlier_pids),
            magnitude=case.outlier_magnitude,
            seed=case.seed,
        )
    return points, derive_bounds(points, margin=0.1)


def build_scheduler(case: FuzzCase) -> Scheduler:
    """A fresh scheduler instance for the case's strategy."""
    slow = sorted(case.fault_plan.faulty)
    return SCHEDULER_BUILDERS[case.scheduler](case.scheduler_seed, slow)


def _pick(rng: np.random.Generator, options) -> Any:
    return options[int(rng.integers(0, len(options)))]


def generate_case(config: FuzzConfig, seed: int) -> FuzzCase:
    """Sample one :class:`FuzzCase` — pure function of (config, seed)."""
    rng = np.random.default_rng(seed)
    if config.profile == "mixed":
        # 60% legal, 20% each probe — deterministic by seed.
        roll = rng.random()
        label = LABEL_LEGAL if roll < 0.6 else (
            LABEL_BELOW if roll < 0.8 else LABEL_BEYOND
        )
    elif config.profile == "byzantine-mixed":
        # 55% legal, 15% each probe — deterministic by seed.
        roll = rng.random()
        if roll < 0.55:
            label = LABEL_BYZ_LEGAL
        elif roll < 0.70:
            label = LABEL_BYZ_BELOW
        elif roll < 0.85:
            label = LABEL_BYZ_BEYOND
        else:
            label = LABEL_BYZ_VS_CRASH
    else:
        label = config.profile

    d = int(_pick(rng, config.d_choices))
    f = int(_pick(rng, config.f_choices))
    bound = required_processes(d, f)
    byz_bound = byzantine_required_processes(d, f)
    if label in BYZANTINE_LABELS:
        # Process faults are Byzantine here (sampled at the end, after
        # every legacy draw); the crash machinery below stays idle.
        if label == LABEL_BYZ_BELOW:
            n = byz_bound - 1
        elif label == LABEL_BYZ_VS_CRASH:
            # The crash algorithm at its own (lower) bound — the whole
            # point is that this n is legal for crashes but not for the
            # adversary it is about to face.
            n = bound + int(rng.integers(0, config.max_extra_processes + 1))
        else:
            n = byz_bound + int(rng.integers(0, config.max_extra_processes + 1))
        fault_count = 0
    elif label == LABEL_BELOW:
        n = bound - 1
        fault_count = f
    elif label == LABEL_BEYOND:
        n = bound + int(rng.integers(0, config.max_extra_processes + 1))
        fault_count = f + 1
    elif label == LABEL_PARTITION_FOREVER:
        # Keep the process side clean: the only broken premise is the
        # never-healing link cut, so the inevitable delivery-budget abort
        # is attributable to exactly that.
        n = bound + int(rng.integers(0, config.max_extra_processes + 1))
        fault_count = 0
    else:
        n = bound + int(rng.integers(0, config.max_extra_processes + 1))
        fault_count = f
    fault_count = min(fault_count, n - 1)

    faulty = sorted(
        int(p) for p in rng.choice(n, size=fault_count, replace=False)
    )
    crashes: dict[int, CrashSpec] = {}
    for pid in faulty:
        if rng.random() < config.crash_probability:
            crashes[pid] = CrashSpec(
                round_index=int(rng.integers(0, config.max_crash_round + 1)),
                after_sends=int(rng.integers(0, 2 * n)),
            )
    if label == LABEL_BELOW and faulty and not crashes:
        # A below-bound probe without any crash frequently degenerates to
        # the benign schedule; force at least one mid-broadcast crash so
        # the probe actually exercises the Tverberg boundary.
        pid = faulty[0]
        crashes[pid] = CrashSpec(
            round_index=0, after_sends=int(rng.integers(0, n))
        )
    outlier_pids = tuple(
        pid for pid in faulty if rng.random() < config.outlier_probability
    )
    plan = FaultPlan(faulty=frozenset(faulty), crashes=crashes)

    lo, hi = config.eps_range
    if label in BYZANTINE_LABELS:
        # Byzantine rounds are expensive (one reliable-broadcast instance
        # per claim per round), so remap the agreement parameter upward to
        # keep t_end — and with it the RB instance count — moderate.  The
        # single draw below keeps the stream shape label-independent.
        lo, hi = 0.3, 0.6
    eps = float(np.round(lo + (hi - lo) * rng.random(), 4))
    workload = str(_pick(rng, config.workloads))
    scheduler = str(_pick(rng, config.schedulers))

    # Link-fault sampling happens last so the draw stream of the original
    # profiles is untouched — old (config, seed) pairs regenerate the
    # exact cases they always did.
    link_plan: LinkFaultPlan | None = None
    if label in (LABEL_LOSSY, LABEL_PARTITION_HEAL, LABEL_PARTITION_FOREVER):
        plan_seed = int(rng.integers(0, 2**31))
        if label == LABEL_LOSSY:
            base = LinkFaultSpec(
                loss=float(np.round(0.05 + 0.25 * rng.random(), 4)),
                dup=float(np.round(0.2 * rng.random(), 4)),
                delay=int(rng.integers(0, 5)),
                reorder=float(np.round(0.5 * rng.random(), 4)),
            )
            if rng.random() < 0.5:
                pid = int(rng.integers(0, n))
                start = int(rng.integers(0, 80))
                width = int(rng.integers(40, 400))
                link_plan = LinkFaultPlan.isolate(
                    [pid], n, start, start + width, base=base, seed=plan_seed
                )
            else:
                link_plan = LinkFaultPlan(default=base, seed=plan_seed)
        elif label == LABEL_PARTITION_HEAL:
            k = 1 if n <= 4 or rng.random() < 0.7 else 2
            pids = sorted(
                int(p) for p in rng.choice(n, size=k, replace=False)
            )
            start = int(rng.integers(0, 120))
            width = int(rng.integers(50, 500))
            mild = LinkFaultSpec(
                loss=float(np.round(0.1 * rng.random(), 4))
            )
            link_plan = LinkFaultPlan.isolate(
                pids, n, start, start + width, base=mild, seed=plan_seed
            )
        else:  # LABEL_PARTITION_FOREVER
            pid = int(rng.integers(0, n))
            start = int(rng.integers(0, 10))
            link_plan = LinkFaultPlan.isolate(
                [pid], n, start, None, seed=plan_seed
            )

    # Recovery sampling keeps the same append-only discipline: these
    # draws come after every legacy draw, so the historical profiles'
    # streams are untouched and future shared prefixes stay regenerable.
    if label in RECOVERY_LABELS:
        crashes = dict(crashes)
        recoveries: dict[int, RecoverySpec] = {}
        for pid in faulty:
            if pid not in crashes:
                # A recovery needs a crash to recover from; force one.
                crashes[pid] = CrashSpec(
                    round_index=int(
                        rng.integers(0, config.max_crash_round + 1)
                    ),
                    after_sends=int(rng.integers(0, 2 * n)),
                )
            recover_at = int(rng.integers(1, 51))
            if label == LABEL_RECOVERY_LEGAL:
                durability = DURABLE
            elif label == LABEL_RECOVERY_AMNESIA:
                durability = AMNESIA
            else:  # storm: independent per-process durability
                durability = str(_pick(rng, (DURABLE, AMNESIA, LATE_JOIN)))
            recoveries[pid] = RecoverySpec(
                recover_at=recover_at, durability=durability
            )
        plan = FaultPlan(
            faulty=frozenset(faulty), crashes=crashes, recoveries=recoveries
        )

    # Byzantine sampling, also append-only: adversary identities, behavior
    # combos, rates and engine seeds are drawn after every draw above, so
    # no historical profile's stream moves.  Byzantine probes never sample
    # recoveries (BCC's reliable-broadcast echoes are one-shot per tag, so
    # a restarted process cannot re-join its instances).
    algorithm = "cc"
    if label in BYZANTINE_LABELS:
        algorithm = "cc" if label == LABEL_BYZ_VS_CRASH else "bcc"
        byz_count = f + 1 if label == LABEL_BYZ_BEYOND else f
        byz_count = min(byz_count, n - 1)
        byz_pids = sorted(
            int(p) for p in rng.choice(n, size=byz_count, replace=False)
        )
        byz = {}
        for pid in byz_pids:
            byz[pid] = ByzantineSpec(
                behaviors=tuple(_pick(rng, BEHAVIOR_COMBOS)),
                rate=float(np.round(0.5 + 0.5 * rng.random(), 4)),
                magnitude=float(np.round(2.0 + 4.0 * rng.random(), 4)),
                seed=int(rng.integers(0, 2**31)),
            )
        plan = FaultPlan(faulty=frozenset(byz_pids), byzantine=byz)
        if label == LABEL_BYZ_LEGAL and rng.random() < 0.3:
            # A slice of the legal tier runs over a frame-corrupting
            # fabric: checksums + retransmission must absorb the
            # corruption, so these cases still demand zero findings.
            plan_seed = int(rng.integers(0, 2**31))
            link_plan = LinkFaultPlan(
                default=LinkFaultSpec(
                    corrupt=float(np.round(0.05 + 0.2 * rng.random(), 4)),
                ),
                seed=plan_seed,
            )

    return FuzzCase(
        case_id=f"{label}-s{seed}",
        seed=int(seed),
        label=label,
        n=n,
        d=d,
        f=f,
        eps=eps,
        workload=workload,
        scheduler=scheduler,
        scheduler_seed=int(seed),
        fault_plan=plan,
        outlier_pids=outlier_pids,
        outlier_magnitude=config.outlier_magnitude,
        enforce_resilience=label
        not in (LABEL_BELOW, LABEL_BYZ_BELOW, LABEL_BYZ_BEYOND),
        link_faults=link_plan,
        reliable_transport=config.reliable_transport,
        algorithm=algorithm,
    )
