"""Crash-fault injection: the paper's "crash faults with incorrect inputs".

In this fault model (Section 1) each *faulty* process

* holds an **incorrect input** (it executes the algorithm faithfully on a
  value that is not a correct input), and
* may **crash** at an arbitrary point - including *mid-broadcast*, having
  delivered its current message to only a prefix of the recipients.  The
  mid-broadcast case is the hard one: it is exactly what the stable-vector
  primitive and the n-f thresholds must tolerate.

A :class:`CrashSpec` pins down when a process dies: in which protocol round
and after how many individual sends within that round.  A
:class:`FaultPlan` bundles the faulty set, their crash specs, and which of
them have incorrect inputs (all of them, in this model; the class still
tracks the flag so the crash-with-*correct*-inputs variant mentioned in the
paper's introduction can be expressed by experiments).

The crash-stop model extends to **crash-recovery**: a crashed process may
carry a :class:`RecoverySpec` and restart ``recover_at`` delivery steps
after its crash, in one of three durability modes (``durable`` — restore
from checkpoint, ``amnesia`` — rejoin with only the initial input,
``late-join`` — rejoin with nothing).  ``FaultPlan.validate`` rejects
incoherent schedules: recoveries without a crash spec, or a recovery at
or before the crash instant.

The model extends further to **Byzantine faults**: a process carrying a
:class:`ByzantineSpec` runs the honest protocol core but lies on the
wire — its outgoing payloads are mutated per destination by a seeded
adversary (:mod:`repro.runtime.byzantine`) that can *equivocate* (send
different values to different peers), *forge* (replace values with
off-hull fabrications), and *omit* (selectively drop sends).  Byzantine
pids are a subset of ``faulty`` and are disjoint from crashing pids: a
crash is a *stopping* failure, Byzantine is a *lying* one, and the
resilience bounds they are charged against differ (see
``core/config.py::byzantine_required_processes``).

Beyond process faults, this module also declares **link faults** — the
loss, duplication, corruption, delay/reorder, and partition behaviour of
the :class:`~repro.runtime.transport.LossyFabric`.  The paper
*postulates* reliable FIFO exactly-once channels; a
:class:`LinkFaultSpec` describes how far a physical link deviates from
that postulate, and the :class:`~repro.runtime.transport.
TransportNetwork` layer is what earns the postulate back (see
``docs/FAULT_MODEL.md``).  Frame corruption (``corrupt``) is the
link-level shadow of a payload-tampering adversary: the transport's
checksums detect it and retransmission repairs it, which is exactly why
:class:`ByzantineSpec` has no frame-corruption behaviour of its own —
a corrupting adversary is subsumed by transient loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping


@dataclass(frozen=True)
class CrashSpec:
    """Crash trigger for one process.

    ``round_index``: the protocol round in which the crash fires (0 is the
    stable-vector round).  ``after_sends``: how many individual point-to-
    point sends the process completes *within that round* before dying;
    0 means it crashes before sending anything in that round (it is then a
    member of the paper's ``F[round_index]``).
    """

    round_index: int
    after_sends: int = 0

    def __post_init__(self) -> None:
        if self.round_index < 0:
            raise ValueError("crash round must be >= 0")
        if self.after_sends < 0:
            raise ValueError("after_sends must be >= 0")


# Durability modes of a recovering process (see docs/FAULT_MODEL.md).
DURABLE = "durable"
AMNESIA = "amnesia"
LATE_JOIN = "late-join"

DURABILITY_MODES = (DURABLE, AMNESIA, LATE_JOIN)


@dataclass(frozen=True)
class RecoverySpec:
    """Recovery trigger for one *crashed* process — the crash-recovery axis.

    The paper's model is crash-stop; a recovery spec extends it: a process
    with both a :class:`CrashSpec` and a :class:`RecoverySpec` restarts
    ``recover_at`` application-level delivery steps after its crash fired
    (>= 1, so a recovery strictly follows its crash; if the system
    quiesces first, the runtime fires the pending recovery immediately —
    an asynchronous system cannot distinguish a delayed restart).

    ``durability`` selects what the process comes back with:

    ``durable``
        restore protocol state from its latest checkpoint (missing or
        corrupt checkpoint degrades to amnesia);
    ``amnesia``
        rejoin with the initial input only and re-run the protocol from
        the top (the restart re-broadcasts — the equivocation-lite case);
    ``late-join``
        rejoin with no input: a passive listener that answers nothing it
        does not know and may never decide.
    """

    recover_at: int
    durability: str = DURABLE

    def __post_init__(self) -> None:
        if self.recover_at < 1:
            raise ValueError(
                "recover_at must be >= 1 (a process cannot recover before "
                "or at the instant of its crash)"
            )
        if self.durability not in DURABILITY_MODES:
            raise ValueError(
                f"durability must be one of {DURABILITY_MODES}, "
                f"got {self.durability!r}"
            )


# Byzantine wire behaviours (see docs/FAULT_MODEL.md for the taxonomy).
EQUIVOCATE = "equivocate"
FORGE = "forge"
OMIT = "omit"

BYZANTINE_BEHAVIORS = (EQUIVOCATE, FORGE, OMIT)


@dataclass(frozen=True)
class ByzantineSpec:
    """Adversarial wire behaviour of one Byzantine process.

    The process's protocol core runs honestly; the lie happens in the
    shell, per outgoing point-to-point send, driven by a dedicated RNG
    stream ``default_rng([seed, pid])`` so executions stay bit-
    reproducible and independent of the schedule.

    ``behaviors``
        which lies the adversary may tell (any non-empty subset of
        :data:`BYZANTINE_BEHAVIORS`):

        ``equivocate``
            mutate the payload *differently per destination* — the
            classic split-brain attack a reliable broadcast must defeat;
        ``forge``
            replace the payload's value with a fabricated one (off-hull
            points up to ``magnitude``), *consistently* across
            destinations, so the forgery survives echo certification and
            attacks the geometry instead of the broadcast layer;
        ``omit``
            silently drop the send — the selective-silence lie;
    ``rate``
        probability each outgoing send is attacked at all (1.0 = every
        send);
    ``magnitude``
        coordinate bound of forged values and equivocation jitter;
    ``seed``
        root of the adversary's RNG stream.

    Frame *corruption* is deliberately absent: payload checksums in the
    reliable transport detect a corrupted frame and retransmission
    repairs it, so a frame-corrupting adversary degenerates to link loss
    — model it with :attr:`LinkFaultSpec.corrupt` instead.
    """

    behaviors: tuple[str, ...] = BYZANTINE_BEHAVIORS
    rate: float = 1.0
    magnitude: float = 8.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "behaviors", tuple(dict.fromkeys(self.behaviors))
        )
        if not self.behaviors:
            raise ValueError(
                "a Byzantine spec needs at least one behavior "
                f"(choose from {BYZANTINE_BEHAVIORS})"
            )
        unknown = [b for b in self.behaviors if b not in BYZANTINE_BEHAVIORS]
        if unknown:
            raise ValueError(
                f"unknown Byzantine behaviors {unknown}; "
                f"valid: {BYZANTINE_BEHAVIORS}"
            )
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {self.rate}")
        if self.magnitude <= 0:
            raise ValueError(f"magnitude must be > 0, got {self.magnitude}")

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "behaviors": list(self.behaviors),
            "rate": self.rate,
            "magnitude": self.magnitude,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "ByzantineSpec":
        return cls(
            behaviors=tuple(data.get("behaviors", BYZANTINE_BEHAVIORS)),
            rate=float(data.get("rate", 1.0)),
            magnitude=float(data.get("magnitude", 8.0)),
            seed=int(data.get("seed", 0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """Which processes are faulty, when they crash, whose inputs are wrong.

    ``faulty`` is the paper's set ``F`` (its size must satisfy the bound
    the experiment assumes - the plan itself does not enforce ``|F| <= f``
    so that experiments can probe what happens beyond the bound).
    Processes in ``faulty`` without a :class:`CrashSpec` never crash; the
    model explicitly allows this ("may crash"), and the optimality proof
    of Theorem 3 relies on executions where faulty processes survive.
    """

    faulty: frozenset[int] = frozenset()
    crashes: dict[int, CrashSpec] = field(default_factory=dict)
    incorrect_inputs: frozenset[int] | None = None
    recoveries: dict[int, RecoverySpec] = field(default_factory=dict)
    byzantine: dict[int, ByzantineSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    def validate(
        self,
        n: int | None = None,
        *,
        dim: int | None = None,
        f: int | None = None,
    ) -> "FaultPlan":
        """Check internal consistency; with ``n``, also check pid ranges.

        ``__post_init__`` runs the n-free part at construction, but
        ``crashes`` is a mutable dict and pids can only be range-checked
        once the system size is known — so the simulators re-validate
        against ``n`` before a run.  An inconsistent plan previously
        surfaced as an opaque ``KeyError``/silent no-op deep inside the
        delivery loop; this raises immediately with the actual mistake.

        With ``dim`` and ``f`` (passed by the consensus runner when
        resilience enforcement is on), a plan with Byzantine specs is
        additionally checked against the configured bound mode: at most
        ``f`` Byzantine processes, and ``n`` at or above the Byzantine
        resilience bound ``max(3f+1, (d+2)f+1)``.  Probe experiments
        that deliberately break the bound skip this by not passing them.
        """
        unknown = set(self.crashes) - set(self.faulty)
        if unknown:
            raise ValueError(
                f"crash specs for non-faulty processes: {sorted(unknown)}"
            )
        if self.incorrect_inputs is not None:
            stray = set(self.incorrect_inputs) - set(self.faulty)
            if stray:
                raise ValueError(
                    f"incorrect inputs at non-faulty processes: {sorted(stray)}"
                )
        for pid, spec in self.crashes.items():
            if not isinstance(spec, CrashSpec):
                raise ValueError(
                    f"crash spec for process {pid} is {type(spec).__name__}, "
                    f"expected CrashSpec"
                )
        never_crashed = set(self.recoveries) - set(self.crashes)
        if never_crashed:
            raise ValueError(
                f"recovery specs for processes that never crash: "
                f"{sorted(never_crashed)} (a recovery requires a crash spec)"
            )
        for pid, rspec in self.recoveries.items():
            if not isinstance(rspec, RecoverySpec):
                raise ValueError(
                    f"recovery spec for process {pid} is "
                    f"{type(rspec).__name__}, expected RecoverySpec"
                )
        stray_byz = set(self.byzantine) - set(self.faulty)
        if stray_byz:
            raise ValueError(
                f"Byzantine specs for non-faulty processes: "
                f"{sorted(stray_byz)}"
            )
        both = set(self.byzantine) & set(self.crashes)
        if both:
            raise ValueError(
                f"processes {sorted(both)} are both crashed and Byzantine; "
                "a crash is a stopping failure, Byzantine is a lying one — "
                "pick one per pid"
            )
        for pid, bspec in self.byzantine.items():
            if not isinstance(bspec, ByzantineSpec):
                raise ValueError(
                    f"Byzantine spec for process {pid} is "
                    f"{type(bspec).__name__}, expected ByzantineSpec"
                )
        if n is not None:
            out_of_range = sorted(
                pid for pid in self.faulty if not 0 <= pid < n
            )
            if out_of_range:
                raise ValueError(
                    f"faulty pids {out_of_range} outside the system "
                    f"(valid pids: 0..{n - 1})"
                )
        if self.byzantine and f is not None and len(self.byzantine) > f:
            raise ValueError(
                f"{len(self.byzantine)} Byzantine processes exceed the "
                f"configured tolerance f={f}"
            )
        if self.byzantine and dim is not None and f is not None:
            from ..core.config import byzantine_required_processes

            if n is not None and n < byzantine_required_processes(dim, f):
                raise ValueError(
                    f"n={n} is below the Byzantine resilience bound "
                    f"max(3f+1, (d+2)f+1) = "
                    f"{byzantine_required_processes(dim, f)} "
                    f"for d={dim}, f={f}"
                )
        return self

    @property
    def incorrect(self) -> frozenset[int]:
        """Processes whose inputs are incorrect (defaults to all faulty)."""
        if self.incorrect_inputs is None:
            return self.faulty
        return self.incorrect_inputs

    def crash_spec(self, pid: int) -> CrashSpec | None:
        return self.crashes.get(pid)

    def recovery_spec(self, pid: int) -> RecoverySpec | None:
        return self.recoveries.get(pid)

    @property
    def has_durable_recovery(self) -> bool:
        """True when any recovering process needs a checkpoint to restore."""
        return any(
            spec.durability == DURABLE for spec in self.recoveries.values()
        )

    @staticmethod
    def none() -> "FaultPlan":
        """The fault-free plan."""
        return FaultPlan()

    @staticmethod
    def crash_at(specs: dict[int, tuple[int, int]]) -> "FaultPlan":
        """Convenience: ``{pid: (round, after_sends)}`` - all faulty."""
        crashes = {
            pid: CrashSpec(round_index=r, after_sends=k)
            for pid, (r, k) in specs.items()
        }
        return FaultPlan(faulty=frozenset(specs), crashes=crashes)

    @staticmethod
    def crash_recover(
        specs: dict[int, tuple[int, int, int]],
        *,
        durability: str = DURABLE,
    ) -> "FaultPlan":
        """Convenience: ``{pid: (round, after_sends, recover_at)}``.

        Every pid crashes per its spec and recovers ``recover_at``
        delivery steps later with the given ``durability`` mode.
        """
        crashes = {
            pid: CrashSpec(round_index=r, after_sends=k)
            for pid, (r, k, _) in specs.items()
        }
        recoveries = {
            pid: RecoverySpec(recover_at=at, durability=durability)
            for pid, (_, _, at) in specs.items()
        }
        return FaultPlan(
            faulty=frozenset(specs), crashes=crashes, recoveries=recoveries
        )

    @staticmethod
    def silent_faulty(pids) -> "FaultPlan":
        """Faulty (incorrect inputs) but never crashing - Theorem 3's case."""
        return FaultPlan(faulty=frozenset(pids))

    @staticmethod
    def byzantine_at(
        pids,
        *,
        behaviors: tuple[str, ...] = BYZANTINE_BEHAVIORS,
        rate: float = 1.0,
        magnitude: float = 8.0,
        seed: int = 0,
    ) -> "FaultPlan":
        """Convenience: every pid Byzantine with one shared behaviour set."""
        members = frozenset(int(p) for p in pids)
        spec = ByzantineSpec(
            behaviors=behaviors, rate=rate, magnitude=magnitude, seed=seed
        )
        return FaultPlan(
            faulty=members, byzantine={pid: spec for pid in sorted(members)}
        )


# ----------------------------------------------------------------------
# Link faults: the fair-lossy fabric beneath the reliable transport
# ----------------------------------------------------------------------

#: Sentinel for a partition interval that never heals.
NEVER_HEALS: int | None = None


@dataclass(frozen=True)
class LinkFaultSpec:
    """Fault behaviour of one directed physical link.

    All probabilities are per *transmission attempt* (retransmissions
    re-roll), all durations are in fabric clock steps (one step per
    frame delivery; idle periods advance the clock to the next timer):

    ``loss``
        probability a transmitted frame is dropped;
    ``dup``
        probability an accepted frame is enqueued twice (the copy gets
        an independent delay, so duplicates can overtake originals);
    ``delay``
        maximum uniform extra steps before a frame becomes deliverable
        (0 = deliverable immediately);
    ``reorder``
        probability an accepted frame draws an *additional* large delay
        (up to ``3 * (delay + 1)`` steps) — the jitter that makes frames
        overtake each other even on otherwise fast links;
    ``corrupt``
        probability an accepted frame's bits are flipped in flight: the
        fabric scrambles the frame's payload checksum, the receiving
        transport detects the mismatch, drops the frame (counted in
        ``PERF.corrupt_drops``), and retransmission repairs it — so a
        corrupted frame never crosses the app delivery boundary.  Like
        ``loss``, must stay below 1 (a link corrupting everything
        forever is a partition and must be declared as one);
    ``partitions``
        ``(start, heal)`` clock intervals during which the link carries
        nothing: frames transmitted inside an interval are dropped, and
        queued frames are withheld until ``heal``.  ``heal=None`` means
        the partition never heals (the graceful-degradation probe).
    """

    loss: float = 0.0
    dup: float = 0.0
    delay: int = 0
    reorder: float = 0.0
    corrupt: float = 0.0
    partitions: tuple[tuple[int, int | None], ...] = ()

    def __post_init__(self) -> None:
        for name in ("loss", "dup", "reorder", "corrupt"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        if self.loss >= 1.0:
            raise ValueError("loss must be < 1 (a fair-lossy link)")
        if self.corrupt >= 1.0:
            raise ValueError(
                "corrupt must be < 1 (a link corrupting every frame "
                "forever is a partition; declare it as one)"
            )
        if self.delay < 0:
            raise ValueError("delay must be >= 0")
        object.__setattr__(
            self,
            "partitions",
            tuple(
                (int(start), None if heal is None else int(heal))
                for start, heal in self.partitions
            ),
        )
        for start, heal in self.partitions:
            if start < 0 or (heal is not None and heal <= start):
                raise ValueError(
                    f"partition interval [{start}, {heal}) is ill-formed"
                )

    @property
    def faulty(self) -> bool:
        """True when this link deviates from a perfect link at all."""
        return bool(
            self.loss or self.dup or self.delay or self.reorder
            or self.corrupt or self.partitions
        )

    def partitioned_at(self, clock: int) -> bool:
        """Is the link down at fabric time ``clock``?"""
        for start, heal in self.partitions:
            if clock >= start and (heal is None or clock < heal):
                return True
        return False

    def heal_after(self, clock: int) -> int | None:
        """The heal time of the interval covering ``clock`` (None = never)."""
        for start, heal in self.partitions:
            if clock >= start and (heal is None or clock < heal):
                return heal
        return clock

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "loss": self.loss,
            "dup": self.dup,
            "delay": self.delay,
            "reorder": self.reorder,
            "corrupt": self.corrupt,
            "partitions": [list(iv) for iv in self.partitions],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "LinkFaultSpec":
        return cls(
            loss=float(data.get("loss", 0.0)),
            dup=float(data.get("dup", 0.0)),
            delay=int(data.get("delay", 0)),
            reorder=float(data.get("reorder", 0.0)),
            # .get: pre-corruption archives have no "corrupt" key.
            corrupt=float(data.get("corrupt", 0.0)),
            partitions=tuple(
                (int(iv[0]), None if iv[1] is None else int(iv[1]))
                for iv in data.get("partitions", ())
            ),
        )


@dataclass(frozen=True)
class LinkFaultPlan:
    """Fault specs for every directed link, plus the fabric seed.

    ``default`` applies to every link without an explicit entry in
    ``links``.  ``seed`` roots the per-link RNG streams: each link draws
    from ``default_rng([seed, src, dst])``, so executions are
    bit-reproducible per seed and independent of delivery interleaving
    across links.
    """

    default: LinkFaultSpec = LinkFaultSpec()
    links: dict[tuple[int, int], LinkFaultSpec] = field(default_factory=dict)
    seed: int = 0

    def spec(self, src: int, dst: int) -> LinkFaultSpec:
        return self.links.get((src, dst), self.default)

    @property
    def faulty(self) -> bool:
        return self.default.faulty or any(
            spec.faulty for spec in self.links.values()
        )

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "default": self.default.to_json_dict(),
            "links": [
                [src, dst, spec.to_json_dict()]
                for (src, dst), spec in sorted(self.links.items())
            ],
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "LinkFaultPlan":
        return cls(
            default=LinkFaultSpec.from_json_dict(data["default"]),
            links={
                (int(src), int(dst)): LinkFaultSpec.from_json_dict(spec)
                for src, dst, spec in data.get("links", ())
            },
            seed=int(data.get("seed", 0)),
        )

    @staticmethod
    def uniform(
        loss: float = 0.0,
        dup: float = 0.0,
        delay: int = 0,
        reorder: float = 0.0,
        corrupt: float = 0.0,
        *,
        seed: int = 0,
    ) -> "LinkFaultPlan":
        """Same lossy behaviour on every link."""
        return LinkFaultPlan(
            default=LinkFaultSpec(
                loss=loss, dup=dup, delay=delay, reorder=reorder,
                corrupt=corrupt,
            ),
            seed=seed,
        )

    @staticmethod
    def isolate(
        pids: Iterable[int],
        n: int,
        start: int,
        heal: int | None,
        *,
        base: LinkFaultSpec | None = None,
        seed: int = 0,
    ) -> "LinkFaultPlan":
        """Partition ``pids`` from the rest of the system over [start, heal).

        Every link crossing the cut (in either direction) carries the
        partition interval on top of ``base`` (the behaviour of all
        links outside the interval, default perfect).  ``heal=None``
        partitions forever — the documented non-termination probe.
        """
        isolated = frozenset(int(p) for p in pids)
        if not isolated:
            raise ValueError("isolate() needs at least one pid")
        out_of_range = sorted(p for p in isolated if not 0 <= p < n)
        if out_of_range:
            raise ValueError(f"isolated pids {out_of_range} outside 0..{n - 1}")
        base = base if base is not None else LinkFaultSpec()
        cut = LinkFaultSpec(
            loss=base.loss,
            dup=base.dup,
            delay=base.delay,
            reorder=base.reorder,
            corrupt=base.corrupt,
            partitions=base.partitions + ((start, heal),),
        )
        links = {
            (src, dst): cut
            for src in range(n)
            for dst in range(n)
            if src != dst and ((src in isolated) != (dst in isolated))
        }
        return LinkFaultPlan(default=base, links=links, seed=seed)
