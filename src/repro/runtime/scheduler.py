"""Adversarial delivery schedulers — the asynchrony in "asynchronous".

The system model places no bound on message delay; correctness proofs must
hold for *every* delivery schedule.  Experimentally we explore that space
with pluggable scheduler strategies.  A scheduler repeatedly picks which
of the ready channels delivers next, and the delivery source delivers that
channel's head: per-channel FIFO order is enforced there, matching the
reliable-FIFO-channel assumption.  The candidates come in ``(src, dst)``
order, and a strategy reads nothing of them but ``src`` and ``dst``.  On
the structural network they are the ready
:class:`~repro.runtime.channel.Channel` objects; on the lossy fabric they
are the links' head :class:`~repro.runtime.transport.Frame` objects.

Strategies:

* :class:`RandomScheduler` — uniformly random ready channel; the baseline
  adversary.
* :class:`FifoFairScheduler` — round-robin over channels; the most
  synchronous-looking schedule (useful as a control).
* :class:`TargetedDelayScheduler` — starves messages *from* a chosen set of
  processes for as long as anything else is deliverable.  This is the
  adversary of the paper's Theorem 3 proof ("processes in V - X_Z are so
  slow that the other processes must terminate before receiving any
  messages from them").
* :class:`BurstyScheduler` — delivers in randomly sized bursts per source,
  creating heavy round skew between processes.
* :class:`AdaptiveAdversaryScheduler` — *adaptive* starvation: at every
  step it targets the process that has received the fewest deliveries so
  far and withholds its messages, so the victim changes as the execution
  unfolds (unlike :class:`TargetedDelayScheduler`'s fixed slow set).

Two meta-strategies support the chaos engine's deterministic repro
bundles (:mod:`repro.chaos`):

* :class:`ScheduleRecorder` wraps any scheduler and records every
  decision as a ``(src, dst)`` channel id;
* :class:`ReplayScheduler` replays such a decision list, pinning an
  execution bit-for-bit — and degrades deterministically when the list
  has been edited (the shrinker removes segments) or exhausted.

Every strategy honours :meth:`Scheduler.reset`: after a reset, the same
instance driven by the same candidate sequences makes the same decisions —
the property repro bundles and seed sweeps are built on.  The seeded
strategies draw from :class:`~repro.runtime.draws.Draws` ``(seed)``: the
numbers of ``np.random.default_rng(seed)``, taken from pre-drawn blocks
because a decision is made on every delivery.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .draws import Draws
from .messages import Envelope


class Scheduler:
    """Strategy interface: pick one of the ready channels."""

    def choose(self, heads: list[Envelope]) -> int:
        """Return the index (into ``heads``) of the channel to deliver next.

        ``heads`` holds the ready channels in ``(src, dst)`` order, one
        entry per channel; a strategy reads only ``src`` and ``dst`` of an
        entry.  Read it before the next send or delivery: the structural
        network hands over its live list.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Reset internal state so a scheduler instance can be reused."""


@dataclass
class RandomScheduler(Scheduler):
    """Deliver from a uniformly random ready channel (seeded)."""

    seed: int = 0
    _rng: Draws = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._rng = Draws(self.seed)

    def choose(self, heads: list[Envelope]) -> int:
        return self._rng.integers(0, len(heads))


@dataclass
class FifoFairScheduler(Scheduler):
    """Round-robin over (src, dst) channels — near-synchronous control."""

    _cursor: int = field(default=0, init=False, repr=False)

    def reset(self) -> None:
        self._cursor = 0

    def choose(self, heads: list[Envelope]) -> int:
        ordered = sorted(range(len(heads)), key=lambda k: (heads[k].src, heads[k].dst))
        pick = ordered[self._cursor % len(ordered)]
        self._cursor += 1
        return pick


@dataclass
class TargetedDelayScheduler(Scheduler):
    """Starve messages sent by ``slow`` processes.

    While any head from a non-slow source is pending, deliver among those
    (randomly, seeded); messages from slow sources move only when nothing
    else can.  With ``slow`` chosen as up to f processes this realises the
    "indistinguishable from crashed" executions at the heart of both the
    lower-bound discussion and the Theorem 3 optimality argument.
    """

    slow: frozenset[int] = frozenset()
    seed: int = 0
    _rng: Draws = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.slow = frozenset(self.slow)
        self.reset()

    def reset(self) -> None:
        self._rng = Draws(self.seed)

    def choose(self, heads: list[Envelope]) -> int:
        fast = [k for k, env in enumerate(heads) if env.src not in self.slow]
        pool = fast if fast else list(range(len(heads)))
        return pool[self._rng.integers(0, len(pool))]


@dataclass
class BurstyScheduler(Scheduler):
    """Deliver bursts from one source at a time (heavy round skew).

    Picks a source, drains a random number of its pending heads before
    switching — processes race ahead of each other by whole rounds, which
    stresses the per-round message buffering of Algorithm CC.
    """

    seed: int = 0
    max_burst: int = 8
    _rng: Draws = field(init=False, repr=False)
    _current_src: int | None = field(default=None, init=False, repr=False)
    _remaining: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._rng = Draws(self.seed)
        self._current_src = None
        self._remaining = 0

    def choose(self, heads: list[Envelope]) -> int:
        if self._remaining > 0 and self._current_src is not None:
            candidates = [k for k, env in enumerate(heads) if env.src == self._current_src]
            if candidates:
                self._remaining -= 1
                return candidates[self._rng.integers(0, len(candidates))]
        sources = sorted({env.src for env in heads})
        self._current_src = sources[self._rng.integers(0, len(sources))]
        self._remaining = self._rng.integers(1, self.max_burst + 1) - 1
        candidates = [k for k, env in enumerate(heads) if env.src == self._current_src]
        return candidates[self._rng.integers(0, len(candidates))]


@dataclass
class AdaptiveAdversaryScheduler(Scheduler):
    """Starve whichever process has received the fewest messages so far.

    At each step the target is the destination (among the current heads)
    with the lowest delivery count, ties broken by pid; heads addressed
    to it are withheld while anything else is deliverable.  This chases
    the straggler adaptively: once starvation forces a quorum elsewhere
    and the victim's backlog becomes the only deliverable traffic, a
    burst of deliveries promotes a new victim.  The adversary the
    correctness proofs quantify over is exactly this kind of
    execution-aware strategy, which fixed slow sets cannot express.
    """

    seed: int = 0
    _rng: Draws = field(init=False, repr=False)
    _delivered: Counter = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._rng = Draws(self.seed)
        self._delivered = Counter()

    def choose(self, heads: list[Envelope]) -> int:
        destinations = {env.dst for env in heads}
        target = min(destinations, key=lambda d: (self._delivered[d], d))
        pool = [k for k, env in enumerate(heads) if env.dst != target]
        if not pool:
            pool = list(range(len(heads)))
        pick = pool[self._rng.integers(0, len(pool))]
        self._delivered[heads[pick].dst] += 1
        return pick


@dataclass
class ScheduleRecorder(Scheduler):
    """Record every decision of an inner scheduler as a ``(src, dst)`` pair.

    The candidates are unique per ``(src, dst)`` (a delivery source offers
    each ready channel once), so the pair identifies the decision exactly and —
    unlike a raw index — stays meaningful when a shrunk decision list is
    replayed against a slightly different head set.
    """

    inner: Scheduler
    decisions: list[tuple[int, int]] = field(default_factory=list)

    def reset(self) -> None:
        self.inner.reset()
        self.decisions.clear()

    def choose(self, heads: list[Envelope]) -> int:
        pick = self.inner.choose(heads)
        env = heads[pick]
        self.decisions.append((env.src, env.dst))
        return pick


@dataclass
class ReplayScheduler(Scheduler):
    """Replay a recorded ``(src, dst)`` decision list deterministically.

    Replaying an unmodified recording against the execution it came from
    matches every decision exactly, reproducing the run bit-for-bit.
    When the chaos shrinker has removed decisions (or the list runs out),
    unmatchable entries are skipped and the fallback is the first candidate
    in the deterministic ``(src, dst)`` order — so *every* edited
    decision list still defines exactly one execution.
    """

    decisions: tuple[tuple[int, int], ...] = ()
    _cursor: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        self.decisions = tuple((int(s), int(d)) for s, d in self.decisions)

    def reset(self) -> None:
        self._cursor = 0

    def choose(self, heads: list[Envelope]) -> int:
        index_of = {(env.src, env.dst): k for k, env in enumerate(heads)}
        while self._cursor < len(self.decisions):
            decision = self.decisions[self._cursor]
            self._cursor += 1
            if decision in index_of:
                return index_of[decision]
        return 0


def default_scheduler(seed: int = 0) -> Scheduler:
    """The scheduler used when an experiment does not specify one."""
    return RandomScheduler(seed=seed)
