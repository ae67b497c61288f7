"""The Byzantine adversary: an honest core behind a lying shell.

A Byzantine process in this repro is modelled exactly like a crashed one
— the *core* stays the unmodified protocol state machine, and the fault
is injected by the :class:`~repro.runtime.process.ProcessShell` at the
send boundary.  That keeps the adversary orthogonal to every runtime
(simulator, lockstep, asyncio, transport all reuse the same shell hook)
and makes the no-Byzantine path bit-identical by construction: a shell
without an engine takes the exact code path it took before this module
existed, and an engine draws from its own RNG stream
(``default_rng([spec.seed, pid])``), never from a scheduler's or
fabric's.

Behaviors (see :data:`~repro.runtime.faults.BYZANTINE_BEHAVIORS`):

* ``equivocate`` — a *fresh* lie per destination: different receivers
  get different values for the same logical message.  This is the attack
  Bracha reliable broadcast exists to stop, and the one that breaks the
  crash algorithm's stable-vector containment argument.
* ``forge`` — a *consistent* lie: the same fabricated value (an
  off-hull point, or a fabricated sender-set claim) to every receiver.
  Consistency lets the forgery survive reliable broadcast — it attacks
  the geometry instead, and is what the round-0 ``f``-trim and the
  verified-recomputation rounds of ``algorithm_bcc`` are sized against.
* ``omit`` — a silent lie: the message to this destination simply never
  leaves.  Selective omission starves quorums without ever looking
  faulty to the processes that *are* served.

Every mutation is counted (``byz_equivocations`` / ``byz_forgeries`` /
``byz_omissions`` in :data:`~repro.geometry.cache.PERF`) so campaign
reports show what the adversary actually did.
"""

from __future__ import annotations

import numpy as np

from ..geometry.cache import PERF
from ..geometry.polytope import ConvexPolytope
from .faults import EQUIVOCATE, FORGE, OMIT, ByzantineSpec
from .messages import (
    BBroadcast,
    BEcho,
    BReady,
    InputTuple,
    Payload,
    RoundMessage,
    SVInit,
    SVView,
    freeze_point,
)


def byzantine_engines(plan, n: int) -> dict[int, "ByzantineEngine"]:
    """One engine per Byzantine pid of a fault plan ({} when none).

    The runtimes call this once per run and hand each shell its engine;
    a plan without Byzantine specs allocates nothing and leaves every
    shell on the historical code path.
    """
    return {
        pid: ByzantineEngine(pid, spec, n)
        for pid, spec in sorted(plan.byzantine.items())
    }


class ByzantineEngine:
    """Seeded per-process payload mutator plugged into a process shell.

    One engine per Byzantine pid; all randomness comes from
    ``default_rng([spec.seed, pid])``, so a fault plan replays
    bit-identically regardless of scheduler interleaving — the draw
    order depends only on the sequence of (payload, destination) pairs
    the honest core emits, which is itself deterministic per run.
    """

    def __init__(self, pid: int, spec: ByzantineSpec, n: int):
        self.pid = pid
        self.spec = spec
        self.n = n
        self._rng = np.random.default_rng([spec.seed, pid])
        # Forgeries must be consistent across destinations: the first
        # rewrite of a payload is memoized and replayed to later peers.
        self._forgeries: dict[Payload, Payload] = {}
        # Bounded lie space: all fabricated points are drawn from a
        # per-dimension palette of at most n values.  An unbounded value
        # stream would let an equivocating sender inflate the crash
        # algorithm's stable-vector views forever (every novel value is
        # a novel view entry, so views never stabilise and the run only
        # ends at the step budget); a palette keeps equivocation
        # destination-dependent while the set of distinct lies — and
        # hence view growth — stays finite.
        self._palettes: dict[int, list] = {}

    # ------------------------------------------------------------------
    def mutate(self, payload: Payload, dst: int) -> Payload | None:
        """Possibly replace (or swallow) one outgoing payload.

        Returns the payload to put on the wire, or ``None`` for a
        silent omission.  Exactly one rate roll happens per
        (payload, destination), then one behavior pick if acting — a
        fixed draw discipline, so adding behaviors to a spec never
        perturbs the stream shape.
        """
        spec = self.spec
        if self._rng.random() >= spec.rate:
            return payload
        behaviors = spec.behaviors
        behavior = behaviors[int(self._rng.integers(0, len(behaviors)))]
        if behavior == OMIT:
            PERF.byz_omissions += 1
            return None
        if behavior == FORGE:
            PERF.byz_forgeries += 1
            forged = self._forgeries.get(payload)
            if forged is None:
                forged = self._rewrite(payload)
                self._forgeries[payload] = forged
            return forged
        assert behavior == EQUIVOCATE
        PERF.byz_equivocations += 1
        return self._rewrite(payload)

    # ------------------------------------------------------------------
    def _fake_point(self, dim: int):
        """A fabricated point, up to ``magnitude`` per coordinate.

        Deliberately allowed outside the declared input box ``[mu, U]``
        (magnitude defaults well beyond it): the most damaging forgery
        is an off-hull value that drags combinations away from the
        correct inputs' hull.  Points come from the bounded per-engine
        palette (grown lazily to at most ``n`` values per dimension) so
        the adversary's lie space is finite — see ``__init__``.
        """
        palette = self._palettes.setdefault(dim, [])
        if len(palette) < max(self.n, 2):
            mag = self.spec.magnitude
            palette.append(freeze_point(self._rng.uniform(-mag, mag, size=dim)))
            return palette[-1]
        return palette[int(self._rng.integers(0, len(palette)))]

    def _rewrite(self, payload: Payload) -> Payload:
        """One fabricated variant of a payload (fresh RNG draws)."""
        if isinstance(payload, SVInit):
            entry = payload.entry
            return SVInit(
                entry=InputTuple(
                    value=self._fake_point(len(entry.value)), sender=entry.sender
                )
            )
        if isinstance(payload, SVView):
            # Sorted iteration (InputTuple orders by sender) keeps the
            # RNG draw order independent of set iteration order.
            return SVView(
                entries=frozenset(
                    InputTuple(
                        value=self._fake_point(len(e.value)), sender=e.sender
                    )
                    for e in sorted(payload.entries)
                )
            )
        if isinstance(payload, RoundMessage):
            # Receivers trust a round message's vertices as minimal, as
            # they trust an honest sender's; the fake points need not be.
            dim = payload.state.dim
            points = [self._fake_point(dim) for _ in range(payload.state.num_vertices)]
            return RoundMessage(
                state=ConvexPolytope(points, dim, _trusted=True),
                sender=payload.sender,
                round_index=payload.round_index,
            )
        if isinstance(payload, (BBroadcast, BEcho, BReady)):
            return type(payload)(
                origin=payload.origin,
                round_index=payload.round_index,
                body=self._rewrite_body(payload.body),
            )
        return payload

    def _rewrite_body(self, body: tuple) -> tuple:
        """Fabricate a reliable-broadcast body of the same shape.

        A round-0 body is a point (tuple of floats) — forged off-hull;
        a round t >= 1 body is a sender-set claim (tuple of pids) —
        replaced by a random same-size subset of the process ids.  The
        type split mirrors ``algorithm_bcc``'s wire format.
        """
        if body and all(isinstance(v, float) for v in body):
            return self._fake_point(len(body))
        if body and all(isinstance(v, (int, np.integer)) for v in body):
            size = min(len(body), self.n)
            picks = self._rng.choice(self.n, size=size, replace=False)
            return tuple(sorted(int(p) for p in picks))
        return body
