"""Algorithm BCC — Byzantine convex consensus (echo-certified sibling).

The crash-model Algorithm CC breaks under Byzantine behavior in two
independent places: equivocation defeats the stable-vector containment
argument of round 0, and a forged ``h`` message poisons the untrimmed
average ``L`` of rounds t >= 1.  Following the sequel papers (arXiv
1307.1332, arXiv 2211.02126), this sibling closes both holes without
touching the geometry:

Round 0
    Every process RB-broadcasts its input over Bracha reliable broadcast
    (:class:`~repro.runtime.broadcast.BrachaBroadcast`).  Process ``i``
    collects the first ``n - f`` RB-delivered inputs, calls their
    senders ``S_i``, and computes

        h_i[0] := intersection over all |S_i| - f subsets C of H(C),

    the same Tverberg-backed trim as CC — RB consistency means everyone
    agrees on what each sender's input *is*, and the ``f``-trim bounds
    the damage of the at-most-``f`` forged inputs among them.

Rounds t >= 1 — verified recomputation
    A round-t message is not a polytope but a *claim*: the RB-broadcast
    sorted tuple of level-(t-1) senders the origin combined.  A receiver
    accepts the claim only after recomputing the origin's value itself,
    bottoming out at RB-delivered round-0 inputs:

        verified[k, 0]   = subset-intersection over k's claimed senders,
        verified[k, t]   = L(verified[m, t-1] for m in claim, equal weights).

    Forged geometry is thereby impossible (values are never taken on
    faith), equivocation is neutralized by RB consistency, and a lying
    sender set is harmless — any verified claim is a legal value, and
    deterministic recomputation makes it bit-identical at every correct
    process (the content-addressed geometry caches collapse the repeated
    work).  Process ``i`` freezes at the first ``n - f`` *verified*
    round-t values (its own included) and sets ``h_i[t] := L(...)``.

Convergence is CC's own argument: any two correct processes' frozen
sets overlap in ``n - 2f >= 1`` claims with identical verified values,
giving the same ``(1 - 1/n)`` contraction per round, so the crash
model's ``t_end`` (Eq. 19) is reused unchanged.  Resilience:
``n >= max(3f+1, (d+2)f+1)`` — Bracha's bound joined with the
geometric trim's (:func:`~repro.core.config.byzantine_required_processes`).
"""

from __future__ import annotations

import numpy as np

from ..geometry.combination import equal_weight_combination
from ..geometry.intersection import intersect_subset_hulls
from ..geometry.polytope import ConvexPolytope
from ..runtime.broadcast import BrachaBroadcast
from ..runtime.messages import (
    BBroadcast,
    BEcho,
    BReady,
    Payload,
    freeze_point,
)
from ..runtime.process import Outgoing, ProtocolCore
from ..runtime.tracing import ProcessTrace
from .algorithm_cc import EmptyInitialPolytopeError
from .config import CCConfig


class BCCProcess(ProtocolCore):
    """One process executing Algorithm BCC (pure logic; shell adds faults)."""

    def __init__(
        self,
        pid: int,
        config: CCConfig,
        input_point,
        trace: ProcessTrace | None = None,
    ):
        if config.fault_model != "byzantine":
            raise ValueError(
                "BCCProcess needs a config with fault_model='byzantine' "
                f"(got {config.fault_model!r}) — the resilience bound differs"
            )
        self.pid = pid
        self.config = config
        self.input_point = np.asarray(input_point, dtype=float).reshape(-1)
        config.check_input(self.input_point)
        self.trace = trace if trace is not None else ProcessTrace(
            pid=pid, input_point=self.input_point.copy()
        )
        self._round = 0
        self._done = False
        self._rb = BrachaBroadcast(pid=pid, n=config.n, f=config.f)
        self._h: dict[int, ConvexPolytope] = {}
        # RB-delivered round-0 inputs, in delivery order: pid -> point.
        self._inputs: dict[int, tuple] = {}
        # RB-delivered sender-set claims: (origin, round_index) -> body.
        self._claims: dict[tuple[int, int], tuple[int, ...]] = {}
        # Verified values: (pid, level) -> recomputed polytope.
        self._verified: dict[tuple[int, int], ConvexPolytope] = {}
        # Claims proven bogus (malformed or empty recomputation): never
        # retried, never accepted.
        self._invalid: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # ProtocolCore interface
    # ------------------------------------------------------------------
    @property
    def current_round(self) -> int:
        return self._round

    @property
    def done(self) -> bool:
        return self._done

    @property
    def output(self) -> ConvexPolytope | None:
        if not self._done:
            return None
        return self._h[self.config.t_end]

    def on_start(self) -> list[Outgoing]:
        out, delivered = self._rb.broadcast(0, freeze_point(self.input_point))
        self._note_deliveries(delivered)
        out.extend(self._progress())
        return out

    def on_message(self, payload: Payload, src: int) -> list[Outgoing]:
        if not isinstance(payload, (BBroadcast, BEcho, BReady)):
            raise TypeError(f"unexpected payload type {type(payload)!r}")
        # Even after deciding, the RB engine keeps voting: slower correct
        # processes need these echoes/readies to complete their instances
        # (the stable-vector liveness discipline, inherited).
        out, delivered = self._rb.on_payload(payload, src)
        self._note_deliveries(delivered)
        out.extend(self._progress())
        return out

    # ------------------------------------------------------------------
    # RB delivery bookkeeping
    # ------------------------------------------------------------------
    def _note_deliveries(self, delivered) -> None:
        for origin, round_index, body in delivered:
            if round_index == 0:
                self._inputs[origin] = body
            else:
                self._claims[(origin, round_index)] = body

    # ------------------------------------------------------------------
    # Verified recomputation
    # ------------------------------------------------------------------
    def _round0_polytope(self, senders: tuple[int, ...]) -> ConvexPolytope:
        """The deterministic round-0 trim over a sorted sender tuple.

        Shared by the own-state computation and claim verification so
        both sides produce bit-identical polytopes (and share cache
        entries) for the same sender set.
        """
        points = np.array([list(self._inputs[m]) for m in senders])
        return intersect_subset_hulls(points, self.config.f)

    def _claim_shape_ok(self, body: tuple[int, ...]) -> bool:
        """Structural validity of a sender-set claim.

        Honest claims are sorted tuples of >= n - f distinct pids; a
        fabricated claim failing any of this is rejected permanently
        (it could never have come from a correct process).
        """
        if len(body) < self.config.quorum:
            return False
        if any(not isinstance(m, int) or not 0 <= m < self.config.n for m in body):
            return False
        return tuple(sorted(set(body))) == body

    def _verify(self, k: int, level: int) -> ConvexPolytope | None:
        """Recompute process k's level-``level`` value, or None if not yet possible.

        ``None`` means prerequisites are still undelivered — retried on
        later progress passes.  A claim exposed as bogus goes to
        ``_invalid`` and stays rejected.  Honest claims always verify
        eventually: the claimant verified the same prerequisites itself,
        so by RB totality they reach every correct process.
        """
        key = (k, level)
        cached = self._verified.get(key)
        if cached is not None:
            return cached
        if key in self._invalid:
            return None
        claim = self._claims.get((k, level + 1))
        if claim is None:
            return None
        if not self._claim_shape_ok(claim):
            self._invalid.add(key)
            return None
        if level == 0:
            if any(m not in self._inputs for m in claim):
                return None
            poly = self._round0_polytope(claim)
            if poly.is_empty:
                # A correct process below the bound raises on its *own*
                # empty trim; someone else's empty claim is just a lie.
                self._invalid.add(key)
                return None
        else:
            operands = []
            for m in claim:
                sub = self._verify(m, level - 1)
                if sub is None:
                    return None
                operands.append(sub)
            poly = equal_weight_combination(operands)
        self._verified[key] = poly
        return poly

    # ------------------------------------------------------------------
    # Round progression
    # ------------------------------------------------------------------
    def _progress(self) -> list[Outgoing]:
        """Fire every enabled round transition (loops: one may enable the next)."""
        out: list[Outgoing] = []
        advanced = True
        while advanced and not self._done:
            advanced = False
            if self._round == 0:
                if len(self._inputs) >= self.config.quorum:
                    out.extend(self._complete_round0())
                    advanced = True
            else:
                step = self._maybe_complete_round()
                if step is not None:
                    out.extend(step)
                    advanced = True
        return out

    def _complete_round0(self) -> list[Outgoing]:
        """Trim the first ``n - f`` RB-delivered inputs into ``h_i[0]``."""
        senders = tuple(sorted(list(self._inputs)[: self.config.quorum]))
        h0 = self._round0_polytope(senders)
        if h0.is_empty:
            raise EmptyInitialPolytopeError(
                f"process {self.pid}: round-0 intersection empty "
                f"(|S_i|={len(senders)}, f={self.config.f}, d={self.config.dim})"
            )
        self._h[0] = h0
        self._verified[(self.pid, 0)] = h0
        self.trace.states[0] = h0
        self.trace.round_senders[0] = senders
        return self._enter_round(1, senders)

    def _enter_round(self, t: int, senders: tuple[int, ...]) -> list[Outgoing]:
        """Advance to round t, RB-broadcasting the level-(t-1) claim."""
        self._round = t
        out, delivered = self._rb.broadcast(t, senders)
        self._note_deliveries(delivered)
        return out

    def _maybe_complete_round(self) -> list[Outgoing] | None:
        """Freeze at the first ``n - f`` verified round-t claims, combine."""
        t = self._round
        # The own value verifies trivially (it was computed, not claimed).
        self._verified.setdefault((self.pid, t - 1), self._h[t - 1])
        for k in range(self.config.n):
            if (k, t) in self._claims:
                self._verify(k, t - 1)
        ready = tuple(
            sorted(k for k in range(self.config.n) if (k, t - 1) in self._verified)
        )
        if len(ready) < self.config.quorum:
            return None
        operands = [self._verified[(m, t - 1)] for m in ready]
        h_t = equal_weight_combination(operands)
        self._h[t] = h_t
        self.trace.states[t] = h_t
        self.trace.round_senders[t] = ready
        if t < self.config.t_end:
            return self._enter_round(t + 1, ready)
        self._done = True
        self.trace.decided = True
        return []
