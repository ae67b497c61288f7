"""Algorithm CC — the paper's asynchronous convex hull consensus protocol.

Per-process logic, straight off the pseudo-code in Section 4:

Round 0 (lines 1-6)
    Broadcast the input tuple ``(x_i, i, 0)`` and run the stable-vector
    primitive.  When it returns ``R_i``, form the multiset ``X_i`` of
    received values and compute

        h_i[0] := intersection over all |X_i|-f subsets C of H(C),

    then proceed to round 1.

Round t >= 1 (lines 7-15)
    On entry, add the own message ``(h_i[t-1], i, t)`` to ``MSG_i[t]`` and
    broadcast it.  Buffer incoming ``(h, j, t')`` by round.  The first time
    ``|MSG_i[t]| >= n - f`` while executing round t, freeze the multiset
    ``Y_i[t]`` of received polytopes and set

        h_i[t] := L(Y_i[t]; [1/|Y_i[t]|, ...]),

    then proceed to round t+1, terminating after round ``t_end``.

Messages from rounds ahead of the local round are buffered (asynchrony lets
neighbours race ahead); messages of a round arriving after its ``Y`` was
frozen are ignored, exactly as in the paper's matrix construction where
``MSG_i[t]`` is pinned "at the point where Y_i[t] is defined".

The round structure lives once, in :class:`CCSkeleton`; the baselines of
:mod:`repro.baselines` run it too, supplying only how ``R_i`` becomes
``h_i[0]`` and how the frozen ``MSG_i[t]`` is combined.
"""

from __future__ import annotations

from abc import abstractmethod

import numpy as np

from ..geometry.combination import equal_weight_combination
from ..geometry.intersection import intersect_subset_hulls
from ..geometry.polytope import ConvexPolytope
from ..runtime.messages import (
    InputTuple,
    Payload,
    RoundMessage,
    SVInit,
    SVView,
    freeze_point,
    freeze_vertices,
)
from ..runtime.process import Outgoing, ProtocolCore
from ..runtime.stable_vector import StableVectorEngine
from ..runtime.tracing import ProcessTrace
from .config import CCConfig


class EmptyInitialPolytopeError(RuntimeError):
    """``h_i[0]`` came out empty — only possible below the resilience bound.

    With ``n >= (d+2) f + 1`` Lemma 2 (via Tverberg's theorem) guarantees
    non-emptiness; experiment E5 triggers this error deliberately by
    running under-provisioned systems.
    """


class CCSkeleton(ProtocolCore):
    """Algorithm CC's round structure, shared by CC and its baselines.

    Owns everything the cores share: the stable-vector round 0 (lines
    1-4), the per-round buffers of ``MSG_i[t]`` with the stale-message
    rule, the ``n - f`` freeze (lines 12-13), trace recording and the
    decision after round ``t_end``.  A subclass supplies its two distinct
    steps: :meth:`initial_state` turns the sorted view ``R_i`` into
    ``h_i[0]``, and :meth:`combine` turns the frozen ``MSG_i[t]`` into
    ``h_i[t]``.  States are polytopes throughout; the point-valued
    baselines keep singletons, so their messages travel exactly as CC's.
    """

    def __init__(
        self,
        pid: int,
        config: CCConfig,
        input_point,
        trace: ProcessTrace | None = None,
    ):
        self.pid = pid
        self.config = config
        self.input_point = np.asarray(input_point, dtype=float).reshape(-1)
        self.trace = trace if trace is not None else ProcessTrace(
            pid=pid, input_point=self.input_point.copy()
        )
        self._round = 0
        self._done = False
        self._sv = StableVectorEngine(
            pid=pid,
            n=config.n,
            f=config.f,
            entry=InputTuple(value=freeze_point(self.input_point), sender=pid),
        )
        self._h: dict[int, ConvexPolytope] = {}
        # Per-round buffers of received (h, j, t) messages; sender -> polytope.
        self._round_buffer: dict[int, dict[int, ConvexPolytope]] = {}
        self._frozen_rounds: set[int] = set()

    @abstractmethod
    def initial_state(self, r_view: tuple[InputTuple, ...]) -> ConvexPolytope:
        """Lines 4-5: the state ``h_i[0]`` computed from the sorted view."""

    @abstractmethod
    def combine(self, received: dict[int, ConvexPolytope]) -> ConvexPolytope:
        """Line 14: ``h_i[t]`` from the frozen ``MSG_i[t]`` (arrival order)."""

    def subset_intersection(
        self, r_view: tuple[InputTuple, ...]
    ) -> ConvexPolytope:
        """Line 5: intersect ``H(C)`` over all ``|X_i| - f`` subsets of ``X_i``."""
        x_multiset = np.array([list(entry.value) for entry in r_view])
        h0 = intersect_subset_hulls(x_multiset, self.config.f)
        if h0.is_empty:
            raise EmptyInitialPolytopeError(
                f"process {self.pid}: round-0 intersection empty "
                f"(|X_i|={len(r_view)}, f={self.config.f}, d={self.config.dim})"
            )
        return h0

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
        payloads = self._sv.start()
        out: list[Outgoing] = [(None, payload) for payload in payloads]
        # n = 1 degenerate instance: the own entry is already stable.
        out.extend(self._poll_stable_vector())
        return out

    def on_message(self, payload: Payload, src: int) -> list[Outgoing]:
        if isinstance(payload, SVInit):
            echoes = self._sv.on_init(payload, src)
        elif isinstance(payload, SVView):
            echoes = self._sv.on_view(payload, src)
        elif isinstance(payload, RoundMessage):
            return self._on_round_message(payload)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected payload type {type(payload)!r}")
        out: list[Outgoing] = [(None, echo) for echo in echoes]
        out.extend(self._poll_stable_vector())
        return out

    # ------------------------------------------------------------------
    # Round 0
    # ------------------------------------------------------------------
    def _poll_stable_vector(self) -> list[Outgoing]:
        """Line 3: once stable vector has returned ``R_i``, finish round 0."""
        if self._round != 0 or self._sv.result is None:
            return []
        return self._complete_round0(self._sv.result)

    def _complete_round0(self, view) -> list[Outgoing]:
        """Lines 4-6: record ``R_i``, compute ``h_i[0]``, enter round 1."""
        r_view = tuple(sorted(view))
        self.trace.r_view = r_view
        h0 = self.initial_state(r_view)
        self._h[0] = h0
        self.trace.states[0] = h0
        return self._enter_round(1)

    # ------------------------------------------------------------------
    # Rounds t >= 1
    # ------------------------------------------------------------------
    def _enter_round(self, t: int) -> list[Outgoing]:
        """Lines 7-10: advance to round t and broadcast ``h_i[t-1]``."""
        self._round = t
        message = RoundMessage(
            vertices=freeze_vertices(self._h[t - 1].vertices),
            sender=self.pid,
            round_index=t,
        )
        # Line 8: the own message joins MSG_i[t] directly (no self-channel).
        self._round_buffer.setdefault(t, {})[self.pid] = self._h[t - 1]
        out: list[Outgoing] = [(None, message)]
        out.extend(self._maybe_complete_round())
        return out

    def _on_round_message(self, msg: RoundMessage) -> list[Outgoing]:
        """Lines 10-11 with asynchrony: buffer by round, ignore stale."""
        t = msg.round_index
        if t in self._frozen_rounds or t < self._round:
            return []  # Y_i[t] already frozen; late arrivals are discarded.
        # ``msg.vertices`` is always the sender's ``h_j[t-1].vertices`` —
        # a vertex set the sender already minimized — so the receiver must
        # not re-run the hull on it; the trusted (interned) constructor
        # shares one polytope instance among all receivers of a broadcast.
        poly = ConvexPolytope.from_trusted_vertices(
            msg.vertices, dim=self.config.dim
        )
        self._round_buffer.setdefault(t, {})[msg.sender] = poly
        return self._maybe_complete_round()

    def _maybe_complete_round(self) -> list[Outgoing]:
        """Lines 12-15: freeze ``Y_i[t]`` at the quorum and combine."""
        t = self._round
        if self._done or t == 0:
            return []
        buffer = self._round_buffer.get(t, {})
        if len(buffer) < self.config.quorum:
            return []
        self._frozen_rounds.add(t)
        h_t = self.combine(buffer)
        self._h[t] = h_t
        self.trace.states[t] = h_t
        self.trace.round_senders[t] = tuple(sorted(buffer))
        del self._round_buffer[t]
        if t < self.config.t_end:
            return self._enter_round(t + 1)
        self._done = True
        self.trace.decided = True
        return []


class CCProcess(CCSkeleton):
    """One process executing Algorithm CC (pure logic; shell adds faults)."""

    def __init__(
        self,
        pid: int,
        config: CCConfig,
        input_point,
        trace: ProcessTrace | None = None,
    ):
        super().__init__(pid, config, input_point, trace)
        config.check_input(self.input_point)

    def initial_state(self, r_view: tuple[InputTuple, ...]) -> ConvexPolytope:
        return self.subset_intersection(r_view)

    def combine(self, received: dict[int, ConvexPolytope]) -> ConvexPolytope:
        """``L(Y_i[t]; [1/|Y_i[t]|, ...])``, operands in sender order."""
        return equal_weight_combination([received[s] for s in sorted(received)])

    # ------------------------------------------------------------------
    # Checkpointing (crash-recovery support)
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """JSON-safe snapshot of the full protocol state.

        Covers the round index, the stable-vector engine (view, latest
        views per sender, frozen result, broadcast count), every computed
        state ``h_i[t]``, the per-round receive buffers, and the decided
        flag.  Algorithm CC is deterministic — it holds no RNG or
        tie-break state, so there is nothing of that kind to persist.

        Vertex coordinates survive the JSON round-trip bit-exactly
        (``json`` emits shortest-repr float64), so a restored process's
        subsequent round messages carry byte-identical vertex arrays —
        the property the durable-recovery replay test asserts.
        """
        sv = self._sv

        def entries(view) -> list:
            return [[list(e.value), e.sender] for e in sorted(view)]

        return {
            "pid": self.pid,
            "round": self._round,
            "done": self._done,
            "input": [float(x) for x in self.input_point],
            "sv": {
                "view": entries(sv._view),
                "latest": {
                    str(src): entries(view)
                    for src, view in sv._latest_view.items()
                },
                "result": entries(sv.result) if sv.result is not None else None,
                "broadcasts_sent": sv.broadcasts_sent,
            },
            "h": {
                str(t): [list(v) for v in freeze_vertices(poly.vertices)]
                for t, poly in self._h.items()
            },
            "round_buffer": {
                str(t): {
                    str(sender): [
                        list(v) for v in freeze_vertices(poly.vertices)
                    ]
                    for sender, poly in buf.items()
                }
                for t, buf in self._round_buffer.items()
            },
            "frozen_rounds": sorted(self._frozen_rounds),
        }

    @classmethod
    def from_checkpoint(
        cls,
        config: CCConfig,
        data: dict,
        trace: ProcessTrace | None = None,
    ) -> "CCProcess":
        """Rebuild a process from :meth:`checkpoint` output.

        The restored core is a genuinely fresh object — every polytope is
        re-interned from the serialized vertices via the trusted
        constructor (the sender had already minimized them), so the
        restore path exercises real deserialization, never object reuse.
        """

        def tuples(entries) -> set[InputTuple]:
            return {
                InputTuple(value=tuple(float(x) for x in value), sender=int(s))
                for value, s in entries
            }

        def polytope(vertices) -> ConvexPolytope:
            frozen = tuple(tuple(float(x) for x in row) for row in vertices)
            return ConvexPolytope.from_trusted_vertices(frozen, dim=config.dim)

        core = cls(
            pid=int(data["pid"]),
            config=config,
            input_point=data["input"],
            trace=trace,
        )
        core._round = int(data["round"])
        core._done = bool(data["done"])
        sv_data = data["sv"]
        sv = core._sv
        sv._view = tuples(sv_data["view"])
        sv._latest_view = {
            int(src): frozenset(tuples(view))
            for src, view in sv_data["latest"].items()
        }
        sv.result = (
            frozenset(tuples(sv_data["result"]))
            if sv_data["result"] is not None
            else None
        )
        sv.broadcasts_sent = int(sv_data["broadcasts_sent"])
        core._h = {int(t): polytope(v) for t, v in data["h"].items()}
        core._round_buffer = {
            int(t): {int(s): polytope(v) for s, v in buf.items()}
            for t, buf in data["round_buffer"].items()
        }
        core._frozen_rounds = set(int(t) for t in data["frozen_rounds"])
        return core
