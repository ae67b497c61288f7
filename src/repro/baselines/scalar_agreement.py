"""Asynchronous approximate scalar agreement (Dolev et al. style baseline).

The classic algorithm the paper's related work builds on [7]: scalar
state, asynchronous rounds, each round waits for ``n - f`` values and
averages them.  It runs Algorithm CC's round skeleton
(:class:`~repro.core.algorithm_cc.CCSkeleton`: stable vector in round 0
to pick the initial value safely, then iterated averaging) so the
baseline and CC face identical adversaries and the comparison isolates the
*state representation* (point vs polytope).

Round 0 initial value: the midpoint of the f-trimmed received values — the
1-d instance of the safe-area idea (discarding the f highest and f lowest
guards against incorrect extremes).
"""

from __future__ import annotations

import numpy as np

from ..core.algorithm_cc import CCSkeleton
from ..core.config import CCConfig
from ..geometry.polytope import ConvexPolytope
from ..runtime.messages import InputTuple
from ..runtime.tracing import ProcessTrace


class ScalarAgreementProcess(CCSkeleton):
    """Point-valued approximate agreement on one coordinate.

    The state is a single real, held as a 1-d singleton polytope; rounds
    are Algorithm CC's (broadcast previous value, wait for ``n - f``,
    average).  Convergence obeys the same ``(1 - 1/n)^t`` envelope, so
    ``t_end`` from :class:`CCConfig` applies unchanged.
    """

    def __init__(
        self,
        pid: int,
        config: CCConfig,
        input_value: float,
        trace: ProcessTrace | None = None,
    ):
        if config.dim != 1:
            raise ValueError("scalar agreement requires dim=1 configs")
        self.input_value = float(np.asarray(input_value).reshape(-1)[0])
        super().__init__(pid, config, [self.input_value], trace)

    @property
    def output(self) -> float | None:
        state = super().output
        return None if state is None else float(state.vertices[0, 0])

    def initial_state(self, r_view: tuple[InputTuple, ...]) -> ConvexPolytope:
        """The midpoint of the f-trimmed received values."""
        values = np.sort(np.array([entry.value[0] for entry in r_view]))
        trimmed = values[self.config.f : values.size - self.config.f]
        if trimmed.size == 0:  # below the resilience bound
            trimmed = values
        return ConvexPolytope.singleton([float(0.5 * (trimmed[0] + trimmed[-1]))])

    def combine(self, received: dict[int, ConvexPolytope]) -> ConvexPolytope:
        """The mean of the received values, in arrival order."""
        values = [poly.vertices[0, 0] for poly in received.values()]
        return ConvexPolytope.singleton([float(np.mean(values))])
