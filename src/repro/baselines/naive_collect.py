"""Ablation variant: Algorithm CC with *naive* round-0 collection.

The paper (end of Section 4) explains why round 0 uses stable vector:
"to achieve optimality of the size of the output polytope, it is
important for the intersection of multiset X_i at each fault-free process
to be as large as possible.  This property is ensured by receiving
messages using stable vector."

This variant replaces stable vector with the obvious naive protocol —
broadcast your input, take the first ``n - f`` inputs you see as ``X_i``
— while keeping every later round identical.  Validity, epsilon-agreement
and termination all still hold (the convergence machinery never needed
containment), but the *Containment* property is gone: views can be
incomparable, the common view shrinks, and the guaranteed common region
(the analogue of ``I_Z``) collapses.  Ablation experiment A1 measures
exactly that gap.
"""

from __future__ import annotations

from ..core.algorithm_cc import CCProcess
from ..core.config import CCConfig
from ..core.runner import CCResult, prepare_run
from ..runtime.messages import Payload, SVInit, SVView
from ..runtime.process import Outgoing
from ..runtime.scheduler import default_scheduler
from ..runtime.simulator import run_simulation
from ..runtime.tracing import ProcessTrace


class NaiveCollectProcess(CCProcess):
    """CC with first-(n-f)-inputs collection instead of stable vector.

    Inherits every step but round-0 collection from :class:`CCProcess`:
    the frozen first-``n - f`` view goes to the shared round-0 step.
    ``SVView`` echoes from peers are impossible here (all processes in an
    ablation run use this class); receiving one raises, which guards
    against mixing the variants.
    """

    def __init__(
        self,
        pid: int,
        config: CCConfig,
        input_point,
        trace: ProcessTrace | None = None,
    ):
        super().__init__(pid, config, input_point, trace)
        self._collected: dict[int, tuple] = {}
        self._view_frozen = False

    def on_start(self) -> list[Outgoing]:
        # Broadcast only the input tuple; there is no echo layer.
        payloads = self._sv.start()
        init = next(p for p in payloads if isinstance(p, SVInit))
        self._collected[self.pid] = init.entry
        out: list[Outgoing] = [(None, init)]
        out.extend(self._maybe_freeze_view())
        return out

    def on_message(self, payload: Payload, src: int) -> list[Outgoing]:
        if isinstance(payload, SVInit):
            if not self._view_frozen:
                self._collected[payload.entry.sender] = payload.entry
            return self._maybe_freeze_view()
        if isinstance(payload, SVView):
            raise RuntimeError(
                "NaiveCollectProcess received a stable-vector echo; "
                "do not mix protocol variants in one execution"
            )
        return super().on_message(payload, src)

    def _maybe_freeze_view(self) -> list[Outgoing]:
        if self._view_frozen or len(self._collected) < self.config.quorum:
            return []
        self._view_frozen = True
        return self._complete_round0(self._collected.values())


def run_naive_collect_consensus(
    inputs,
    f: int,
    eps: float,
    *,
    fault_plan=None,
    scheduler=None,
    seed: int = 0,
    input_bounds=None,
) -> CCResult:
    """Run the naive-collection ablation end to end."""
    run = prepare_run(
        inputs,
        f,
        eps,
        fault_plan=fault_plan,
        input_bounds=input_bounds,
        core_cls=NaiveCollectProcess,
    )
    sched = scheduler or default_scheduler(seed=seed)
    sched.reset()
    report = run_simulation(run.cores, fault_plan=run.plan, scheduler=sched)
    return run.result(
        report, seed=seed, scheduler_name=f"naive+{type(sched).__name__}"
    )
