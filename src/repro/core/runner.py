"""One-call driver: set up, run, and package a convex-hull-consensus run.

:func:`run_convex_hull_consensus` is the primary public API of the library.
It wires inputs, fault plan, and scheduler into the simulated asynchronous
system, runs Algorithm CC to termination, and returns a :class:`CCResult`
bundling the decisions with the full :class:`ExecutionTrace` needed by the
analysis and invariant layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry.linalg import as_points_array
from ..geometry.polytope import ConvexPolytope
from ..runtime.faults import FaultPlan
from ..runtime.scheduler import Scheduler, default_scheduler
from ..runtime.simulator import SimulationReport, run_simulation
from ..runtime.tracing import ExecutionTrace, ProcessTrace
from .algorithm_bcc import BCCProcess
from .algorithm_cc import CCProcess
from .config import CCConfig


@dataclass
class CCResult:
    """Everything a caller might want from one execution."""

    config: CCConfig
    trace: ExecutionTrace
    report: SimulationReport

    @property
    def outputs(self) -> dict[int, ConvexPolytope]:
        """Decision polytope of every process that decided."""
        return self.trace.outputs()

    @property
    def fault_free_outputs(self) -> dict[int, ConvexPolytope]:
        return self.trace.fault_free_outputs()

    def output_of(self, pid: int) -> ConvexPolytope:
        return self.trace.outputs()[pid]


def derive_bounds(inputs: np.ndarray, margin: float = 0.0) -> tuple[float, float]:
    """A-priori coordinate bounds covering the given inputs.

    In the model the bounds ``[mu, U]`` are known beforehand; experiments
    that generate inputs first can use this helper to declare consistent
    bounds (optionally padded by ``margin``).
    """
    lo = float(inputs.min()) - margin
    hi = float(inputs.max()) + margin
    return lo, hi


def build_config(
    inputs: np.ndarray,
    f: int,
    eps: float,
    *,
    input_bounds: tuple[float, float] | None = None,
    enforce_resilience: bool = True,
    fault_model: str = "crash",
) -> CCConfig:
    """Construct a :class:`CCConfig` matching an input array."""
    pts = as_points_array(inputs)
    n, dim = pts.shape
    if input_bounds is None:
        lo, hi = derive_bounds(pts)
    else:
        lo, hi = input_bounds
    return CCConfig(
        n=n,
        f=f,
        dim=dim,
        eps=eps,
        input_lower=lo,
        input_upper=hi,
        enforce_resilience=enforce_resilience,
        fault_model=fault_model,
    )


def cc_core_factory(config: CCConfig, inputs: np.ndarray, traces):
    """Build the :class:`~repro.runtime.recovery.CoreFactory` for CC runs.

    The returned factory reanimates process ``pid`` either from a durable
    checkpoint (``data`` is the restored snapshot) or from scratch with
    its original input (amnesia / late-join, ``data is None``) — always
    attached to the process's existing trace so one
    :class:`~repro.runtime.tracing.ProcessTrace` spans all incarnations.
    """

    def factory(pid: int, data: dict | None) -> CCProcess:
        if data is not None:
            return CCProcess.from_checkpoint(config, data, trace=traces[pid])
        return CCProcess(
            pid=pid, config=config, input_point=inputs[pid], trace=traces[pid]
        )

    return factory


@dataclass
class PreparedRun:
    """One run's configuration, traced cores and recovery factory.

    Shared by every entry point that runs Algorithm CC, BCC or a baseline
    core on inputs: :func:`run_convex_hull_consensus`, the lockstep and
    asyncio runtimes and the baseline runners differ only in how they
    drive :attr:`cores`.
    """

    config: CCConfig
    plan: FaultPlan
    traces: list[ProcessTrace]
    cores: list
    core_factory: object

    def result(
        self, report: SimulationReport, *, seed: int, scheduler_name: str
    ) -> CCResult:
        """Package a finished run's report with its execution trace."""
        config = self.config
        trace = ExecutionTrace(
            n=config.n,
            f=config.f,
            dim=config.dim,
            eps=config.eps,
            t_end=config.t_end,
            fault_plan=self.plan,
            seed=seed,
            scheduler_name=scheduler_name,
            processes=self.traces,
            messages_sent=report.messages_sent,
            messages_delivered=report.messages_delivered,
            delivery_steps=report.delivery_steps,
        )
        return CCResult(config=config, trace=trace, report=report)


def prepare_run(
    inputs,
    f: int,
    eps: float,
    *,
    fault_plan: FaultPlan | None = None,
    input_bounds: tuple[float, float] | None = None,
    enforce_resilience: bool = True,
    algorithm: str = "cc",
    core_cls=None,
) -> PreparedRun:
    """Validate a run's parameters and build its traced cores.

    ``core_cls`` overrides the algorithm's core class; the baselines pass
    theirs here, so every runner builds its cores and trace in one place.
    Only Algorithm CC's own cores get a crash-recovery factory.

    Raises ``ValueError`` for an unknown algorithm, a BCC run with
    crash-recovery, or a Byzantine plan beyond the configured tolerance.
    """
    if algorithm not in ("cc", "bcc"):
        raise ValueError(f"unknown algorithm {algorithm!r}; expected 'cc' or 'bcc'")
    pts = as_points_array(inputs)
    plan = fault_plan or FaultPlan.none()
    if algorithm == "bcc" and plan.recoveries:
        raise ValueError(
            "algorithm='bcc' does not support crash-recovery plans: a "
            "restarted process cannot re-join its reliable-broadcast "
            "instances (echoes are one-shot per tag)"
        )
    config = build_config(
        pts,
        f,
        eps,
        input_bounds=input_bounds,
        enforce_resilience=enforce_resilience,
        fault_model="byzantine" if algorithm == "bcc" else "crash",
    )
    if plan.byzantine and enforce_resilience:
        # The bound-aware coherence check (satellite of the Byzantine
        # axis): at most f Byzantine pids, and for BCC an n at or above
        # the Byzantine bound.  CC runs check only the count — probing
        # CC below the Byzantine bound *is* the bound-gap experiment.
        plan.validate(
            config.n,
            dim=config.dim if algorithm == "bcc" else None,
            f=config.f,
        )
    traces = [
        ProcessTrace(pid=i, input_point=pts[i].copy()) for i in range(config.n)
    ]
    if core_cls is None:
        core_cls = BCCProcess if algorithm == "bcc" else CCProcess
    cores = [core_cls(i, config, pts[i], traces[i]) for i in range(config.n)]
    factory = (
        cc_core_factory(config, pts, traces)
        if plan.recoveries and core_cls is CCProcess
        else None
    )
    return PreparedRun(
        config=config, plan=plan, traces=traces, cores=cores, core_factory=factory
    )


def run_convex_hull_consensus(
    inputs,
    f: int,
    eps: float,
    *,
    fault_plan: FaultPlan | None = None,
    scheduler: Scheduler | None = None,
    seed: int = 0,
    input_bounds: tuple[float, float] | None = None,
    enforce_resilience: bool = True,
    observer=None,
    link_faults=None,
    reliable_transport: bool = True,
    checkpoint_store=None,
    algorithm: str = "cc",
) -> CCResult:
    """Run Algorithm CC (or its Byzantine sibling) under the given adversary.

    Parameters
    ----------
    inputs:
        ``(n, d)`` array — row ``i`` is the input of process ``i`` (the
        rows of faulty processes are their *incorrect* inputs).
    f:
        Fault-tolerance parameter (maximum number of faulty processes).
    eps:
        Agreement parameter: outputs satisfy ``d_H(h_i, h_j) < eps``.
    fault_plan:
        Which processes are faulty and when they crash; defaults to the
        fault-free execution.
    scheduler:
        Adversarial delivery order; defaults to a seeded random scheduler.
    seed:
        Seed for the default scheduler (ignored when one is supplied).
    input_bounds:
        The a-priori ``[mu, U]``; derived from ``inputs`` when omitted.
    enforce_resilience:
        Set False to deliberately run below ``n >= (d+2)f+1``.
    observer:
        Optional streaming checker (e.g. :class:`~repro.core.invariants.
        StreamingInvariantChecker`): ``observer.bind(traces, plan, config)``
        is called before the run and ``observer.poll()`` after every
        delivery; a poll may raise to abort the execution early (the
        chaos engine's online invariant checking).
    link_faults:
        Optional :class:`~repro.runtime.faults.LinkFaultPlan`: run over
        the lossy fabric + reliable transport instead of the structural
        reliable network (see :mod:`repro.runtime.transport`).
    reliable_transport:
        Set False (with or without ``link_faults``) to bypass the
        recovery layer — the delivery-boundary oracle then raises
        :class:`~repro.runtime.channel.ChannelError` on the first
        loss/duplication/reorder the fabric inflicts.
    checkpoint_store:
        Optional :class:`~repro.runtime.checkpoint.CheckpointStore`
        receiving per-process snapshots on every state transition.  A
        fault plan with durable recoveries auto-provisions an in-memory
        store when none is given; pass a
        :class:`~repro.runtime.checkpoint.DiskCheckpointStore` for
        crash-the-whole-harness durability.

    algorithm:
        ``"cc"`` (default) runs the paper's crash-model algorithm;
        ``"bcc"`` runs the Byzantine sibling
        (:class:`~repro.core.algorithm_bcc.BCCProcess`) at the
        ``max(3f+1, (d+2)f+1)`` bound.  Either algorithm accepts a
        fault plan with Byzantine specs — CC under a Byzantine plan is
        the bound-gap probe (expected to break), BCC is expected to
        survive it.

    Returns a :class:`CCResult`; raises
    :class:`~repro.core.algorithm_cc.EmptyInitialPolytopeError` if the
    round-0 intersection is empty (possible only below the bound).
    """
    run = prepare_run(
        inputs,
        f,
        eps,
        fault_plan=fault_plan,
        input_bounds=input_bounds,
        enforce_resilience=enforce_resilience,
        algorithm=algorithm,
    )
    sched = scheduler or default_scheduler(seed=seed)
    sched.reset()
    on_deliver = None
    if observer is not None:
        observer.bind(run.traces, run.plan, run.config)
        on_deliver = observer.poll
    report = run_simulation(
        run.cores,
        fault_plan=run.plan,
        scheduler=sched,
        on_deliver=on_deliver,
        link_faults=link_faults,
        reliable_transport=reliable_transport,
        checkpoint_store=checkpoint_store,
        core_factory=run.core_factory,
    )
    return run.result(report, seed=seed, scheduler_name=type(sched).__name__)
