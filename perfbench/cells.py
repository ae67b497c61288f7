"""Workloads and the sweep cell the benchmark times.

A *sweep cell* is the unit of work ``repro sweep``, ``repro fuzz`` and
``repro run`` pay for on every execution: one
:func:`~repro.core.runner.run_convex_hull_consensus` run followed by
:func:`~repro.analysis.sweeps.row_from_result` (``check_all``,
``convergence_series`` and ``output_size_report``).

Each workload owns a fixed corpus of case seeds; ``golden.json`` holds the
expected digest of every case in it.  A benchmark run derives its case
order from the run seed, so the same seed always gives the same inputs
and every case has a golden to check.

This module imports ``repro`` and must only be imported after the
caller has put the checkout's ``src`` on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis.metrics import convergence_series
from repro.analysis.sweeps import SweepRow, row_from_result
from repro.core.runner import CCResult, run_convex_hull_consensus
from repro.geometry.cache import PERF, clear_geometry_caches  # noqa: F401 — used by run.py
from repro.runtime.faults import FaultPlan, LinkFaultPlan
from repro.runtime.scheduler import AdaptiveAdversaryScheduler, RandomScheduler, Scheduler
from repro.workloads import inputs as gen
from repro.workloads.scenarios import outlier_attack

@dataclass
class Case:
    """One generated execution: everything the program receives."""

    seed: int
    inputs: np.ndarray
    f: int
    eps: float
    fault_plan: FaultPlan
    scheduler: Scheduler
    input_bounds: tuple[float, float] | None = None
    link_faults: LinkFaultPlan | None = None

    def run(self) -> CCResult:
        return run_convex_hull_consensus(
            self.inputs,
            self.f,
            self.eps,
            fault_plan=self.fault_plan,
            scheduler=self.scheduler,
            seed=self.seed,
            input_bounds=self.input_bounds,
            link_faults=self.link_faults,
        )


def crash_adaptive(seed: int) -> Case:
    """n=5, d=2, f=1: process 4 dies after 2 sends of its round-0 broadcast."""
    return Case(
        seed=seed,
        inputs=gen.uniform_box(5, 2, seed=seed),
        f=1,
        eps=0.1,
        fault_plan=FaultPlan.crash_at({4: (0, 2)}),
        scheduler=AdaptiveAdversaryScheduler(seed=seed),
    )


def starved_outlier(seed: int) -> Case:
    """The stock ``outlier_attack`` scenario: a far faulty input, starved."""
    sc = outlier_attack(n=5, d=2, f=1, eps=0.1, seed=seed)
    return Case(
        seed=seed,
        inputs=sc.inputs,
        f=sc.f,
        eps=sc.eps,
        fault_plan=sc.fault_plan,
        scheduler=sc.scheduler,
        input_bounds=sc.input_bounds,
    )


def lossy_1d(seed: int) -> Case:
    """n=8, d=1, f=2, fault-free, every link lossy under the reliable transport."""
    return Case(
        seed=seed,
        inputs=gen.uniform_box(8, 1, seed=seed),
        f=2,
        eps=0.05,
        fault_plan=FaultPlan.none(),
        scheduler=RandomScheduler(seed=seed),
        link_faults=LinkFaultPlan.uniform(
            loss=0.2, dup=0.05, reorder=0.1, delay=2, seed=seed
        ),
    )


#: The run length at which a run is exactly one pass over the corpus;
#: corpora are sized so that a pass takes 20-30 s on a 2-CPU VM.
REFERENCE_SECONDS = 25.0


@dataclass(frozen=True)
class Workload:
    """A generator of cases plus the fixed corpus of case seeds it is run on.

    The corpus is seeds ``0 .. corpus_size - 1``, and ``golden.json`` holds
    each one's digest.  Per-case cost is heavy-tailed (a few inputs take
    5-10x the median), so a run executes whole passes over the corpus in
    a seed-derived order rather than a seed-derived sample of it: the work
    of a run is the same for every seed and its figures move only when
    the program does.
    """

    name: str
    build: Callable[[int], Case]
    corpus_size: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("crash-adaptive", crash_adaptive, 22),
        Workload("starved-outlier", starved_outlier, 28),
        Workload("lossy-1d", lossy_1d, 27),
    )
}


def case_seeds(workload: Workload, seed: int, seconds: float) -> list[int]:
    """The run's case seeds: the corpus in a seeded order, cycled to fill ``seconds``."""
    size = workload.corpus_size
    count = max(2, round(size * seconds / REFERENCE_SECONDS))
    order = random.Random(f"{workload.name}:{seed}").sample(range(size), size)
    return [order[i % size] for i in range(count)]


def run_cell(case: Case) -> tuple[CCResult, SweepRow]:
    """One sweep cell: the two calls a sweep worker makes per execution."""
    result = case.run()
    return result, row_from_result(case.seed, result)


def digest(result: CCResult, row: SweepRow) -> str:
    """SHA-256 of the decided vertices, the disagreement series bits and the verdict."""
    h = hashlib.sha256()
    for pid, poly in sorted(result.trace.outputs().items()):
        verts = np.ascontiguousarray(poly.vertices, dtype=np.float64)
        h.update(f"{pid}:{verts.shape}".encode())
        h.update(verts.tobytes())
    series = convergence_series(result.trace)
    h.update(np.asarray(series.disagreement, dtype=np.float64).tobytes())
    h.update(f"{row.status}:{row.properties_ok}".encode())
    return h.hexdigest()


def state_counts(result: CCResult) -> tuple[int, int]:
    """(recorded states, distinct polytopes among them) over every incarnation."""
    keys = set()
    total = 0
    for proc in result.trace.processes:
        for _, state in proc.all_states():
            total += 1
            verts = np.ascontiguousarray(state.vertices, dtype=np.float64)
            keys.add((verts.shape, verts.tobytes()))
    return total, len(keys)
