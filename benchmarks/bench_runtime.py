"""Micro-benchmarks for the distributed runtime.

Times one stable-vector round, a full small consensus execution on the
discrete-event simulator, and the same on the asyncio runtime — the
substrate costs underlying every experiment.

Full-execution benchmarks record wall-clock plus geometry perf-counter
deltas (hull calls, cache hits, LP solves) into ``BENCH_runtime.json`` at
the repository root.
"""

import numpy as np
import pytest

from _harness import record_calibrated, run_recorded
from repro.core.runner import run_convex_hull_consensus
from repro.runtime.asyncio_runtime import run_asyncio_consensus
from repro.runtime.messages import InputTuple, freeze_point
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.simulator import run_simulation

STEM = "runtime"


def bench_stable_vector_round(benchmark):
    from repro.runtime.process import Outgoing, ProtocolCore
    from repro.runtime.messages import Payload, SVInit, SVView
    from repro.runtime.stable_vector import StableVectorEngine

    class Core(ProtocolCore):
        def __init__(self, pid, n, f):
            self.pid = pid
            self._sv = StableVectorEngine(
                pid=pid, n=n, f=f,
                entry=InputTuple(value=freeze_point([float(pid)]), sender=pid),
            )

        def on_start(self):
            return [(None, p) for p in self._sv.start()]

        def on_message(self, payload, src):
            if isinstance(payload, SVInit):
                out = self._sv.on_init(payload, src)
            else:
                out = self._sv.on_view(payload, src)
            return [(None, p) for p in out]

        @property
        def current_round(self):
            return 0

        @property
        def done(self):
            return self._sv.result is not None

    def run():
        cores = [Core(i, 8, 1) for i in range(8)]
        run_simulation(cores, scheduler=RandomScheduler(seed=1))
        return cores

    cores = record_calibrated(benchmark, STEM, "stable_vector_round", run)
    assert all(c.done for c in cores)


def bench_full_consensus_1d(benchmark):
    rng = np.random.default_rng(2)
    inputs = rng.uniform(-1, 1, size=(5, 1))

    def run():
        return run_convex_hull_consensus(inputs, 1, 0.2, seed=3)

    result = record_calibrated(benchmark, STEM, "full_consensus_1d", run)
    assert len(result.report.decided) == 5


def bench_full_consensus_2d(benchmark):
    rng = np.random.default_rng(3)
    inputs = rng.uniform(-1, 1, size=(5, 2))

    def run():
        return run_convex_hull_consensus(inputs, 1, 0.3, seed=4)

    result = record_calibrated(benchmark, STEM, "full_consensus_2d", run)
    assert len(result.report.decided) == 5


def bench_asyncio_consensus_1d(benchmark):
    rng = np.random.default_rng(4)
    inputs = rng.uniform(-1, 1, size=(5, 1))

    def run():
        return run_asyncio_consensus(inputs, 1, 0.3, seed=5, max_delay=0.0)

    result = run_recorded(benchmark, STEM, "asyncio_consensus_1d", run)
    assert len(result.report.decided) == 5
