"""Sweep rows equal the reference row, float bits and all.

``row_from_result`` measures the first and last disagreement rounds and
the fault-free outputs.  ``tests/oracles/sweeps.py::reference_row`` is
the row it replaced: it builds the whole convergence series and the
whole output-size report and reads three numbers from them.  Floats are
compared by ``float.hex``, so NaN equals NaN and ``-0.0`` differs from
``0.0``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict

import numpy as np
import pytest

import repro.analysis.metrics as metrics
from repro.analysis.metrics import convergence_series, output_size_report
from repro.analysis.sweeps import STATUS_OK, row_from_result, sweep_scenario
from repro.core.invariants import check_all, has_views
from repro.core.runner import run_convex_hull_consensus
from repro.runtime.faults import FaultPlan, LinkFaultPlan
from repro.runtime.scheduler import AdaptiveAdversaryScheduler, RandomScheduler
from repro.workloads import inputs as gen
from repro.workloads.scenarios import ALL_SCENARIOS, outlier_attack
from tests.oracles.sweeps import reference_row


def bits(row) -> dict:
    return {
        name: value.hex() if isinstance(value, float) else value
        for name, value in asdict(row).items()
    }


def assert_same_row(seed, result, **kwargs):
    assert bits(row_from_result(seed, result, **kwargs)) == bits(
        reference_row(seed, result, **kwargs)
    )


def crash_adaptive(seed):
    return run_convex_hull_consensus(
        gen.uniform_box(5, 2, seed=seed),
        1,
        0.1,
        fault_plan=FaultPlan.crash_at({4: (0, 2)}),
        scheduler=AdaptiveAdversaryScheduler(seed=seed),
        seed=seed,
    )


def run_bcc(seed):
    # One above BCC's bound (d + 2)f + 1, so the outputs have area.
    inputs = np.random.default_rng(7).uniform(-1.0, 1.0, size=(6, 2))
    return run_convex_hull_consensus(
        inputs, 1, 0.4, algorithm="bcc", seed=seed, input_bounds=(-1.0, 1.0)
    )


class AlwaysOk:
    ok = True


def always_ok(_result):
    return AlwaysOk()


class TestSameAsReference:
    @pytest.mark.parametrize("fixture", ["starved_2d_run", "round0_crash_run"])
    def test_fixture_runs(self, request, fixture):
        assert_same_row(0, request.getfixturevalue(fixture))

    @pytest.mark.parametrize("seed", range(6))
    def test_starved_outlier(self, seed):
        result = outlier_attack(n=5, d=2, f=1, eps=0.1, seed=seed).run(seed=seed)
        assert_same_row(seed, result)

    @pytest.mark.parametrize("seed", range(4))
    def test_crash_adaptive(self, seed):
        assert_same_row(seed, crash_adaptive(seed))

    def test_lossy_1d(self):
        result = run_convex_hull_consensus(
            gen.uniform_box(8, 1, seed=0),
            2,
            0.05,
            scheduler=RandomScheduler(seed=0),
            seed=0,
            link_faults=LinkFaultPlan.uniform(
                loss=0.2, dup=0.05, reorder=0.1, delay=2, seed=0
            ),
        )
        assert_same_row(0, result)

    def test_byzantine(self):
        assert_same_row(0, run_bcc(0))


class TestEditedTraces:
    """Series shapes no real run produces, cut from a copy of one that does."""

    @pytest.fixture()
    def result(self, round0_crash_run):
        return copy.deepcopy(round0_crash_run)

    @staticmethod
    def keep_rounds(result, keep):
        for proc in result.trace.processes:
            proc.states = {
                t: s for t, s in proc.states.items() if keep(proc.pid, t)
            }

    def test_no_round_with_two_states(self, result):
        self.keep_rounds(result, lambda pid, t: pid == 0)
        assert convergence_series(result.trace).rounds == []
        assert metrics.disagreement_endpoints(result.trace) == (0.0, 0.0)
        assert_same_row(0, result, check=always_ok)

    def test_one_measured_round_is_measured_once(self, result, monkeypatch):
        self.keep_rounds(result, lambda pid, t: t == 2)
        assert convergence_series(result.trace).rounds == [2]
        calls = []
        measure = metrics.disagreement_diameter

        def counted(polys):
            calls.append(len(polys))
            return measure(polys)

        monkeypatch.setattr(metrics, "disagreement_diameter", counted)
        row = row_from_result(0, result, check=always_ok)
        assert len(calls) == 1
        assert row.disagreement_round0 == row.final_disagreement
        assert_same_row(0, result, check=always_ok)

    def test_first_measured_round_after_zero(self, result):
        self.keep_rounds(result, lambda pid, t: t >= 3 or pid == 0)
        rounds = convergence_series(result.trace).rounds
        assert rounds[0] == 3
        assert_same_row(0, result, check=always_ok)


class TestByzantineTraces:
    """Algorithm BCC forms no stable-vector view, so it has no ``I_Z``."""

    def test_sweep_rows_ok(self):
        results = {}

        def run(seed):
            results[seed] = run_bcc(seed)
            return results[seed]

        summary = sweep_scenario(run, [0, 1])
        assert [row.status for row in summary.rows] == [STATUS_OK, STATUS_OK]
        for row in summary.rows:
            assert row.properties_ok == check_all(results[row.seed].trace).ok
            assert row.min_output_measure > 0.0

    def test_output_size_report_without_views(self):
        trace = run_bcc(0).trace
        assert not has_views(trace)
        report = output_size_report(trace)
        assert math.isnan(report.iz_measure)
        assert math.isnan(report.min_ratio_vs_iz)
        assert report.final_gap is None
        outputs = trace.fault_free_outputs()
        assert set(report.output_measures) == set(outputs)
        assert set(report.output_diameters) == set(outputs)
        assert all(m > 0.0 for m in report.output_measures.values())
        assert 0.0 < report.mean_ratio_vs_correct_hull <= 1.0 + 1e-9


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(ALL_SCENARIOS))
def test_every_scenario(name):
    # ``check`` is the same call in both rows; a stub keeps this to the
    # series and the sizes (check_all's Lemma 6 takes ~35 s a `benign` seed).
    for seed in range(5):
        assert_same_row(seed, ALL_SCENARIOS[name]().run(seed=seed), check=always_ok)
