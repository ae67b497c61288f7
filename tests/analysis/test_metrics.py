"""Tests for the analysis metrics layer."""

import numpy as np
import pytest

from repro.analysis.metrics import (
    convergence_series,
    cost_summary,
    output_size_report,
)


class TestConvergenceSeries:
    def test_within_envelope(self, starved_2d_run):
        series = convergence_series(starved_2d_run.trace)
        assert len(series.rounds) == starved_2d_run.config.t_end + 1
        for dis, env in zip(series.disagreement, series.envelope):
            assert dis <= env + 1e-9

    def test_final_below_eps(self, starved_2d_run):
        series = convergence_series(starved_2d_run.trace)
        assert series.disagreement[-1] < starved_2d_run.config.eps

    def test_rounds_to(self, starved_2d_run):
        series = convergence_series(starved_2d_run.trace)
        hit = series.rounds_to(starved_2d_run.config.eps)
        assert hit is not None
        assert hit <= starved_2d_run.config.t_end

    def test_empirical_rate_faster_than_bound(self, round0_crash_run):
        series = convergence_series(round0_crash_run.trace)
        rate = series.empirical_rate()
        gamma = 1.0 - 1.0 / round0_crash_run.trace.n
        if rate is not None:  # instant agreement yields None
            assert rate < gamma


class TestOutputSize:
    def test_ratios(self, starved_2d_run):
        report = output_size_report(starved_2d_run.trace)
        # Lemma 6: outputs contain I_Z, so each ratio vs I_Z is >= 1.
        assert report.min_ratio_vs_iz >= 1.0 - 1e-9
        # Outputs are inside the hull of correct inputs: ratio <= 1.
        assert report.mean_ratio_vs_correct_hull <= 1.0 + 1e-9
        assert report.iz_measure >= 0.0

    def test_final_gap_reported(self, starved_2d_run):
        report = output_size_report(starved_2d_run.trace)
        assert report.final_gap is not None
        assert report.final_gap >= 0

    def test_diameters_present(self, benign_2d_run):
        report = output_size_report(benign_2d_run.trace)
        assert set(report.output_diameters) == set(
            benign_2d_run.fault_free_outputs
        )


class TestCostSummary:
    def test_counters(self, benign_2d_run):
        summary = cost_summary(benign_2d_run.trace)
        assert summary.messages_sent >= summary.messages_delivered
        assert summary.rounds == benign_2d_run.config.t_end
        assert summary.max_vertices_seen >= 3
