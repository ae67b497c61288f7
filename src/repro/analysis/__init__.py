"""Measurement and reporting layer for the experiment harness."""

from .ascii_plot import AsciiCanvas, plot_execution
from .ergodicity import (
    delta,
    is_scrambling,
    lambda_coefficient,
    lemma3_chain_bound,
    pairwise_common_mass,
    paper_uniform_bound,
    verify_submultiplicativity,
)
from .metrics import (
    ConvergenceSeries,
    CostSummary,
    OutputSizeReport,
    convergence_series,
    cost_summary,
    output_size_report,
)
from .engine import (
    EngineReport,
    TaskResult,
    TaskSpec,
    run_grid,
    task_key,
)
from .quorum_stats import QuorumReport, QuorumRound, explain_contraction, quorum_report
from .reporting import format_value, print_report, render_series, render_table, spark
from .sweeps import SweepRow, SweepSummary, run_sweep, sweep_scenario
from .serialization import (
    dump_trace,
    load_trace,
    trace_from_dict,
    trace_to_dict,
)

__all__ = [
    "AsciiCanvas",
    "ConvergenceSeries",
    "CostSummary",
    "EngineReport",
    "OutputSizeReport",
    "QuorumReport",
    "QuorumRound",
    "SweepRow",
    "SweepSummary",
    "TaskResult",
    "TaskSpec",
    "convergence_series",
    "cost_summary",
    "delta",
    "dump_trace",
    "explain_contraction",
    "format_value",
    "is_scrambling",
    "lambda_coefficient",
    "lemma3_chain_bound",
    "load_trace",
    "pairwise_common_mass",
    "plot_execution",
    "paper_uniform_bound",
    "output_size_report",
    "print_report",
    "quorum_report",
    "render_series",
    "render_table",
    "run_grid",
    "run_sweep",
    "spark",
    "sweep_scenario",
    "task_key",
    "trace_from_dict",
    "trace_to_dict",
    "verify_submultiplicativity",
]
