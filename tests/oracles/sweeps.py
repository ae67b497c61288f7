"""Reference for the sweep row: the full series and the full size report.

``repro.analysis.sweeps.row_from_result`` measures only the first and last
disagreement rounds and the fault-free outputs.  This is the row it
replaced, which built the whole ``convergence_series`` and the whole
``output_size_report`` and read three numbers from them.
"""

from __future__ import annotations

from repro.analysis.metrics import convergence_series, output_size_report
from repro.analysis.sweeps import STATUS_OK, STATUS_VIOLATION, SweepRow
from repro.core.invariants import check_all


def reference_row(seed, result, *, check=None) -> SweepRow:
    report = check(result) if check is not None else check_all(result.trace)
    series = convergence_series(result.trace)
    sizes = output_size_report(result.trace)
    ok = bool(report.ok)
    return SweepRow(
        seed=int(seed),
        properties_ok=ok,
        status=STATUS_OK if ok else STATUS_VIOLATION,
        disagreement_round0=(
            float(series.disagreement[0]) if series.disagreement else 0.0
        ),
        final_disagreement=(
            float(series.disagreement[-1]) if series.disagreement else 0.0
        ),
        messages=int(result.trace.messages_sent),
        min_output_measure=float(
            min(sizes.output_measures.values(), default=0.0)
        ),
        decided=len(result.report.decided),
        crashed=len(result.report.crashed),
    )
