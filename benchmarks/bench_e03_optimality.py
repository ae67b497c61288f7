"""E3 — Output optimality (paper Lemma 6 + Theorem 3).

Claim operationalized: in every execution the optimal polytope ``I_Z``
(Eq. 21, computed from the common view ``Z``) is contained in every state
``h_i[t]`` at every round — zero containment violations — and the decided
polytopes converge *down* toward ``I_Z`` (their measure ratio vs ``I_Z``
is >= 1 and shrinks with t).
"""

import numpy as np

from repro.analysis.metrics import output_size_report
from repro.core.invariants import check_optimality
from repro.workloads.scenarios import crash_storm, outlier_attack, view_split

from _harness import print_report, render_table, run_once

SCENARIOS = {
    "outlier-attack": lambda: outlier_attack(n=8, d=2, eps=0.05),
    "crash-storm": lambda: crash_storm(n=9, d=2, f=2, eps=0.1),
    "view-split": lambda: view_split(d=1, eps=0.05),
}


def _run(name):
    result = SCENARIOS[name]().run(seed=1)
    report = check_optimality(result.trace)
    sizes = output_size_report(result.trace)
    return result, report, sizes


def bench_e03_optimality(benchmark):
    run_once(benchmark, _run, "outlier-attack")

    rows = []
    for name in SCENARIOS:
        result, report, sizes = _run(name)
        # Lemma 6: containment holds for every state of every round.
        assert report.ok, (name, report.violations[:3])
        # Theorem 3 direction: output >= I_Z (ratio never below 1).
        assert sizes.min_ratio_vs_iz >= 1.0 - 1e-9, name
        rows.append(
            [
                name,
                report.checked_states,
                len(report.violations),
                sizes.iz_measure,
                min(sizes.output_measures.values()),
                sizes.min_ratio_vs_iz,
                sizes.final_gap,
            ]
        )

    print_report(
        render_table(
            "E3 Lemma 6 / Theorem 3 — I_Z containment and output size",
            [
                "scenario",
                "states",
                "violations",
                "meas(I_Z)",
                "min meas(out)",
                "min ratio",
                "final d_H gap",
            ],
            rows,
            width=14,
        )
    )
