"""Self-test of the benchmark harness on a tiny pass.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that every metric ``BENCHMARK.json`` names is emitted with its
unit, that a perturbed golden digest is counted as a failed case, that
no layer wrapper is left bound in any ``repro`` module or class after
the traced pass, and that an untraced pass after it gives the same
``PERF`` counts as before it.
"""

from __future__ import annotations

import json
import sys

import run
from tracer import TARGETS, Tracer, bound_wrappers

WORKLOAD = "starved-outlier"


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def main() -> int:
    run.check_switches()
    cells = run.import_program()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    golden_all, cases = run.setup(cells, WORKLOAD, seed=7, seconds=2)
    golden = golden_all[WORKLOAD]
    before = run.run_pass(cells, cases, golden)
    check(not any(r["failed"] for r in before), "a clean case failed")
    e2e, _ = run.end_to_end(before, setup_s=1.0)
    traced, _ = run.traced_pass(cells, cases, golden)
    layers, _ = run.per_layer(traced, before)
    after = run.run_pass(cells, cases, golden)

    # 1. every named metric is emitted with its unit.
    emitted = {name: unit for name, (_, unit) in e2e.items()}
    emitted.update({name: run.unit_of(name) for name in layers})
    for metric in spec["end_to_end"] + spec["per_layer"]:
        check(metric["name"] in emitted, f"metric {metric['name']} not emitted")
        check(
            emitted[metric["name"]] == metric["unit"],
            f"{metric['name']} emitted in {emitted[metric['name']]}, "
            f"BENCHMARK.json says {metric['unit']}",
        )

    # 2. a perturbed digest is counted as a failure.
    perturbed = {seed: dict(entry) for seed, entry in golden.items()}
    perturbed[str(cases[0].seed)]["digest"] = "0" * 64
    records = run.run_pass(cells, cases[:1], perturbed)
    check(records[0]["failed"], "a perturbed digest did not fail the case")

    # 3. the wrappers are gone.  The scan must see them while installed,
    # or finding none afterwards proves nothing.
    left = bound_wrappers()
    check(not left, f"wrappers still bound after the traced pass: {left}")
    scratch = Tracer()
    scratch.install()
    try:
        installed = bound_wrappers()
    finally:
        scratch.remove()
    check(
        len(installed) >= len(TARGETS),
        f"the scan found {len(installed)} wrappers while {len(TARGETS)} targets were installed",
    )
    check(not bound_wrappers(), "wrappers still bound after remove()")

    # 4. the traced pass leaves the program deterministic: same PERF counts.
    check(
        [r["perf"] for r in before] == [r["perf"] for r in after],
        "PERF counts differ after the traced pass",
    )
    print(f"selftest ok: {len(emitted)} metrics, {len(cases)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
