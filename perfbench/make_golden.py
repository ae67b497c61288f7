"""Regenerate ``golden.json``: the expected digest of every corpus case.

Run from the root of a checkout, on the commit whose outputs are the
reference::

    python3 perfbench/make_golden.py

It rewrites the goldens of every workload.  Writing new goldens declares
the current outputs correct; do it only when an output change is
intended, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from time import perf_counter

import run


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    run.check_switches()
    cells = run.import_program()
    golden = {}
    for name, workload in cells.WORKLOADS.items():
        entries, times = {}, []
        for seed in range(workload.corpus_size):
            case = workload.build(seed)
            cells.clear_geometry_caches()
            t0 = perf_counter()
            result, row = cells.run_cell(case)
            times.append(perf_counter() - t0)
            if not row.ok:
                raise SystemExit(f"{name} case {seed} is not ok: {row.status}")
            states, distinct = cells.state_counts(result)
            entries[str(seed)] = {
                "digest": cells.digest(result, row),
                "distinct_state_ratio": distinct / states,
            }
        golden[name] = entries
        print(
            f"{name}: {len(times)} cases, total {sum(times):.2f} s, "
            f"median {statistics.median(times):.3f} s, "
            f"min {min(times):.3f} s, max {max(times):.3f} s",
            file=sys.stderr,
        )
    path = run.HERE / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
