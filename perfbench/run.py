"""Sweep-cell benchmark: times the unit of work a sweep pays per execution.

Run from the root of a checkout::

    python3 perfbench/run.py --workload crash-adaptive --seed 1 --seconds 25 --trace 0

The benchmark is a closed loop with one client: one process, no threads,
each cell starting only after the previous one finished.  ``--trace 0``
times one pass over the workload's corpus untraced and prints every
end-to-end metric; ``--trace 1`` times half as many cells untraced, runs
the same cells again with the layer wrappers of ``tracer.py`` installed,
and prints the per-layer metrics.  Times are reported in reference
seconds (see ``PROBE_REF_RATE``).  Every cell's digest is checked against
``golden.json``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

T_START = perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

#: Program switches and the values that leave them at their default.
SWITCHES = {
    "REPRO_GEOMETRY_CACHE": ("1",),
    "REPRO_GEOMETRY_BATCH": ("1",),
    "REPRO_SUBSET_MODE": ("auto",),
    "REPRO_CACHE_DIR": ("",),
}

#: Child processes that repeat set-up, so that setup_s is a median of three.
SETUP_REPEATS = 2

#: Chunks of ``probe_chunk`` per second on the reference machine, a 2-CPU
#: VM.  Every reported time is in reference seconds: the raw time scaled
#: by the run's own probe rate over this one.  That VM's speed drifts by
#: 20-40% over seconds to minutes; the probe, which runs after every cell
#: for a tenth of the cell's time, drifts with it.  It does not touch the
#: program, so a change to the program moves the scaled times and a change
#: of machine speed largely does not.  The summary line prints raw figures.
PROBE_REF_RATE = 500.0

#: Probe time after each cell, as a share of the cell's time.
PROBE_SHARE = 0.1

#: The fixed case every set-up warms up on, whatever the run seed: outside
#: every corpus, and among the cheapest cases of all three workloads, so
#: that repeating set-up costs little of the run.
WARMUP_SEED = 28


class BenchError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-only",
        action="store_true",
        help="only set up, print the set-up seconds and exit (used for setup_s)",
    )
    return p.parse_args(argv)


def check_switches() -> dict[str, str | None]:
    """Refuse to measure a program whose switches are not at their default."""
    values = {name: os.environ.get(name) for name in SWITCHES}
    bad = {
        name: value
        for name, value in values.items()
        if value is not None and value not in SWITCHES[name]
    }
    if bad:
        raise BenchError(f"program switches not at their default: {bad}")
    return values


def import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"repro imported from {repro.__file__}, not {SRC}")
    from repro.geometry.batch import batch_enabled
    from repro.geometry.cache import cache_enabled
    from repro.geometry.intersection import subset_mode
    from repro.geometry.shared_cache import shared_cache_dir

    if not (cache_enabled() and batch_enabled() and subset_mode() == "auto"):
        raise BenchError("geometry switches not at their default")
    if shared_cache_dir() is not None:
        raise BenchError("the on-disk shared cache is on")
    import cells

    return cells


def environment(switches: dict) -> dict:
    import numpy
    import scipy

    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "switches": switches,
    }


def setup(cells, workload_name: str, seed: int, seconds: float):
    """Generate the run's cases and warm up on one untimed cell."""
    if workload_name not in cells.WORKLOADS:
        raise BenchError(
            f"unknown workload {workload_name!r}; one of {sorted(cells.WORKLOADS)}"
        )
    workload = cells.WORKLOADS[workload_name]
    golden = json.loads((HERE / "golden.json").read_text())
    cases = [workload.build(s) for s in cells.case_seeds(workload, seed, seconds)]
    cells.clear_geometry_caches()
    try:
        cells.run_cell(workload.build(WARMUP_SEED))
    except Exception as exc:  # noqa: BLE001 — the timed cells report the failure
        print(f"warm-up case raised {type(exc).__name__}: {exc}", file=sys.stderr)
    return golden, cases


def probe_chunk() -> float:
    """A fixed slice of interpreter and tiny-numpy work, like a cell's projections."""
    import numpy as np

    points = np.linspace(-1.0, 1.0, 192).reshape(64, 3)
    eye = np.eye(3)
    acc = 0.0
    for i in range(200):
        x = points[i % 64]
        acc += float(np.linalg.solve(np.outer(x, x) + eye, x) @ x)
        acc += sum(v * v for v in (i, i + 1, i + 2))
    return acc


def probe_for(seconds: float) -> tuple[int, float]:
    """Run probe chunks for at least ``seconds``; return (chunks, seconds taken)."""
    chunks = 0
    t0 = perf_counter()
    while True:
        probe_chunk()
        chunks += 1
        elapsed = perf_counter() - t0
        if elapsed >= seconds:
            return chunks, elapsed


def to_reference(records) -> float:
    """Factor from this run's seconds to reference seconds, from its probes."""
    rate = sum(r["probe_chunks"] for r in records) / sum(r["probe_s"] for r in records)
    return rate / PROBE_REF_RATE


def scaled_setup(raw_s: float) -> float:
    """Set-up seconds in reference seconds, probing right after set-up."""
    chunks, probe_s = probe_for(max(0.2, PROBE_SHARE * raw_s))
    return raw_s * to_reference([{"probe_chunks": chunks, "probe_s": probe_s}])


def setup_probe(args) -> float:
    """Scaled set-up seconds of a fresh process, as the parent measures its own."""
    out = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--setup-only",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_pass(cells, cases, golden, *, tracer=None):
    """Run every case once; return per-case records."""
    records = []
    for case_id, case in enumerate(cases):
        # Unlike a sweep worker, which keeps its caches from cell to cell,
        # each cell starts with empty geometry caches and the previous
        # cells' garbage collected: the run order comes from the seed, and
        # a cell's cost must not depend on the cells before it.
        cells.clear_geometry_caches()
        gc.collect()
        perf_before = cells.PERF.snapshot()
        t0 = perf_counter()
        try:
            if tracer is None:
                result, row = cells.run_cell(case)
            else:
                result, row = tracer.run_case(case_id, cells.run_cell, case)
            elapsed = perf_counter() - t0
            perf = cells.PERF.diff(perf_before)
            got = cells.digest(result, row)
            states, distinct = cells.state_counts(result)
        except Exception as exc:  # noqa: BLE001 — a raising cell is a failed cell
            print(f"case {case.seed} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            records.append({"seed": case.seed, "failed": True})
            if tracer is not None:
                tracer.take_case()
            continue
        chunks, probe_s = probe_for(max(0.02, PROBE_SHARE * elapsed))
        layers = tracer.take_case() if tracer is not None else None
        expected = golden.get(str(case.seed), {}).get("digest")
        failed = not row.ok or got != expected
        if failed:
            print(
                f"case {case.seed} failed: status={row.status} digest={got} "
                f"expected={expected}",
                file=sys.stderr,
            )
        records.append(
            {
                "seed": case.seed,
                "failed": failed,
                "seconds": elapsed,
                "probe_chunks": chunks,
                "probe_s": probe_s,
                "messages": result.trace.messages_sent,
                "delivered": result.report.messages_delivered,
                "steps": result.report.delivery_steps,
                "states": states,
                "distinct_states": distinct,
                "perf": perf,
                "layers": layers,
            }
        )
    return records


def completed(records) -> list[dict]:
    """The records of cases that ran to the end."""
    return [r for r in records if "seconds" in r]


def tail_index(n: int) -> int:
    """Index into n sorted samples of the highest percentile with >= 10 beyond it.

    On corpora of 22-28 cells this is p55-p64, one to four order
    statistics past the median: it does not see the few heavy cases.
    """
    return max(n - 11, (n - 1) // 2)


def end_to_end(records, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics in reference seconds; ``setup_s`` is already scaled."""
    done = completed(records)
    scale = to_reference(done)
    raw = sorted(r["seconds"] for r in done)
    times = [t * scale for t in raw]
    idx = tail_index(len(times))
    metrics = {
        "cases_per_s": (len(times) / sum(times), "1/s"),
        "case_s.p50": (statistics.median(times), "s"),
        "case_s.tail": (times[idx], "s"),
        "msgs_per_case": (statistics.fmean(r["messages"] for r in done), "msgs"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "cases": len(times),
        "tail_percentile": round(100 * (idx + 1) / len(times), 1),
        "to_reference": scale,
        "raw_cases_per_s": len(raw) / sum(raw),
        "raw_case_s.p50": statistics.median(raw),
    }
    return metrics, info


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(records, untraced) -> tuple[dict, dict]:
    """Per-case means of layer self times and counter deltas over the traced pass.

    Times are in reference seconds; ``untraced`` are the same cells'
    records without tracing, for the overhead.
    """
    done = completed(records)
    n = len(done)
    scale = to_reference(done)
    span: dict[str, list[float]] = {}
    for r in done:
        for name, (self_s, incl_s, calls) in r["layers"].items():
            acc = span.setdefault(name, [0.0, 0.0, 0])
            acc[0] += self_s * scale
            acc[1] += incl_s * scale
            acc[2] += calls
    perf = {key: sum(r["perf"][key] for r in done) for key in done[0]["perf"]}

    def self_of(*names):
        return sum(span.get(name, (0.0,))[0] for name in names) / n

    def incl_of(name):
        return span.get(name, (0.0, 0.0))[1] / n

    def calls_of(*names):
        return sum(span.get(name, (0, 0, 0))[2] for name in names) / n

    def per_case(key):
        return perf[key] / n

    traced_s = sum(r["seconds"] for r in done) * scale
    plain = completed(untraced)
    untraced_s = sum(r["seconds"] for r in plain) * to_reference(plain)
    states = sum(r["states"] for r in done)
    selfs = {
        "core.invariants": self_of(
            "core.invariants.check_all",
            "core.invariants.check_validity",
            "core.invariants.check_optimality",
        ),
        "geometry.projection": self_of("geometry.projection.project_onto_hull"),
        "analysis.metrics": self_of(
            "analysis.metrics.convergence_series", "analysis.metrics.output_size_report"
        ),
        "geometry.hausdorff": self_of(
            "geometry.hausdorff.disagreement_diameter",
            "geometry.hausdorff.hausdorff_distance",
        ),
        "geometry.combination": self_of(
            "geometry.combination.equal_weight_combination"
        ),
        "geometry.intersection": self_of(
            "geometry.intersection.intersect_subset_hulls"
        ),
        "runtime.stable_vector": self_of(
            "runtime.stable_vector.on_init", "runtime.stable_vector.on_view"
        ),
        "runtime.simulator": self_of("runtime.simulator.run_simulation"),
        "runtime.transport": self_of("runtime.transport.run_transport_simulation"),
        "case.other": self_of("case"),
    }
    metrics = {
        "core.invariants.self_s": selfs["core.invariants"],
        "core.invariants.validity_s": incl_of("core.invariants.check_validity"),
        "core.invariants.optimality_s": incl_of("core.invariants.check_optimality"),
        "core.invariants.states_checked": states / n,
        "core.invariants.distinct_state_ratio": ratio(
            sum(r["distinct_states"] for r in done), states
        ),
        "geometry.projection.self_s": selfs["geometry.projection"],
        "geometry.projection.calls": calls_of("geometry.projection.project_onto_hull"),
        "analysis.metrics.convergence_self_s": self_of(
            "analysis.metrics.convergence_series"
        ),
        "analysis.metrics.output_size_self_s": self_of(
            "analysis.metrics.output_size_report"
        ),
        "geometry.hausdorff.self_s": selfs["geometry.hausdorff"],
        "geometry.hausdorff.pairs": per_case("batch_hausdorff_pairs"),
        "geometry.hausdorff.pair_prunes": per_case("batch_hausdorff_pair_prunes"),
        "geometry.hausdorff.dedup_groups": per_case("batch_hausdorff_dedup_groups"),
        "geometry.combination.self_s": selfs["geometry.combination"],
        "geometry.combination.calls": per_case("combination_calls"),
        "geometry.combination.hit_ratio": ratio(
            perf["combination_cache_hits"], perf["combination_calls"]
        ),
        "geometry.combination.minkowski_candidates": per_case("minkowski_candidates"),
        "geometry.intersection.self_s": selfs["geometry.intersection"],
        "geometry.intersection.calls": per_case("subset_intersection_calls"),
        "geometry.intersection.hit_ratio": ratio(
            perf["subset_intersection_cache_hits"], perf["subset_intersection_calls"]
        ),
        "geometry.intersection.depth_candidates": per_case("depth_halfspace_candidates"),
        "geometry.lp.solves": per_case("lp_solves"),
        "geometry.polytope.intern_hit_ratio": ratio(
            perf["polytope_intern_hits"],
            perf["polytope_intern_hits"] + perf["polytope_intern_misses"],
        ),
        "geometry.hull.calls": per_case("hull_calls"),
        "runtime.stable_vector.self_s": selfs["runtime.stable_vector"],
        "runtime.stable_vector.calls": calls_of(
            "runtime.stable_vector.on_init", "runtime.stable_vector.on_view"
        ),
        "runtime.simulator.self_s": selfs["runtime.simulator"],
        "runtime.simulator.deliveries": sum(r["delivered"] for r in done) / n,
        "runtime.simulator.messages_sent": sum(r["messages"] for r in done) / n,
        "runtime.transport.self_s": selfs["runtime.transport"],
        "runtime.transport.retransmissions": per_case("retransmissions"),
        "runtime.transport.acks": per_case("ack_messages"),
        "runtime.transport.dup_drops": per_case("dup_drops"),
        "runtime.transport.link_drops": per_case("link_drops"),
        "runtime.transport.useful_ratio": ratio(
            sum(r["delivered"] for r in done), sum(r["steps"] for r in done)
        ),
        "case.other_self_s": selfs["case.other"],
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    case_s = traced_s / n
    shares = {layer: value / case_s for layer, value in selfs.items()}
    return metrics, shares


def stress_check(workload_name: str, shares: dict, metrics: dict, golden_all: dict) -> list[str]:
    """Problems if the workload no longer loads the layer it was chosen for."""
    problems = []

    def largest_other(*group):
        return max(v for k, v in shares.items() if k not in group)

    if workload_name == "crash-adaptive":
        group = ("core.invariants", "geometry.projection")
        if sum(shares[g] for g in group) <= largest_other(*group):
            problems.append("invariants+projection is not the largest self-time share")
    elif workload_name == "starved-outlier":
        if metrics["geometry.hausdorff.pairs"] <= 0:
            problems.append("no Hausdorff pairs: the states no longer disagree")
        symmetric = max(
            entry["distinct_state_ratio"] for entry in golden_all["crash-adaptive"].values()
        )
        if metrics["core.invariants.distinct_state_ratio"] <= symmetric:
            problems.append(
                "distinct_state_ratio not above crash-adaptive's "
                f"({metrics['core.invariants.distinct_state_ratio']:.3f} <= {symmetric:.3f})"
            )
    elif workload_name == "lossy-1d":
        group = ("runtime.transport", "runtime.simulator")
        if sum(shares[g] for g in group) <= largest_other(*group):
            problems.append("transport+simulator is not the largest self-time share")
    return problems


def result_line(correct: bool, records, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": len(records),
            "failed": sum(1 for r in records if r["failed"]),
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        }
    )


def traced_pass(cells, cases, golden):
    """Run the cases with the layer wrappers installed; remove them after."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return run_pass(cells, cases, golden, tracer=tracer), tracer
    finally:
        tracer.remove()


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "frac")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    switches = check_switches()
    cells = import_program()
    golden_all, cases = setup(cells, args.workload, args.seed, args.seconds)
    golden = golden_all[args.workload]
    setup_s = scaled_setup(perf_counter() - T_START)
    if args.setup_only:
        print(setup_s)
        return 0
    env = environment(switches)
    print(json.dumps({"environment": env}))
    problems = []
    if args.trace == 0:
        setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_REPEATS)]
        passes = [run_pass(cells, cases, golden)]
    else:
        cases = cases[: max(2, len(cases) // 2)]
        untraced = run_pass(cells, cases, golden)
        traced, tracer = traced_pass(cells, cases, golden)
        passes = [untraced, traced]
    records = [r for p in passes for r in p]
    failed = sum(1 for r in records if r["failed"])
    if not all(completed(p) for p in passes):
        # Every cell of a pass raised: the program failed, so there is
        # nothing to time, but the run itself is reported.
        print(json.dumps({"summary": {"failed_frac": failed / len(records)}}))
        print(result_line(False, records, {}))
        return 0
    if args.trace == 0:
        metrics, info = end_to_end(records, statistics.median(setups))
        info["setup_samples_s"] = setups
    else:
        layer_metrics, shares = per_layer(traced, untraced)
        problems = stress_check(args.workload, shares, layer_metrics, golden_all)
        for problem in problems:
            print(f"workload-stress check failed: {problem}", file=sys.stderr)
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        tracer.write(OUT_DIR / f"spans-{stem}.jsonl.gz")
        info = {"cases": len(traced), "self_time_shares": shares, "stress_problems": problems}
        (OUT_DIR / f"layers-{stem}.json").write_text(
            json.dumps({"environment": env, "metrics": layer_metrics, **info}, indent=1)
        )
        metrics = {name: (value, unit_of(name)) for name, value in layer_metrics.items()}
    info["failed_frac"] = failed / len(records)
    print(json.dumps({"summary": info}))
    print(result_line(failed == 0 and not problems, records, metrics))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
