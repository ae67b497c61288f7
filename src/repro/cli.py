"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``scenario``        run a named adversarial scenario and report the outcome
``consensus``       run an ad-hoc convex hull consensus instance (alias:
                    ``run``) — ``--loss-rate``/``--dup-rate``/
                    ``--partition`` put it on the lossy fabric behind the
                    reliable transport; ``--raw-transport`` bypasses the
                    recovery layer to demonstrate the delivery oracle;
                    ``--recover-at PID:STEPS`` (with ``--durability``)
                    revives a ``--crash``\\ ed process after STEPS
                    deliveries; ``--algorithm bcc`` runs the Byzantine
                    sibling and ``--byzantine PID[:BEHAVIORS]`` arms the
                    adversary (``--corrupt-rate`` corrupts frames on the
                    wire — checksums + retransmission must absorb it)
``verify``          re-check a dumped trace (invariants + matrix theory)
``sweep``           run a scenario across seeds — ``--workers N`` shards the
                    grid over a process pool, ``--run-dir DIR`` checkpoints
                    each cell, ``--resume DIR`` skips completed cells
``fuzz``            randomized fault-space fuzzing (the chaos engine):
                    seeded campaigns with shrinking and repro bundles,
                    ``--replay bundle.json`` re-executes a counterexample
                    bit-identically, ``--until-violation`` hunts for the
                    first failure
``list-scenarios``  enumerate the named scenarios
``experiments``     print the DESIGN.md experiment index

Every run can dump its full execution trace as JSON (``--dump``) for
archival or external analysis; ``verify`` closes the loop by re-running
the paper's invariant checkers on a dumped trace.
"""

from __future__ import annotations

import argparse
import sys
import textwrap

from .analysis.reporting import render_table
from .analysis.serialization import dump_trace, load_trace
from .core.invariants import check_all
from .core.matrix import (
    check_claim1,
    ergodicity_coefficients,
    verify_state_evolution,
)
from .core.runner import run_convex_hull_consensus
from .runtime.faults import (
    BYZANTINE_BEHAVIORS,
    DURABILITY_MODES,
    DURABLE,
    ByzantineSpec,
    CrashSpec,
    FaultPlan,
    LinkFaultPlan,
    LinkFaultSpec,
    RecoverySpec,
)
from .workloads import scenarios as scenario_mod
from .workloads import inputs as input_gen

EXPERIMENT_INDEX = {
    "E1": "convergence vs (1-1/n)^t envelope (Eq. 18)",
    "E2": "analytic t_end vs measured rounds (Eq. 19)",
    "E3": "I_Z containment / output optimality (Lemma 6, Thm 3)",
    "E4": "validity: CC vs coordinate-wise baseline",
    "E5": "resilience bound n >= (d+2)f+1 (Eq. 2)",
    "E6": "degenerate single-point outputs (Sec. 6)",
    "E7": "vector consensus reduction vs baseline",
    "E8": "two-step function optimization (Sec. 7)",
    "E9": "Theorem 4 trade-off demonstrations",
    "E10": "scaling: cost vs n and d",
    "E11": "ergodicity of matrix products (Lemma 3)",
    "E12": "stable-vector liveness/containment (Sec. 3)",
    "E13": "strong-convexity conjecture, exploratory (Sec. 7)",
    "A1": "ablation: stable vector vs naive round-0 collection",
    "A2": "ablation: VC-reduction point selectors",
    "A3": "ablation: lockstep vs adversarial vs asyncio runtimes",
}

WORKLOADS = {
    "gaussian": lambda n, d, seed: input_gen.gaussian_cluster(n, d, seed=seed),
    "uniform": lambda n, d, seed: input_gen.uniform_box(n, d, seed=seed),
    "collinear": lambda n, d, seed: input_gen.collinear(n, d, seed=seed),
    "two-clusters": lambda n, d, seed: input_gen.two_clusters(n, d, seed=seed),
    "simplex": lambda n, d, seed: input_gen.simplex_corners(n, d),
    "identical": lambda n, d, seed: input_gen.identical(n, d),
}


def _parse_crash(spec: str) -> tuple[int, tuple[int, int]]:
    """Parse ``pid:round:after_sends`` into plan-entry form."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"crash spec must be pid:round:after_sends, got {spec!r}"
        )
    pid, round_index, after = (int(p) for p in parts)
    return pid, (round_index, after)


def _parse_recovery(spec: str) -> tuple[int, int]:
    """Parse ``pid:steps`` into a recovery-entry pair."""
    parts = spec.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"recovery spec must be pid:steps, got {spec!r}"
        )
    try:
        pid, steps = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"recovery spec must be pid:steps, got {spec!r}"
        ) from exc
    if steps < 1:
        raise argparse.ArgumentTypeError("recovery steps must be >= 1")
    return pid, steps


def _parse_byzantine(spec: str) -> tuple[int, tuple[str, ...]]:
    """Parse ``PID`` or ``PID:BEHAVIORS`` (behaviors comma-separated)."""
    parts = spec.split(":")
    if len(parts) not in (1, 2):
        raise argparse.ArgumentTypeError(
            f"byzantine spec must be PID or PID:BEHAVIORS, got {spec!r}"
        )
    try:
        pid = int(parts[0])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"byzantine spec must start with a pid, got {spec!r}"
        ) from exc
    behaviors = tuple(BYZANTINE_BEHAVIORS)
    if len(parts) == 2:
        behaviors = tuple(b for b in parts[1].split(",") if b)
        unknown = [b for b in behaviors if b not in BYZANTINE_BEHAVIORS]
        if not behaviors or unknown:
            raise argparse.ArgumentTypeError(
                f"behaviors must be a non-empty subset of "
                f"{BYZANTINE_BEHAVIORS}, got {parts[1]!r}"
            )
    return pid, behaviors


def _parse_partition(spec: str) -> tuple[tuple[int, ...], int, int | None]:
    """Parse ``PIDS:START:HEAL`` (pids comma-separated, heal -1 = never)."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"partition spec must be PIDS:START:HEAL, got {spec!r}"
        )
    try:
        pids = tuple(int(p) for p in parts[0].split(",") if p)
        start, heal = int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"partition spec must be PIDS:START:HEAL, got {spec!r}"
        ) from exc
    if not pids:
        raise argparse.ArgumentTypeError("partition needs at least one pid")
    return pids, start, (None if heal < 0 else heal)


def _build_link_plan(args, n: int) -> LinkFaultPlan | None:
    """Assemble the CLI's link-fault flags into a plan (None = reliable)."""
    base = LinkFaultSpec(
        loss=args.loss_rate,
        dup=args.dup_rate,
        delay=args.link_delay,
        reorder=args.reorder_rate,
        corrupt=args.corrupt_rate,
    )
    if args.partition is not None:
        pids, start, heal = args.partition
        return LinkFaultPlan.isolate(
            pids, n, start, heal, base=base, seed=args.link_seed
        )
    if base.faulty or args.raw_transport:
        return LinkFaultPlan(default=base, seed=args.link_seed)
    return None


def _summarise(result, out=None) -> None:
    out = out if out is not None else sys.stdout
    trace = result.trace
    rows = []
    for pid, poly in sorted(result.outputs.items()):
        rows.append(
            [
                pid,
                "faulty" if pid in trace.faulty else "ok",
                poly.num_vertices,
                poly.diameter,
                poly.measure(),
            ]
        )
    print(
        render_table(
            f"decisions (n={trace.n}, f={trace.f}, d={trace.dim}, "
            f"eps={trace.eps}, t_end={trace.t_end}, "
            f"messages={trace.messages_sent})",
            ["pid", "status", "vertices", "diameter", "measure"],
            rows,
        ),
        file=out,
    )


def _print_counters(counters: dict[str, int]) -> None:
    """Print a run's whole counter dict, zeros included, as sorted name=value pairs."""
    pairs = " ".join(f"{name}={value}" for name, value in sorted(counters.items()))
    print(textwrap.fill(pairs, width=100, initial_indent="counters: ", subsequent_indent="  "))


def _check_and_report(trace, *, matrix_checks: bool, out=None) -> bool:
    out = out if out is not None else sys.stdout
    report = check_all(trace)
    rows = [
        ["validity", report.validity.ok, len(report.validity.violations)],
        ["eps-agreement", report.agreement.ok, report.agreement.disagreement],
        ["termination", report.termination.ok, len(report.termination.stuck)],
        (
            [
                "lemma6-containment",
                report.optimality.ok,
                len(report.optimality.violations),
            ]
            if report.optimality is not None
            else ["lemma6-containment", "n/a", "-"]
        ),
        ["stable-vector", report.stable_vector.ok, "-"],
    ]
    ok = report.ok
    if matrix_checks and not any(p.r_view is not None for p in trace.processes):
        # Theorem 1 / Lemma 3 are statements about the crash algorithm's
        # stable-vector rounds; a BCC trace has no views to verify.
        print("matrix checks skipped: trace has no stable-vector views", file=out)
        matrix_checks = False
    if matrix_checks:
        evolution = verify_state_evolution(trace)
        ergodicity = ergodicity_coefficients(trace)
        claim1 = check_claim1(trace)
        rows.append(["theorem1-evolution", evolution.ok, evolution.max_hausdorff_error])
        rows.append(["lemma3-ergodicity", ergodicity.ok, max(ergodicity.deltas, default=0.0)])
        rows.append(["claim1-columns", claim1, "-"])
        ok = ok and evolution.ok and ergodicity.ok and claim1
    print(render_table("paper properties", ["check", "ok", "detail"], rows), file=out)
    return ok


def cmd_scenario(args) -> int:
    factory = scenario_mod.ALL_SCENARIOS.get(args.name)
    if factory is None:
        print(f"unknown scenario {args.name!r}; see list-scenarios", file=sys.stderr)
        return 2
    scenario = factory()
    result = scenario.run(seed=args.seed)
    _summarise(result)
    if args.plot and result.trace.dim == 2:
        from .analysis.ascii_plot import plot_execution

        poly = next(iter(result.fault_free_outputs.values()))
        print(
            plot_execution(
                result.trace.all_inputs,
                poly,
                faulty=result.trace.faulty,
                title=f"{args.name}: inputs (o correct, x faulty) and one decided region",
            )
        )
    ok = _check_and_report(result.trace, matrix_checks=args.matrix)
    if args.dump:
        dump_trace(result.trace, args.dump)
        print(f"trace written to {args.dump}")
    return 0 if ok else 1


def cmd_consensus(args) -> int:
    gen = WORKLOADS.get(args.workload)
    if gen is None:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    inputs = gen(args.n, args.d, args.seed)
    plan = FaultPlan.none()
    if args.crash or args.byzantine:
        crashes = dict(args.crash or [])
        byzantine = {
            pid: ByzantineSpec(
                behaviors=behaviors,
                rate=args.byzantine_rate,
                magnitude=args.byzantine_magnitude,
                seed=args.byzantine_seed,
            )
            for pid, behaviors in (args.byzantine or [])
        }
        recoveries = {
            pid: RecoverySpec(recover_at=steps, durability=args.durability)
            for pid, steps in (args.recover_at or [])
        }
        try:
            plan = FaultPlan(
                faulty=frozenset(crashes) | frozenset(byzantine),
                crashes={
                    pid: CrashSpec(round_index=r, after_sends=k)
                    for pid, (r, k) in crashes.items()
                },
                recoveries=recoveries,
                byzantine=byzantine,
            ).validate(args.n)
        except ValueError as exc:
            print(f"invalid fault plan: {exc}", file=sys.stderr)
            return 2
    elif args.recover_at:
        print("--recover-at requires a matching --crash", file=sys.stderr)
        return 2
    from .core.algorithm_cc import EmptyInitialPolytopeError
    from .runtime.network import ChannelError
    from .runtime.simulator import SimulationError

    link_plan = _build_link_plan(args, args.n)
    try:
        result = run_convex_hull_consensus(
            inputs,
            args.f,
            args.eps,
            fault_plan=plan,
            seed=args.seed,
            link_faults=link_plan,
            reliable_transport=not args.raw_transport,
            algorithm=args.algorithm,
        )
    except ChannelError as exc:
        print(f"channel contract violated: {exc}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"no termination: {exc}", file=sys.stderr)
        return 1
    except EmptyInitialPolytopeError as exc:
        print(f"empty initial polytope: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    _summarise(result)
    _print_counters(result.report.perf_counters)
    if plan.recoveries:
        print(f"recovery: recovered={sorted(result.report.recovered)}")
    ok = _check_and_report(result.trace, matrix_checks=args.matrix)
    if args.dump:
        dump_trace(result.trace, args.dump)
        print(f"trace written to {args.dump}")
    return 0 if ok else 1


def cmd_verify(args) -> int:
    trace = load_trace(args.trace)
    ok = _check_and_report(trace, matrix_checks=not args.no_matrix)
    print("OK" if ok else "PROPERTY VIOLATIONS FOUND")
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    if args.name not in scenario_mod.ALL_SCENARIOS:
        print(f"unknown scenario {args.name!r}; see list-scenarios", file=sys.stderr)
        return 2
    from .analysis.sweeps import SweepSummary, run_sweep

    run_dir = args.resume if args.resume is not None else args.run_dir
    on_result = None
    if args.progress:

        def on_result(result) -> None:
            print(
                f"  [{result.status}] {result.key} "
                f"({result.seconds:.2f}s, attempt {result.attempts})"
            )

    summary, engine = run_sweep(
        args.name,
        range(args.seeds),
        workers=args.workers,
        run_dir=run_dir,
        resume=args.resume is not None,
        retries=args.retries,
        retry_backoff=args.retry_backoff,
        on_result=on_result,
        cache_dir=args.cache_dir,
    )
    print(
        render_table(
            f"sweep of {args.name!r} over {args.seeds} seeds",
            SweepSummary.TABLE_COLUMNS,
            summary.table_rows(),
        )
    )
    print(
        f"engine: workers={engine.workers} executed={engine.executed} "
        f"reused={engine.reused} failed={engine.failed} "
        f"wall={engine.wall_seconds:.2f}s cell-time={engine.cell_seconds:.2f}s"
    )
    _print_counters(engine.counters)
    if engine.run_dir is not None:
        print(f"checkpoints: {engine.run_dir}")
    for row in summary.rows:
        if row.status == "error":
            print(f"seed {row.seed} ERROR: {row.error}", file=sys.stderr)
    return 0 if summary.all_ok else 1


def cmd_fuzz(args) -> int:
    from .chaos import (
        FuzzConfig,
        hunt,
        load_bundle,
        make_bundle,
        replay_bundle,
        run_campaign,
        write_bundle,
    )

    if args.replay is not None:
        bundle = load_bundle(args.replay)
        outcome, identical = replay_bundle(bundle)
        kind = outcome.violation.kind if outcome.violation else "-"
        print(
            f"replayed {outcome.case.case_id}: status={outcome.status} "
            f"kind={kind} schedule={len(outcome.schedule)} "
            f"fingerprint={'match' if identical else 'MISMATCH'}"
        )
        if not identical:
            print(
                "replay diverged from the recorded execution — "
                "determinism bug or stale bundle",
                file=sys.stderr,
            )
        return 0 if identical else 1

    config = FuzzConfig(
        profile=args.profile,
        reliable_transport=not args.raw_transport,
    )

    if args.until_violation:
        found = hunt(
            config,
            budget=args.iterations,
            seed0=args.seed,
            shrink_violations=args.shrink,
        )
        if found is None:
            print(
                f"no violation in {args.iterations} cases "
                f"(profile={args.profile}, seed0={args.seed})"
            )
            return 0
        outcome, shrink_result, tried = found
        print(
            f"violation after {tried} cases: {outcome.case.case_id} "
            f"kind={outcome.violation.kind} "
            f"(n={outcome.case.n}, d={outcome.case.d}, f={outcome.case.f})"
        )
        if shrink_result is not None:
            print(
                f"shrunk: schedule {len(outcome.schedule)} -> "
                f"{len(shrink_result.schedule)}, "
                f"{shrink_result.runs} replays, "
                f"minimal={shrink_result.minimal}"
            )
            for step in shrink_result.reductions:
                print(f"  - {step}")
        if args.bundle_dir is not None:
            from pathlib import Path

            bundle = make_bundle(outcome, shrink_result=shrink_result)
            path = write_bundle(
                bundle,
                Path(args.bundle_dir) / f"{outcome.case.case_id}.json",
            )
            print(f"repro bundle: {path}")
        return 1

    on_result = None
    if args.progress:

        def on_result(result) -> None:
            status = (
                result.row["status"]
                if result.ok and result.row
                else result.status
            )
            print(f"  [{status}] {result.key} ({result.seconds:.2f}s)")

    run_dir = args.resume if args.resume is not None else args.run_dir
    summary = run_campaign(
        config,
        args.iterations,
        seed0=args.seed,
        workers=args.workers,
        run_dir=run_dir,
        resume=args.resume is not None,
        retries=args.retries,
        retry_backoff=args.retry_backoff,
        shrink_violations=args.shrink,
        bundle_dir=args.bundle_dir,
        on_result=on_result,
        cache_dir=args.cache_dir,
    )
    print(summary.triage_table())
    engine = summary.report
    print(
        f"campaign: {args.iterations} cases, ok={summary.ok} "
        f"violations={len(summary.violations)} "
        f"(expected={len(summary.expected_violations)}, "
        f"unexpected={len(summary.unexpected_violations)}) "
        f"errors={summary.errors} | workers={engine.workers} "
        f"executed={engine.executed} reused={engine.reused} "
        f"wall={engine.wall_seconds:.2f}s"
    )
    if engine.run_dir is not None:
        print(f"checkpoints: {engine.run_dir}")
    for path in summary.bundle_paths:
        print(f"repro bundle: {path}")
    for row in summary.unexpected_violations:
        print(
            f"UNEXPECTED: {row['case_id']} -> {row['violation']['kind']}: "
            f"{row['violation']['detail']}",
            file=sys.stderr,
        )
    return 1 if summary.unexpected_violations or summary.errors else 0


def cmd_list_scenarios(_args) -> int:
    rows = [[name] for name in sorted(scenario_mod.ALL_SCENARIOS)]
    print(render_table("named scenarios", ["name"], rows, width=20))
    return 0


def cmd_experiments(_args) -> int:
    rows = [[eid, desc] for eid, desc in EXPERIMENT_INDEX.items()]
    print(render_table("experiment index (see DESIGN.md)", ["id", "claim"], rows, width=44))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Asynchronous convex hull consensus (Tseng & Vaidya, PODC 2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scenario = sub.add_parser("scenario", help="run a named scenario")
    p_scenario.add_argument("name")
    p_scenario.add_argument("--seed", type=int, default=0)
    p_scenario.add_argument("--dump", metavar="FILE", default=None)
    p_scenario.add_argument(
        "--matrix", action="store_true", help="also verify Theorem 1 / Lemma 3"
    )
    p_scenario.add_argument(
        "--plot", action="store_true", help="ASCII plot (2-d scenarios)"
    )
    p_scenario.set_defaults(func=cmd_scenario)

    p_run = sub.add_parser(
        "consensus", aliases=["run"], help="run an ad-hoc instance"
    )
    p_run.add_argument("--n", type=int, default=8)
    p_run.add_argument("--d", type=int, default=2)
    p_run.add_argument("--f", type=int, default=1)
    p_run.add_argument("--eps", type=float, default=0.1)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--workload", default="gaussian", choices=sorted(WORKLOADS)
    )
    p_run.add_argument(
        "--algorithm",
        default="cc",
        choices=("cc", "bcc"),
        help="'cc' is the paper's crash-model algorithm; 'bcc' the "
        "Byzantine sibling at the max(3f+1, (d+2)f+1) bound",
    )
    p_run.add_argument(
        "--crash",
        type=_parse_crash,
        action="append",
        metavar="PID:ROUND:SENDS",
        help="crash process PID in ROUND after SENDS sends (repeatable)",
    )
    p_run.add_argument(
        "--byzantine",
        type=_parse_byzantine,
        action="append",
        metavar="PID[:BEHAVIORS]",
        help="make process PID Byzantine (repeatable); BEHAVIORS is a "
        "comma-separated subset of equivocate,forge,omit (default all)",
    )
    p_run.add_argument(
        "--byzantine-rate",
        type=float,
        default=1.0,
        help="probability each Byzantine send is attacked (default 1.0)",
    )
    p_run.add_argument(
        "--byzantine-magnitude",
        type=float,
        default=8.0,
        help="coordinate bound of forged values (default 8.0)",
    )
    p_run.add_argument(
        "--byzantine-seed",
        type=int,
        default=0,
        help="root seed of the adversary RNG streams (default 0)",
    )
    p_run.add_argument(
        "--recover-at",
        type=_parse_recovery,
        action="append",
        metavar="PID:STEPS",
        help="revive crashed process PID after STEPS further deliveries "
        "(repeatable; each PID needs a matching --crash)",
    )
    p_run.add_argument(
        "--durability",
        default=DURABLE,
        choices=sorted(DURABILITY_MODES),
        help="what a revived process remembers: 'durable' restores its "
        "checkpoint, 'amnesia' restarts the protocol from its input, "
        "'late-join' rejoins silently with no state (default: durable)",
    )
    p_run.add_argument(
        "--loss-rate",
        type=float,
        default=0.0,
        help="per-transmission drop probability on every link (< 1)",
    )
    p_run.add_argument(
        "--dup-rate",
        type=float,
        default=0.0,
        help="per-transmission duplication probability on every link",
    )
    p_run.add_argument(
        "--reorder-rate",
        type=float,
        default=0.0,
        help="probability of extra reordering jitter per frame",
    )
    p_run.add_argument(
        "--corrupt-rate",
        type=float,
        default=0.0,
        help="per-transmission frame-corruption probability on every "
        "link; checksums drop corrupted frames, retransmission recovers",
    )
    p_run.add_argument(
        "--link-delay",
        type=int,
        default=0,
        help="maximum uniform extra delivery delay in fabric steps",
    )
    p_run.add_argument(
        "--partition",
        type=_parse_partition,
        metavar="PIDS:START:HEAL",
        default=None,
        help="isolate comma-separated PIDS over fabric clock "
        "[START, HEAL); HEAL -1 never heals (delivery-budget abort)",
    )
    p_run.add_argument(
        "--link-seed",
        type=int,
        default=0,
        help="seed of the per-link fault RNG streams",
    )
    p_run.add_argument(
        "--raw-transport",
        action="store_true",
        help="bypass the reliable-delivery layer: lossy links then trip "
        "the ChannelError oracle at the delivery boundary",
    )
    p_run.add_argument("--dump", metavar="FILE", default=None)
    p_run.add_argument("--matrix", action="store_true")
    p_run.set_defaults(func=cmd_consensus)

    p_verify = sub.add_parser("verify", help="re-check a dumped trace")
    p_verify.add_argument("trace")
    p_verify.add_argument("--no-matrix", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser(
        "sweep", help="run a scenario across seeds (parallel, resumable)"
    )
    p_sweep.add_argument("name")
    p_sweep.add_argument("--seeds", type=int, default=5)
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size; 1 runs in-process (default)",
    )
    p_sweep.add_argument(
        "--run-dir",
        metavar="DIR",
        default=None,
        help="checkpoint completed cells to DIR/results.jsonl",
    )
    p_sweep.add_argument(
        "--resume",
        metavar="DIR",
        default=None,
        help="resume a checkpointed sweep, skipping completed cells "
        "(implies --run-dir DIR)",
    )
    p_sweep.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts for a cell that raises (default 0)",
    )
    p_sweep.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="shared cross-worker geometry cache directory (exported to "
        "workers as REPRO_CACHE_DIR; created if missing)",
    )
    p_sweep.add_argument(
        "--retry-backoff",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="base of the deterministic exponential backoff between "
        "retry attempts (default 0 = immediate)",
    )
    p_sweep.add_argument(
        "--progress",
        action="store_true",
        help="print one line per completed cell",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="randomized fault-space fuzzing with shrinking and repro bundles",
    )
    p_fuzz.add_argument(
        "--iterations",
        type=int,
        default=50,
        help="number of fuzz cases (or hunt budget with --until-violation)",
    )
    p_fuzz.add_argument(
        "--seed", type=int, default=0, help="first case seed (default 0)"
    )
    p_fuzz.add_argument(
        "--profile",
        default="legal",
        choices=[
            "legal",
            "below-bound",
            "beyond-bound",
            "mixed",
            "lossy",
            "partition-heal",
            "partition-forever",
            "recovery-legal",
            "recovery-amnesia",
            "recovery-storm",
            "byzantine-legal",
            "byzantine-below-bound",
            "byzantine-beyond-bound",
            "byzantine-vs-crash",
            "byzantine-mixed",
        ],
        help="sampling profile: relative to the n >= (d+2)f+1 bound, "
        "over the link-fault space (lossy fabric + reliable transport), "
        "over crash-recover schedules (durable / amnesia / mixed), or "
        "over Byzantine adversaries (BCC around its bound, plus the "
        "byzantine-vs-crash bound-gap probe)",
    )
    p_fuzz.add_argument(
        "--raw-transport",
        action="store_true",
        help="fuzz with the recovery layer bypassed — lossy cases must "
        "then trip the delivery-boundary oracle (negative control)",
    )
    p_fuzz.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size for campaigns (default 1)",
    )
    p_fuzz.add_argument(
        "--run-dir",
        metavar="DIR",
        default=None,
        help="checkpoint completed cases to DIR/results.jsonl",
    )
    p_fuzz.add_argument(
        "--resume",
        metavar="DIR",
        default=None,
        help="resume a checkpointed campaign (implies --run-dir DIR)",
    )
    p_fuzz.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts for a case whose harness raises (default 0)",
    )
    p_fuzz.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="shared cross-worker geometry cache directory (exported to "
        "workers as REPRO_CACHE_DIR; created if missing)",
    )
    p_fuzz.add_argument(
        "--retry-backoff",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="deterministic exponential backoff base between retries",
    )
    p_fuzz.add_argument(
        "--no-shrink",
        dest="shrink",
        action="store_false",
        help="skip counterexample shrinking on violations",
    )
    p_fuzz.add_argument(
        "--bundle-dir",
        metavar="DIR",
        default=None,
        help="write repro bundles for violations to DIR/<case_id>.json",
    )
    p_fuzz.add_argument(
        "--until-violation",
        action="store_true",
        help="fuzz sequentially until the first violation, shrink it, exit 1",
    )
    p_fuzz.add_argument(
        "--replay",
        metavar="BUNDLE",
        default=None,
        help="re-execute a repro bundle and verify bit-identity",
    )
    p_fuzz.add_argument(
        "--progress",
        action="store_true",
        help="print one line per completed case",
    )
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_list = sub.add_parser("list-scenarios", help="list named scenarios")
    p_list.set_defaults(func=cmd_list_scenarios)

    p_exp = sub.add_parser("experiments", help="print the experiment index")
    p_exp.set_defaults(func=cmd_experiments)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
