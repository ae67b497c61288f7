#!/usr/bin/env python
"""Retransmission overhead of the reliable transport vs link loss rate.

Runs the same seeded Algorithm CC instance three ways — on the structural
reliable network (the zero-cost baseline), and over the lossy fabric +
reliable transport at loss rates 0, 0.1, and 0.3 (with proportional
duplication and delay jitter) — and records the cost of *earning* the
paper's channel model into ``BENCH_transport.json`` at the repository
root:

* ``frame_overhead``  — fabric frame deliveries per application message
  delivered (data + retransmissions + acks);
* ``retransmission_ratio`` — retransmissions per application message;
* wall-clock seconds, plus the raw transport counters.

Claims asserted (both modes):

* every configuration decides and delivers every application message
  exactly once (the transport's whole point);
* the retransmission ratio grows monotonically with the loss rate
  (averaged over seeds — each loss rate is a *different* execution, so
  per-seed frame counts are not comparable point-to-point);
* the loss-free transport run pays acks but stays within a constant
  factor of the baseline's delivery count.

``--smoke`` runs the loss ∈ {0, 0.3} endpoints at one seed only, in a
few seconds, for CI's fast tier.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import record_bench  # noqa: E402
from repro.core.runner import run_convex_hull_consensus  # noqa: E402
from repro.runtime.faults import LinkFaultPlan  # noqa: E402
from repro.runtime.scheduler import RandomScheduler  # noqa: E402

N, D, F, EPS = 5, 2, 1, 0.2
FULL_LOSS_RATES = (0.0, 0.1, 0.3)
SMOKE_LOSS_RATES = (0.0, 0.3)
FULL_SEEDS = (0, 1, 2)
SMOKE_SEEDS = (0,)


def _inputs(seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(N, D))


def _run(inputs: np.ndarray, link_plan: LinkFaultPlan | None, seed: int):
    start = time.perf_counter()
    result = run_convex_hull_consensus(
        inputs,
        F,
        EPS,
        scheduler=RandomScheduler(seed=seed),
        link_faults=link_plan,
    )
    seconds = time.perf_counter() - start
    return result, seconds


def _mean(values):
    return sum(values) / len(values)


def measure(
    loss_rates: tuple[float, ...], seeds: tuple[int, ...] = (0,)
) -> dict[str, dict]:
    rows: dict[str, dict] = {}
    # One untimed run first, so that no timed row pays the process's
    # one-time warm-up (scipy's lazy import, the first geometry calls).
    _run(_inputs(seeds[0]), None, seeds[0])

    base_runs = []
    for seed in seeds:
        result, seconds = _run(_inputs(seed), None, seed)
        assert len(result.report.decided) == N
        base_runs.append((result.report, seconds))
    rows["baseline_reliable_network"] = {
        "loss": None,
        "seeds": len(seeds),
        "seconds": _mean([s for _, s in base_runs]),
        "app_messages": _mean([r.messages_delivered for r, _ in base_runs]),
        "frame_deliveries": _mean([r.delivery_steps for r, _ in base_runs]),
        "frame_overhead": 1.0,
        "retransmission_ratio": 0.0,
    }
    print(
        f"baseline        deliveries {rows['baseline_reliable_network']['frame_deliveries']:8.1f}  "
        f"{rows['baseline_reliable_network']['seconds'] * 1e3:8.1f} ms"
    )

    for loss in loss_rates:
        runs = []
        for seed in seeds:
            plan = LinkFaultPlan.uniform(
                loss=loss,
                dup=loss / 2,
                delay=2 if loss else 0,
                reorder=loss,
                seed=seed,
            )
            result, seconds = _run(_inputs(seed), plan, seed)
            report = result.report
            assert len(report.decided) == N
            # Exactly-once reliable delivery: nothing lost, nothing doubled.
            assert report.messages_delivered == report.messages_sent
            runs.append((report, seconds))

        def counter(key):
            return _mean([r.perf_counters.get(key, 0) for r, _ in runs])

        app = _mean([r.messages_delivered for r, _ in runs])
        frames = _mean([r.delivery_steps for r, _ in runs])
        row = {
            "loss": loss,
            "dup": loss / 2,
            "seeds": len(seeds),
            "seconds": _mean([s for _, s in runs]),
            "app_messages": app,
            "frame_deliveries": frames,
            "frame_overhead": frames / app,
            "retransmission_ratio": counter("retransmissions") / app,
            "retransmissions": counter("retransmissions"),
            "ack_messages": counter("ack_messages"),
            "dup_drops": counter("dup_drops"),
            "link_drops": counter("link_drops"),
            "link_dups": counter("link_dups"),
        }
        rows[f"transport_loss_{loss:g}"] = row
        print(
            f"loss={loss:4.2f}       deliveries {frames:8.1f}  "
            f"{row['seconds'] * 1e3:8.1f} ms  overhead {row['frame_overhead']:5.2f}x  "
            f"retx/msg {row['retransmission_ratio']:5.2f}"
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="loss-rate endpoints only, for CI's fast tier",
    )
    args = parser.parse_args(argv)

    loss_rates = SMOKE_LOSS_RATES if args.smoke else FULL_LOSS_RATES
    seeds = SMOKE_SEEDS if args.smoke else FULL_SEEDS
    rows = measure(loss_rates, seeds)

    # Retransmission work grows monotonically with loss (seed-averaged).
    curve = [
        rows[f"transport_loss_{loss:g}"]["retransmission_ratio"]
        for loss in loss_rates
    ]
    assert all(b > a for a, b in zip(curve, curve[1:])), (
        f"retransmission ratio not monotone in loss rate: {curve}"
    )
    # The loss-free transport pays acks + spurious retransmissions, but
    # stays within a small constant factor of the structural network.
    lossfree = rows["transport_loss_0"]
    baseline = rows["baseline_reliable_network"]
    factor = lossfree["frame_deliveries"] / baseline["frame_deliveries"]
    assert factor < 8.0, f"loss-free transport overhead factor {factor:.1f}x"

    for name, row in rows.items():
        record_bench("transport", name, **row)
    print("BENCH_transport.json updated")
    return 0


def bench_transport_overhead(benchmark):
    """pytest-benchmark entry (slow tier): the full loss-rate curve."""
    benchmark.pedantic(lambda: main([]), rounds=1, iterations=1)


if __name__ == "__main__":
    sys.exit(main())
