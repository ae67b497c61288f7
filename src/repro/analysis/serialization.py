"""JSON serialization of executions — export traces for external analysis.

An :class:`~repro.runtime.tracing.ExecutionTrace` carries everything an
execution produced (views, per-round polytopes, sender sets, crash
bookkeeping).  These helpers round-trip it through plain JSON so runs can
be archived, diffed across library versions, or consumed by notebooks and
plotting tools without importing the library.

Format notes: polytopes serialize as vertex lists; views as
``[value..., sender]`` records; the fault plan as its spec dict.  The
format is versioned (``"format": 1``) so future changes stay loadable.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from ..geometry.polytope import ConvexPolytope
from ..runtime.faults import FaultPlan
from ..runtime.messages import InputTuple
from ..runtime.tracing import ExecutionTrace, ProcessTrace

FORMAT_VERSION = 1


def _polytope_to_obj(poly: ConvexPolytope) -> dict[str, Any]:
    return {"dim": poly.dim, "vertices": poly.vertices.tolist()}


def _polytope_from_obj(obj: dict[str, Any]) -> ConvexPolytope:
    verts = np.asarray(obj["vertices"], dtype=float)
    if verts.size == 0:
        return ConvexPolytope.empty(int(obj["dim"]))
    return ConvexPolytope.from_points(verts, dim=int(obj["dim"]))


def _process_to_obj(proc: ProcessTrace) -> dict[str, Any]:
    return {
        "pid": proc.pid,
        "input": proc.input_point.tolist(),
        "r_view": (
            [[list(e.value), e.sender] for e in proc.r_view]
            if proc.r_view is not None
            else None
        ),
        "states": {
            str(t): _polytope_to_obj(poly) for t, poly in proc.states.items()
        },
        "round_senders": {
            str(t): list(s) for t, s in proc.round_senders.items()
        },
        "sends_in_round": {str(r): c for r, c in proc.sends_in_round.items()},
        "crash_fired_round": proc.crash_fired_round,
        "decided": proc.decided,
        "recovered_at_step": proc.recovered_at_step,
        "recovery_durability": proc.recovery_durability,
        "restarts": proc.restarts,
        "pre_recovery_states": [
            {str(t): _polytope_to_obj(poly) for t, poly in states.items()}
            for states in proc.pre_recovery_states
        ],
    }


def _process_from_obj(obj: dict[str, Any]) -> ProcessTrace:
    proc = ProcessTrace(
        pid=int(obj["pid"]),
        input_point=np.asarray(obj["input"], dtype=float),
    )
    if obj["r_view"] is not None:
        proc.r_view = tuple(
            sorted(
                InputTuple(value=tuple(map(float, value)), sender=int(sender))
                for value, sender in obj["r_view"]
            )
        )
    proc.states = {
        int(t): _polytope_from_obj(p) for t, p in obj["states"].items()
    }
    proc.round_senders = {
        int(t): tuple(s) for t, s in obj["round_senders"].items()
    }
    proc.sends_in_round = {
        int(r): int(c) for r, c in obj["sends_in_round"].items()
    }
    proc.crash_fired_round = obj["crash_fired_round"]
    proc.decided = bool(obj["decided"])
    # .get defaults: traces archived before the crash-recovery extension.
    proc.recovered_at_step = obj.get("recovered_at_step")
    proc.recovery_durability = obj.get("recovery_durability")
    proc.restarts = int(obj.get("restarts", 0))
    proc.pre_recovery_states = [
        {int(t): _polytope_from_obj(p) for t, p in states.items()}
        for states in obj.get("pre_recovery_states", ())
    ]
    return proc


def trace_to_dict(trace: ExecutionTrace) -> dict[str, Any]:
    """Plain-dict form of a trace (JSON-compatible)."""
    return {
        "format": FORMAT_VERSION,
        "n": trace.n,
        "f": trace.f,
        "dim": trace.dim,
        "eps": trace.eps,
        "t_end": trace.t_end,
        "seed": trace.seed,
        "scheduler": trace.scheduler_name,
        "fault_plan": trace.fault_plan.to_json_dict(),
        "messages_sent": trace.messages_sent,
        "messages_delivered": trace.messages_delivered,
        "delivery_steps": trace.delivery_steps,
        "processes": [_process_to_obj(p) for p in trace.processes],
    }


def trace_from_dict(obj: dict[str, Any]) -> ExecutionTrace:
    """Rebuild a trace from :func:`trace_to_dict` output."""
    if obj.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported trace format {obj.get('format')!r}; "
            f"this build reads format {FORMAT_VERSION}"
        )
    return ExecutionTrace(
        n=int(obj["n"]),
        f=int(obj["f"]),
        dim=int(obj["dim"]),
        eps=float(obj["eps"]),
        t_end=int(obj["t_end"]),
        fault_plan=FaultPlan.from_json_dict(obj["fault_plan"]),
        seed=int(obj["seed"]),
        scheduler_name=str(obj["scheduler"]),
        processes=[_process_from_obj(p) for p in obj["processes"]],
        messages_sent=int(obj["messages_sent"]),
        messages_delivered=int(obj["messages_delivered"]),
        delivery_steps=int(obj["delivery_steps"]),
    )


def dump_trace(trace: ExecutionTrace, path) -> None:
    """Write a trace to a JSON file."""
    with open(path, "w") as fh:
        json.dump(trace_to_dict(trace), fh)


def load_trace(path) -> ExecutionTrace:
    """Read a trace previously written by :func:`dump_trace`."""
    with open(path) as fh:
        return trace_from_dict(json.load(fh))
