"""The contract between the program and the sweep-cell benchmark in ``perfbench/``.

``perfbench/run.py`` and ``perfbench/tracer.py`` import program names
(switch checks, ``PERF``, ``clear_geometry_caches``), wrap 14 layer entry
points by module and name, and read ``PERF`` fields by name.  The files
themselves must not change when the program does, so this test loads them
as they are and fails if the program stops providing any of it: a renamed
entry point, a deleted counter, a switch check that no longer passes.
No float is hashed, so the test holds on every numpy version.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def harness(monkeypatch):
    """``perfbench``'s ``run`` and ``tracer`` modules, imported unedited."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loaded = set(sys.modules)
    import run
    import tracer

    for name in run.SWITCHES:
        monkeypatch.delenv(name, raising=False)
    yield run, tracer
    for name in ("run", "tracer", "cells"):
        if name not in loaded:
            sys.modules.pop(name, None)


def synthetic_record(perf: dict) -> dict:
    """One completed cell record, shaped like ``run.run_pass`` output."""
    return {
        "seed": 0,
        "failed": False,
        "seconds": 1.0,
        "probe_chunks": 500,
        "probe_s": 1.0,
        "messages": 1,
        "delivered": 1,
        "steps": 1,
        "states": 1,
        "distinct_states": 1,
        "perf": perf,
        "layers": {},
    }


def test_harness_contract(harness):
    run, tracer = harness
    run.check_switches()
    cells = run.import_program()

    t = tracer.Tracer()
    t.install()
    try:
        for _layer, module_name, qualname in tracer.TARGETS:
            owner = sys.modules[module_name]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                bound = vars(getattr(owner, cls_name))[attr]
            else:
                bound = getattr(owner, qualname)
            assert hasattr(bound, "tracer_span"), f"{module_name}.{qualname} not wrapped"
        assert tracer.bound_wrappers()
    finally:
        t.remove()
    assert tracer.bound_wrappers() == []

    rec = synthetic_record({k: 0 for k in cells.PERF.as_dict()})
    metrics, _shares = run.per_layer([rec], [rec])
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
