"""Committed benchmark artifacts hold only counters the program has.

Every ``counters`` dict in a root ``BENCH_*.json`` is a
:class:`~repro.geometry.cache.PerfCounters` diff, so its keys must be
exactly the dataclass's field names: a field deleted from the program
leaves a stale artifact until its bench is re-run, and a field added
leaves one that under-reports.
"""

import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro.geometry.cache import PerfCounters

ROOT = Path(__file__).resolve().parents[1]
FIELDS = {f.name for f in fields(PerfCounters)}
ARTIFACTS = sorted(ROOT.glob("BENCH_*.json"))


def _counter_dicts(node, path=()):
    """Yield ``(path, dict)`` for every ``counters`` mapping in ``node``."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "counters" and isinstance(value, dict):
                yield "/".join(path + (key,)), value
            else:
                yield from _counter_dicts(value, path + (str(key),))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _counter_dicts(value, path + (str(i),))


def test_artifacts_exist():
    assert ARTIFACTS


@pytest.mark.parametrize("artifact", ARTIFACTS, ids=lambda p: p.name)
def test_counters_match_perf_counters(artifact):
    data = json.loads(artifact.read_text())
    for where, counters in _counter_dicts(data):
        assert set(counters) == FIELDS, (
            f"{artifact.name}:{where}: stale {sorted(set(counters) - FIELDS)}, "
            f"missing {sorted(FIELDS - set(counters))}"
        )
