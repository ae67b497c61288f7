"""The CLI prints every perf counter of a run through one printer.

A counter added to :class:`~repro.geometry.cache.PerfCounters` must show
up in ``repro consensus`` and ``repro sweep`` without a CLI edit.
"""

import re
from dataclasses import fields

from repro.cli import main
from repro.geometry.cache import PerfCounters

FIELDS = {f.name for f in fields(PerfCounters)}


def _printed_counters(out: str) -> dict[str, int]:
    return {name: int(value) for name, value in re.findall(r"\b([a-z_]+)=(\d+)\b", out)}


def test_consensus_prints_every_counter(capsys):
    assert main(["consensus", "--n", "5", "--d", "1", "--seed", "1"]) == 0
    printed = _printed_counters(capsys.readouterr().out)
    assert FIELDS - printed.keys() == set()
    assert printed["retransmissions"] == 0


def test_sweep_prints_every_counter(capsys):
    assert main(["sweep", "view-split", "--seeds", "1"]) == 0
    printed = _printed_counters(capsys.readouterr().out)
    assert FIELDS - printed.keys() == set()
