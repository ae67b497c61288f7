"""Span tracer that wraps the layers' public functions from outside.

The program carries no tracing of its own, so the traced pass installs
wrappers around each layer's entry points, runs the cells, and removes
them again.  A function is rebound in every ``repro`` module that holds
it, so ``from .projection import project_onto_hull`` call sites are
traced too.  Spans are kept in memory; each records its name, start,
end, parent span and case id.  A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import types
from time import perf_counter

#: (layer, module, qualified name) of every wrapped entry point.
TARGETS = (
    ("core.invariants", "repro.core.invariants", "check_all"),
    ("core.invariants", "repro.core.invariants", "check_validity"),
    ("core.invariants", "repro.core.invariants", "check_optimality"),
    ("geometry.projection", "repro.geometry.projection", "project_onto_hull"),
    ("analysis.metrics", "repro.analysis.metrics", "convergence_series"),
    ("analysis.metrics", "repro.analysis.metrics", "output_size_report"),
    ("geometry.hausdorff", "repro.geometry.hausdorff", "disagreement_diameter"),
    ("geometry.hausdorff", "repro.geometry.hausdorff", "hausdorff_distance"),
    ("geometry.combination", "repro.geometry.combination", "equal_weight_combination"),
    ("geometry.intersection", "repro.geometry.intersection", "intersect_subset_hulls"),
    ("runtime.stable_vector", "repro.runtime.stable_vector", "StableVectorEngine.on_init"),
    ("runtime.stable_vector", "repro.runtime.stable_vector", "StableVectorEngine.on_view"),
    ("runtime.simulator", "repro.runtime.simulator", "run_simulation"),
    ("runtime.transport", "repro.runtime.transport", "run_transport_simulation"),
)

#: Root span of one sweep cell; its self time is work outside every layer.
CASE_SPAN = "case"


def span_name(layer: str, qualname: str) -> str:
    return f"{layer}.{qualname.rsplit('.', 1)[-1]}"


def bound_wrappers() -> list[str]:
    """Every tracer wrapper bound in a loaded ``repro`` module or its classes."""
    found = []
    seen_classes = set()
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            owners = [(f"{mod_name}.{key}", value)]
            if isinstance(value, type) and id(value) not in seen_classes:
                seen_classes.add(id(value))
                owners += [
                    (f"{value.__module__}.{value.__qualname__}.{attr}", member)
                    for attr, member in vars(value).items()
                ]
            found += [
                where
                for where, obj in owners
                if isinstance(obj, types.FunctionType) and hasattr(obj, "tracer_span")
            ]
    return found


class Tracer:
    """Collects spans and per-case self/inclusive time and call counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple | None] = []
        self.case_id = -1
        self._stack: list[list] = []
        self._installed: list[tuple[object, str, object]] = []
        self._self: list[float] = []
        self._incl: list[float] = []
        self._calls: list[int] = []

    # -- spans ---------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._self.append(0.0)
            self._incl.append(0.0)
            self._calls.append(0)
        return self._ids[name]

    def enter(self, name_id: int) -> None:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][3] if self._stack else -1
        self._stack.append([name_id, 0.0, 0.0, sid, parent])
        self._stack[-1][1] = perf_counter()

    def exit(self) -> None:
        end = perf_counter()
        name_id, start, child, sid, parent = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self._self[name_id] += duration - child
        self._incl[name_id] += duration
        self._calls[name_id] += 1
        self.spans[sid] = (name_id, start, end, parent, self.case_id)

    def run_case(self, case_id: int, fn, *args):
        """Run ``fn(*args)`` under a root span for case ``case_id``."""
        self.case_id = case_id
        self.enter(self._name_id(CASE_SPAN))
        try:
            return fn(*args)
        finally:
            self.exit()

    def take_case(self) -> dict[str, tuple[float, float, int]]:
        """Per-span-name (self s, inclusive s, calls) since the last take."""
        out = {
            name: (self._self[i], self._incl[i], self._calls[i])
            for i, name in enumerate(self.names)
            if self._calls[i]
        }
        for i in range(len(self.names)):
            self._self[i] = self._incl[i] = 0.0
            self._calls[i] = 0
        return out

    # -- wrappers ------------------------------------------------------
    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        enter, exit_, stack = self.enter, self.exit, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:  # outside a case: the harness's own checking
                return fn(*args, **kwargs)
            enter(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        traced.tracer_span = name
        return traced

    def install(self) -> None:
        """Wrap every target in every ``repro`` module that binds it."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for layer, module_name, qualname in TARGETS:
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                fn = owner.__dict__[attr]
                sites = [(owner, attr)]
            else:
                fn = getattr(module, qualname)
                sites = [
                    (mod, key)
                    for mod_name, mod in list(sys.modules.items())
                    if mod is not None
                    and (mod_name == "repro" or mod_name.startswith("repro."))
                    for key, value in list(vars(mod).items())
                    if value is fn
                ]
            traced = self._wrap(span_name(layer, qualname), fn)
            for owner, attr in sites:
                self._installed.append((owner, attr, fn))
                setattr(owner, attr, traced)

    def remove(self) -> None:
        """Restore every original binding."""
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)

    # -- output --------------------------------------------------------
    def write(self, path) -> None:
        """Write every span as one JSON line (gzip): name, start, end, parent, case."""
        with gzip.open(path, "wt") as out:
            for sid, (name_id, start, end, parent, case) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": self.names[name_id],
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "case": case,
                        }
                    )
                    + "\n"
                )
