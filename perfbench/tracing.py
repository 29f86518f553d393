"""Spans around boxlab's public functions, installed from outside the library.

Each binding is wrapped where its caller looks it up (``boxlab.witnesses``
calls ``contextual_fraction`` through its own module global, so that is the
name replaced).  A span records name, start, end, parent and operation index,
plus a small note about the result where a layer metric needs one.  Spans stay
in memory until the run ends.  A binding that is missing makes installation
fail, so a refactor cannot silently zero a layer's numbers.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter
from typing import NamedTuple


class TraceError(RuntimeError):
    """A traced binding is missing, or a required layer recorded no calls."""


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    op: int
    note: object


def _budget(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("budget")


def _note_solve(args, kwargs, result):
    return result.status


def _note_nc_search(args, kwargs, result):
    return (("nc", args[0].contexts, _budget(args, kwargs)), result.status,
            result.nodes_used)


def _note_lhv_search(args, kwargs, result):
    return (("lhv", args[0].dists, _budget(args, kwargs)), result.status,
            result.nodes_used)


_NOTES = {
    "exactlp.solve": _note_solve,
    "decompose.min_nc_dimension": _note_nc_search,
    "decompose.min_lhv_dimension": _note_lhv_search,
}

#: (module, binding, span name).  Every binding is where a caller in the
#: library, the CLI or this benchmark looks the function up at call time.
BINDINGS = (
    ("boxlab.cli", "main", "cli.main"),
    ("boxlab.cli", "classify", "witnesses.classify"),
    ("boxlab.witnesses", "classify", "witnesses.classify"),
    ("boxlab.cli", "report_to_json_dict", "witnesses.report_to_json_dict"),
    ("boxlab.witnesses", "report_to_json_dict",
     "witnesses.report_to_json_dict"),
    ("boxlab.cli", "report_to_csv_row", "witnesses.report_to_csv_row"),
    ("boxlab.witnesses", "report_to_csv_row", "witnesses.report_to_csv_row"),
    ("boxlab.cli", "sdi_contextuality_check",
     "witnesses.sdi_contextuality_check"),
    ("boxlab.witnesses", "sdi_contextuality_check",
     "witnesses.sdi_contextuality_check"),
    ("boxlab.cli", "contextual_fraction", "decompose.contextual_fraction"),
    ("boxlab.witnesses", "contextual_fraction",
     "decompose.contextual_fraction"),
    ("boxlab.cli", "peres_strength", "decompose.peres_strength"),
    ("boxlab.witnesses", "peres_strength", "decompose.peres_strength"),
    ("boxlab.cli", "min_nc_dimension", "decompose.min_nc_dimension"),
    ("boxlab.witnesses", "min_nc_dimension", "decompose.min_nc_dimension"),
    ("boxlab.decompose", "min_nc_dimension", "decompose.min_nc_dimension"),
    ("boxlab.witnesses", "min_lhv_dimension", "decompose.min_lhv_dimension"),
    ("boxlab.witnesses", "bell_local_membership",
     "decompose.bell_local_membership"),
    ("boxlab.decompose", "nc_membership", "decompose.nc_membership"),
    ("boxlab.decompose", "solve", "exactlp.solve"),
    ("boxlab.quantum", "box_from_state", "quantum.box_from_state"),
    ("boxlab.quantum", "rationalize_box", "quantum.rationalize_box"),
    ("boxlab.cli", "box_from_json_dict", "scenario.box_from_json_dict"),
    ("boxlab.cli", "box_to_json_dict", "scenario.box_to_json_dict"),
)


class Tracer:
    """Records spans while ``recording`` is true; otherwise calls straight
    through, so output checks made by the benchmark leave no spans."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.recording = False
        self.op = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        note = _NOTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                tracer._stack.pop()
                info = (note(args, kwargs, result)
                        if note is not None and result is not None else None)
                tracer.spans[index] = Span(name, start, end, parent,
                                           tracer.op, info)

        return traced

    def install(self, bindings=BINDINGS) -> None:
        for module_name, attr, name in bindings:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.uninstall()
                raise TraceError(f"traced binding {module_name}.{attr} is "
                                 "missing")
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()


def span_cost_us(repeats: int = 20000) -> float:
    """Added cost of one recorded span around a trivial call, in µs."""
    tracer = Tracer()
    plain = (lambda: None)
    traced = tracer.wrap("probe", plain)
    start = perf_counter()
    for _ in range(repeats):
        plain()
    base = perf_counter() - start
    tracer.recording = True
    start = perf_counter()
    for _ in range(repeats):
        traced()
    wrapped = perf_counter() - start
    return max(0.0, (wrapped - base) / repeats * 1e6)


def aggregate(spans: list[Span]) -> dict:
    """Per-name calls, total, self time, plus the search and LP counts.

    A span nested inside another span of the same name adds to ``calls`` but
    not to ``total_s``, so no interval is counted twice.
    """
    child_time = [0.0] * len(spans)
    child_count = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
            child_count[span.parent] += 1

    def has_ancestor(index: int, name: str) -> bool:
        parent = spans[index].parent
        while parent >= 0:
            if spans[parent].name == name:
                return True
            parent = spans[parent].parent
        return False

    layers: dict[str, dict] = {}
    for i, span in enumerate(spans):
        layer = layers.setdefault(span.name, {"calls": 0, "total_s": 0.0,
                                              "self_s": 0.0})
        layer["calls"] += 1
        layer["self_s"] += span.end - span.start - child_time[i]
        if not has_ancestor(i, span.name):
            layer["total_s"] += span.end - span.start

    solves = [i for i, s in enumerate(spans) if s.name == "exactlp.solve"]
    infeasible = sum(1 for i in solves if spans[i].note == "infeasible")
    in_classify = sum(1 for i in solves
                      if has_ancestor(i, "witnesses.classify"))

    searches: dict[str, dict] = {}
    for kind, name in (("nc", "decompose.min_nc_dimension"),
                       ("lhv", "decompose.min_lhv_dimension")):
        seen: dict[tuple, tuple] = {}
        hits = 0
        for i, span in enumerate(spans):
            if span.name != name or span.note is None:
                continue
            search_key, status, nodes = span.note
            if child_count[i] == 0:
                # Answered without calling any traced layer: a cache hit.
                hits += 1
            seen.setdefault(search_key, (status, nodes))
        exact = sum(1 for status, _ in seen.values() if status == "exact")
        searches[kind] = {
            "searches": len(seen),
            "nodes": sum(nodes for _, nodes in seen.values()),
            "exact_ratio": exact / len(seen) if seen else 0.0,
            "cache_hits": hits,
        }
    return {"layers": layers, "solve_infeasible": infeasible,
            "solve_in_classify": in_classify, "searches": searches}
