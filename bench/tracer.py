"""Outside-in tracing of resgraph's public functions.

The tracer replaces selected public functions by timing wrappers in every
``resgraph`` namespace that bound them at import time (``from .core import
chi`` copies the binding), so the spans are taken at the module boundaries
without touching the package. Generators are timed per ``next()``. A span
stack turns nested spans into self times; spans carry the id of the
benchmark op that caused them and stay in memory until the run ends.

Counters are read only from what crosses the public boundary: the returned
``ComputationTrace``, the points the ellipsoid walker yields, the strata
report, the trees the enumerator yields, and the calls made to the
``partial_filter`` argument of the walker, which is wrapped on the way in.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

# module -> public functions that get a span; generators are marked.
TRACED = {
    "cli": ["run"],
    "graphio": ["parse_graph"],
    "fixtures": ["load_fixture"],
    "core": ["build_graph", "canonical_cycle", "dual_cycle", "chi",
             "intersection_form"],
    "laufer": ["antinef_lift", "classify"],
    "ellseq": ["elliptic_sequence", "antinef_in_class_below_ZK",
               "numerically_gorenstein_subsupports"],
    "criteria": ["monomial_condition", "extension_criterion"],
    "strata": ["strata_index_sets"],
    "quadform": ["enumerate_ellipsoid_points"],
    "oracle": ["enumerate_trees", "verify", "brute_min_antinef",
               "brute_fundamental_cycle", "brute_min_chi",
               "brute_minimally_elliptic", "brute_lemci",
               "brute_subsupports"],
}
GENERATORS = {"quadform.enumerate_ellipsoid_points", "oracle.enumerate_trees"}


class Tracer:
    """Span recorder with a stack for self time and boundary counters."""

    def __init__(self):
        self.names: list[str] = []
        self.op = 0
        # one row per span, column-wise to keep long runs small
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list[int]] = []   # [span index, child ns]
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _begin(self, nid: int) -> None:
        index = len(self.span_name)
        self.span_name.append(nid)
        self.span_op.append(self.op)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append([index, 0])
        self.span_start.append(perf_counter_ns())

    def _end(self) -> None:
        end = perf_counter_ns()
        index, child_ns = self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        name = self.names[self.span_name[index]]
        self.self_ns[name] += duration - child_ns
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def wrap(self, name: str, fn, on_args=None, on_result=None):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_args is not None:
                args, kwargs = on_args(args, kwargs)
            self._begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn, on_args=None, on_item=None):
        nid = self._name_id(name)

        def timed(gen):
            try:
                while True:
                    self._begin(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._end()
                    if on_item is not None:
                        on_item(item)
                    yield item
            finally:
                gen.close()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_args is not None:
                args, kwargs = on_args(args, kwargs)
            return timed(fn(*args, **kwargs))

        return wrapper

    # -- counters read at the public boundary --------------------------------

    def _count(self, key: str, amount: int = 1) -> None:
        self.counters[key] += amount

    def _hooks(self, name: str, fn) -> dict:
        if name == "laufer.antinef_lift":
            return {"on_result":
                    lambda r: self._count("laufer.steps", len(r[1].steps))}
        if name == "strata.strata_index_sets":
            return {"on_result": lambda report: self._count(
                "strata.candidates",
                sum(len(v) for v in report.levels.values()))}
        if name == "oracle.enumerate_trees":
            return {"on_item": lambda _: self._count("oracle.trees")}
        if name == "quadform.enumerate_ellipsoid_points":
            signature = inspect.signature(fn)

            def count_filter(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                inner = bound.arguments.get("partial_filter")
                if inner is not None:
                    def counted(i, xs):
                        self.counters["quadform.filter_calls"] += 1
                        return inner(i, xs)
                    bound.arguments["partial_filter"] = counted
                return bound.args, bound.kwargs

            return {"on_args": count_filter,
                    "on_item": lambda _: self._count("quadform.points")}
        return {}

    def install(self) -> None:
        """Swap every traced function for its wrapper in each loaded
        resgraph module (the package namespace included)."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "resgraph" or key.startswith("resgraph.")]
        for module_name, functions in TRACED.items():
            module = importlib.import_module(f"resgraph.{module_name}")
            for fname in functions:
                original = getattr(module, fname)
                name = f"{module_name}.{fname}"
                make = (self.wrap_generator if name in GENERATORS
                        else self.wrap)
                wrapper = make(name, original, **self._hooks(name, original))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    # -- reporting -----------------------------------------------------------

    def reset_totals(self) -> None:
        """Start the totals afresh; the recorded spans are kept."""
        self.self_ns.clear()
        self.calls.clear()
        self.counters.clear()

    def write_spans(self, path) -> None:
        """One JSON object per line: name, op id, parent span index (-1 at
        the top), start and end in perf_counter nanoseconds."""
        with open(path, "w") as out:
            for i in range(len(self.span_name)):
                out.write(json.dumps({
                    "name": self.names[self.span_name[i]],
                    "op": self.span_op[i], "parent": self.span_parent[i],
                    "start_ns": self.span_start[i],
                    "end_ns": self.span_end[i]}) + "\n")

    def span_count(self) -> int:
        return len(self.span_name)

    def self_ms(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e6
