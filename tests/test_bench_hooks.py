"""The benchmark's tracer wraps package functions by name and counts what
crosses their boundary; a rename in the package, or a counter that no
longer counts the work, must fail here, not only when the benchmark runs."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import resgraph
from resgraph import core, laufer, oracle, quadform

from conftest import count_filter_calls

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_constants() -> dict:
    """TRACED and GENERATORS, read from the tracer's source as literals."""
    out = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in (
                        "TRACED", "GENERATORS"):
                    out[target.id] = ast.literal_eval(node.value)
    return out


def test_traced_functions_exist():
    constants = _tracer_constants()
    traced, generators = constants["TRACED"], constants["GENERATORS"]
    missing = [f"{module}.{name}" for module, names in traced.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"resgraph.{module}"), name, None))]
    assert not missing, f"traced functions missing from resgraph: {missing}"
    listed = {f"{module}.{name}" for module, names in traced.items()
              for name in names}
    assert generators <= listed
    for qualified in generators:
        module, name = qualified.split(".")
        fn = getattr(importlib.import_module(f"resgraph.{module}"), name)
        assert inspect.isgeneratorfunction(fn), qualified


def _tracer():
    """A fresh `Tracer` of the benchmark's tracer module."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_counts_the_walker_work(monkeypatch, g_left):
    """The tracer's own hooks on the walker count what the walk does: one
    filter call per range and one point per item, the same as a count
    taken here. The strata walk on g_left at l' = 0, bound 4, asks for
    3 957 ranges and yields 485 points."""
    tracer = _tracer()
    name = "quadform.enumerate_ellipsoid_points"
    walker = quadform.enumerate_ellipsoid_points
    traced = tracer.wrap_generator(name, walker,
                                   **tracer._hooks(name, walker))
    counts = {"calls": 0}

    def counting_walker(*args, **kwargs):
        bound = count_filter_calls(walker, args, kwargs, counts)
        return traced(*bound.args, **bound.kwargs)

    monkeypatch.setattr(quadform, "enumerate_ellipsoid_points",
                        counting_walker)
    walked = list(quadform.antinef_points(g_left, g_left.zero_cycle(), 4,
                                          [0] * len(g_left.vertices)))
    assert (counts["calls"], len(walked)) == (3_957, 485)
    assert tracer.counters["quadform.filter_calls"] == counts["calls"]
    assert tracer.counters["quadform.points"] == len(walked)


def test_tracer_counts_no_oracle_walk_as_a_strata_walk(monkeypatch, g_app):
    """The tracer swaps `quadform.enumerate_ellipsoid_points` by identity in
    every resgraph module. No module but quadform binds that object, and
    core's walker, on which the oracle's chi walk runs, is another, so one
    `oracle.verify(g_app)` under the tracer's walker hooks counts no
    filter call and no point; the strata walk on g_app still counts."""
    walker = quadform.enumerate_ellipsoid_points
    modules = [importlib.import_module(f"resgraph.{info.name}")
               for info in pkgutil.iter_modules(resgraph.__path__)]
    binders = [(m, attr) for m in [resgraph, *modules]
               for attr, value in vars(m).items() if value is walker]
    assert [m.__name__ for m, _ in binders] == ["resgraph.quadform"]
    assert core._ellipsoid_walk is not walker
    tracer = _tracer()
    name = "quadform.enumerate_ellipsoid_points"
    traced = tracer.wrap_generator(name, walker,
                                   **tracer._hooks(name, walker))
    for module, attr in binders:
        monkeypatch.setattr(module, attr, traced)
    assert set(oracle.verify(g_app).values()) == {"ok"}
    assert tracer.counters["quadform.filter_calls"] == 0
    assert tracer.counters["quadform.points"] == 0
    points = list(quadform.antinef_points(g_app, g_app.zero_cycle(), 1,
                                          [0] * len(g_app.vertices)))
    assert tracer.counters["quadform.points"] == len(points) > 0
    assert tracer.counters["quadform.filter_calls"] > 0


def test_tracer_counts_the_laufer_steps(g_app):
    """The tracer's own hook on the lift counts unit steps, not runs: the
    lifts of k E_a1 on g_app for k = 10^2, 10^3, 10^4 take 1 305, 13 005
    and 130 005 of them."""
    tracer = _tracer()
    name = "laufer.antinef_lift"
    traced = tracer.wrap(name, laufer.antinef_lift,
                         **tracer._hooks(name, laufer.antinef_lift))
    for k in (100, 1000, 10000):
        traced(k * g_app.basis_cycle("a1"))
    assert tracer.counters["laufer.steps"] == 1305 + 13005 + 130005
