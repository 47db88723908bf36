"""The benchmark's tracer wraps package functions by name; a rename in the
package must fail here, not only when the benchmark runs."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

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
