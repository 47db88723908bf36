"""Versioned JSON graph files and exact-rational serialization.

The on-disk format:

    {
      "format": 1,
      "vertices": [{"id": "a1", "euler": -2}, ...],
      "edges": [["a1", "a2"], ...],
      "cycles": {"name": {"a1": "14/3", ...}}   // optional
    }

Rationals are always strings ("14/3" or "7"), never floats, both on input
and in every report this package emits.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .core import Cycle, ResolutionGraph, build_graph
from .errors import UserError, quote

__all__ = [
    "FORMAT_VERSION",
    "GraphFile",
    "MinimalResolutionWarning",
    "parse_fraction",
    "format_fraction",
    "read_json_file",
    "parse_graph_data",
    "parse_cycle",
    "parse_graph",
    "graph_to_data",
    "cycle_to_data",
]

FORMAT_VERSION = 1


class MinimalResolutionWarning(UserWarning):
    """The graph is valid but not a minimal resolution (some euler = -1)."""


@dataclass(frozen=True)
class GraphFile:
    graph: ResolutionGraph
    cycles: dict[str, Cycle] = field(default_factory=dict)


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_fraction(value) -> Fraction:
    """Exact rational from an int or a "p/q" / "p" string of decimal digits
    with an optional sign. Everything else is refused: floats, and strings
    with exponents or decimal points ("1e999999999" would otherwise build
    10**999999999 in full)."""
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or isinstance(value, str) and _RATIONAL.fullmatch(value)):
        raise UserError(f"rationals must be integers or strings p/q, "
                        f"got {quote(value)}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise UserError(f"cannot parse rational {quote(value)}: {exc}")


def format_fraction(value: Fraction) -> str:
    return str(value)


def parse_graph_data(data) -> GraphFile:
    """Build a validated GraphFile from already-decoded JSON data."""
    if not isinstance(data, dict):
        raise UserError("graph file must be a JSON object")
    version = data.get("format")
    if version != FORMAT_VERSION:
        raise UserError(
            f"unsupported graph file format {quote(version)} "
            f"(expected {FORMAT_VERSION})")
    graph = build_graph(data)
    if not graph.is_minimal():
        warnings.warn(
            "graph has euler numbers above -2; it is not a minimal "
            "resolution, and minimal-resolution-only operations will refuse it",
            MinimalResolutionWarning, stacklevel=2)
    section = data.get("cycles", {})
    if not isinstance(section, dict):
        raise UserError("the cycles section must map names to cycles")
    cycles = {str(name): parse_cycle(graph, coeffs, f"cycle {quote(name)}")
              for name, coeffs in section.items()}
    return GraphFile(graph=graph, cycles=cycles)


def parse_cycle(graph: ResolutionGraph, coeffs, label: str) -> Cycle:
    """The cycle that decoded JSON {vertex id: rational} describes on
    `graph`; `label` names it in the error."""
    if not isinstance(coeffs, dict):
        raise UserError(f"{label} must map vertex ids to rationals")
    return graph.cycle({str(v): parse_fraction(c) for v, c in coeffs.items()})


def read_json_file(path, what: str):
    """Decoded JSON content of a UTF-8 file; every way the file can fail to
    read or decode becomes a UserError naming `what`. ValueError covers bad
    bytes, bad JSON and integers past the interpreter's digit limit;
    RecursionError covers nesting too deep for the decoder."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UserError(f"cannot read {what} {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        raise UserError(f"{what} {path} is not valid JSON: {exc}")


def parse_graph(path) -> GraphFile:
    return parse_graph_data(read_json_file(path, "graph file"))


def cycle_to_data(cycle: Cycle) -> dict[str, str]:
    return {v: format_fraction(c) for v, c in cycle.items() if c != 0}


def graph_to_data(graph: ResolutionGraph, cycles=None) -> dict:
    data = {
        "format": FORMAT_VERSION,
        "vertices": [{"id": v, "euler": graph.euler[v]}
                     for v in graph.vertices],
        "edges": [sorted(e) for e in sorted(graph.edges, key=sorted)],
    }
    if cycles:
        data["cycles"] = {name: cycle_to_data(c) for name, c in cycles.items()}
    return data
