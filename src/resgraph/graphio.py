"""Versioned JSON graph files and exact-rational serialization.

The on-disk format:

    {
      "format": 1,
      "vertices": [{"id": "a1", "euler": -2}, ...],
      "edges": [["a1", "a2"], ...],
      "cycles": {"name": {"a1": "14/3", ...}}   // optional
    }

Rationals are always strings ("14/3" or "7"), never floats, both on input
and in every report this package emits. Reports are written by
:func:`dump_json`, which refuses floats.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .core import Cycle, ResolutionGraph, build_graph
from .errors import UserError, quote

__all__ = [
    "FORMAT_VERSION",
    "GraphFile",
    "parse_fraction",
    "read_json_file",
    "parse_graph_data",
    "parse_cycle",
    "parse_graph",
    "cycle_to_data",
    "dump_json",
]

FORMAT_VERSION = 1


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


def parse_graph_data(data) -> GraphFile:
    """Build a validated GraphFile from already-decoded JSON data; a valid
    graph that is not a minimal resolution (some euler = -1) is accepted."""
    if not isinstance(data, dict):
        raise UserError("graph file must be a JSON object")
    version = data.get("format")
    if version != FORMAT_VERSION:
        raise UserError(
            f"unsupported graph file format {quote(version)} "
            f"(expected {FORMAT_VERSION})")
    graph = build_graph(data)
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
    """{vertex: "n" or "n/d"} over the nonzero coefficients in vertex order,
    the strings str(Fraction) gives, read off the numerators: each is
    reduced against the common denominator by one gcd, no Fraction built."""
    den = cycle.den
    out = {}
    for v, n in zip(cycle.graph.vertices, cycle.num):
        if n:
            g = math.gcd(n, den)
            out[v] = str(n // g) if g == den else f"{n // g}/{den // g}"
    return out


_encode_str = json.encoder.encode_basestring_ascii


def dump_json(value) -> str:
    """The text of json.dumps(value, indent=2), in one pass, for the values
    reports hold: dicts with str keys, lists, tuples, str, int, bool and
    None. Any other value, floats and Fractions included, or a non-str key
    raises TypeError. (CPython 3.11's json module encodes in pure Python
    whenever an indent is set.)"""
    if isinstance(value, (dict, list, tuple)):
        return _json(value, "\n")
    return _json([value], "\n")[4:-2]  # a bare scalar: a list's one item


def _json(value, pad: str) -> str:
    """A dict, list or tuple as indent-2 JSON whose closing bracket follows
    `pad` (a newline and two spaces per enclosing level); scalar items are
    written in place."""
    if isinstance(value, dict):
        items, start, end = value.values(), "{", "}"
    elif isinstance(value, (list, tuple)):
        items, start, end = value, "[", "]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        f"is not JSON serializable")
    if not value:
        return start + end
    inner = pad + "  "
    texts = []
    for item in items:
        if isinstance(item, str):
            texts.append(_encode_str(item))
        elif item is None:
            texts.append("null")
        elif item is True:
            texts.append("true")
        elif item is False:
            texts.append("false")
        elif isinstance(item, int):
            texts.append(int.__repr__(item))
        else:
            texts.append(_json(item, inner))
    if isinstance(value, dict):
        # the C encoder raises TypeError on a non-str key
        texts = [f"{_encode_str(k)}: {t}" for k, t in zip(value, texts)]
    return start + inner + ("," + inner).join(texts) + pad + end
