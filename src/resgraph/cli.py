"""Command-line interface.

Subcommands: classify, invariants, ellseq, criteria, strata, wstrata,
oracle-verify, enumerate. Graphs are given as a JSON file path or a bundled
fixture name. Exit codes: 0 success, 1 user error, 2 invariant violation
(a theorem-backed cross-check failed, i.e. a bug), 3 resource cap.

The --lprime flag names the *negative* of the Chern class l' (so that its
argument lists non-negative generators); the tool negates internally.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from fractions import Fraction

from . import oracle
from .core import (Cycle, ResolutionGraph, canonical_cycle, dual_cycle,
                   intersection_form, is_numerically_gorenstein)
from .criteria import criteria_reports
from .ellseq import elliptic_sequence, partial_sums, pg_table
from .errors import (InvariantViolation, ResourceCapExceeded, UserError,
                     quote)
from .fixtures import is_fixture_name, load_fixture
from .graphio import (GraphFile, MinimalResolutionWarning, cycle_to_data,
                      format_fraction, parse_cycle, parse_fraction,
                      parse_graph, read_json_file)
from .laufer import classify, fundamental_cycle
from .strata import (AnalyticParams, fixed_component_candidates, h1_on_image,
                     pg, reduction_index, strata_index_sets, w_strata)

__all__ = ["main", "run"]

CAP_ENV = "RESGRAPH_ENUM_CAP"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UserError(message)


def _enum_cap(default: int = oracle.DEFAULT_CAP) -> int:
    raw = os.environ.get(CAP_ENV)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise UserError(f"{CAP_ENV} must be an integer, got {quote(raw)}")
    if value <= 0:
        raise UserError(f"{CAP_ENV} must be positive, got {value}")
    return value


def _load(graph_arg: str) -> GraphFile:
    if is_fixture_name(graph_arg):
        return load_fixture(graph_arg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", MinimalResolutionWarning)
        gf = parse_graph(graph_arg)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return gf


def _parse_pairs(text: str, graph: ResolutionGraph) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise UserError(f"expected vertex=rational, got {quote(chunk)}")
        v, raw = chunk.split("=", 1)
        v = v.strip()
        if v not in graph._index:
            raise UserError(f"unknown vertex in --lprime: {quote(v)}")
        out[v] = parse_fraction(raw.strip())
    if not out:
        raise UserError("empty cycle expression")
    return out


def _parse_lprime(text: str | None, graph: ResolutionGraph) -> Cycle:
    """--lprime names -l': either "estar:v=c,..." (a combination of dual
    cycles) or a coefficient literal "v=c,..."; the result is negated."""
    if text is None:
        return graph.zero_cycle()
    body = text
    if body.startswith("estar:"):
        pairs = _parse_pairs(body[len("estar:"):], graph)
        minus = graph.zero_cycle()
        for v, c in pairs.items():
            minus = minus + c * dual_cycle(graph, v)
        return -minus
    if body.startswith("cycle:"):
        body = body[len("cycle:"):]
    return -graph.cycle(_parse_pairs(body, graph))


def _parse_trivializable(path: str | None, graph: ResolutionGraph) -> tuple:
    """File format: a JSON list of coefficient objects {vertex: "p/q"}."""
    if path is None:
        return ()
    data = read_json_file(path, "trivializable file")
    if not isinstance(data, list):
        raise UserError("trivializable file must hold a JSON list of cycles")
    return tuple(parse_cycle(graph, entry, "each trivializable cycle")
                 for entry in data)


def _params(args, graph: ResolutionGraph) -> AnalyticParams:
    return AnalyticParams(alpha=args.alpha, mode=args.mode,
                          trivializable=_parse_trivializable(
                              getattr(args, "trivializable", None), graph))


# -- report builders --------------------------------------------------------


def _cmd_classify(args) -> dict:
    graph = _load(args.graph).graph
    cls = classify(graph)
    return {"classification": cls.kind,
            "chi_zmin": format_fraction(cls.chi_zmin),
            "zmin": cycle_to_data(cls.zmin)}


def _cmd_invariants(args) -> dict:
    graph = _load(args.graph).graph
    return {
        "vertices": list(graph.vertices),
        "determinant": graph.det,
        "zmin": cycle_to_data(fundamental_cycle(graph)),
        "canonical": cycle_to_data(canonical_cycle(graph)),
        "numerically_gorenstein": is_numerically_gorenstein(graph),
        "duals": {v: cycle_to_data(dual_cycle(graph, v))
                  for v in graph.vertices},
    }


def _cmd_ellseq(args) -> dict:
    graph = _load(args.graph).graph
    seq = elliptic_sequence(graph)
    c = seq.fundamental_cycles[-1]
    return {
        "m": seq.m,
        "length": seq.length,
        "numerically_gorenstein": is_numerically_gorenstein(graph),
        "pre_term": cycle_to_data(seq.pre_term),
        "supports": [sorted(b) for b in seq.supports],
        "fundamental_cycles": [cycle_to_data(z)
                               for z in seq.fundamental_cycles],
        "minimally_elliptic": cycle_to_data(c),
        "self_intersection_C": format_fraction(intersection_form(c, c)),
        "partial_sums": [
            {"t": t, "C_t": cycle_to_data(ct), "Cprime_t": cycle_to_data(cpt)}
            for t in range(-1, seq.m + 1)
            for ct, cpt in [partial_sums(seq, t)]],
        "pg_table": pg_table(seq, args.alpha),
    }


def _criterion_out(report) -> dict:
    def fix(record: dict) -> dict:
        out = dict(record)
        if isinstance(out.get("cycle"), Cycle):
            out["cycle"] = cycle_to_data(out["cycle"])
        if isinstance(out.get("branch"), tuple):
            out["branch"] = list(out["branch"])
        return out

    return {"verdict": report.verdict,
            "violations": [fix(r) for r in report.violations],
            "witnesses": [fix(r) for r in report.witnesses]}


def _cmd_criteria(args) -> dict:
    graph = _load(args.graph).graph
    ext, mono = criteria_reports(graph)
    return {
        "extension_criterion": _criterion_out(ext),
        "monomial_condition": _criterion_out(mono),
        "supports_wecc": ext.verdict,
        "supports_ecc": mono.verdict,
    }


def _cmd_strata(args) -> dict:
    graph = _load(args.graph).graph
    seq = elliptic_sequence(graph)
    params = _params(args, graph)
    lprime = _parse_lprime(args.lprime, graph)
    report = strata_index_sets(seq, lprime, params)
    levels = {}
    for k in sorted(report.levels, reverse=True):
        levels[str(k)] = [
            {"l": cycle_to_data(e.l),
             "chern": cycle_to_data(e.chern),
             "dim": e.dim,
             "maximal": e.maximal,
             **({"excluded_by": {"k": e.excluded_by[0],
                                 "l": cycle_to_data(e.excluded_by[1])}}
                if e.excluded_by else {})}
            for e in report.levels[k]]
    out = {"pg": report.pg,
           "lprime": cycle_to_data(lprime),
           "levels": levels,
           "notes": list(report.notes)}
    if is_numerically_gorenstein(graph):
        out["fixed_component_candidates"] = [
            {"cycle": cycle_to_data(c.cycle), "exceptional": c.exceptional}
            for c in fixed_component_candidates(seq, params)]
    return out


def _cmd_wstrata(args) -> dict:
    graph = _load(args.graph).graph
    seq = elliptic_sequence(graph)
    params = _params(args, graph)
    lprime = _parse_lprime(args.lprime, graph)
    return {
        "pg": pg(seq, params),
        "lprime": cycle_to_data(lprime),
        "reduction_index": reduction_index(seq, lprime),
        "h1_on_image": h1_on_image(seq, lprime, params),
        "depths": seq.depths,
        "strata": [{"k": s.k, "dim": s.dim, "kind": s.kind,
                    **({"count_max": s.count_max}
                       if s.count_max is not None else {})}
                   for s in w_strata(seq, lprime, params)],
    }


def _cmd_oracle_verify(args) -> dict:
    graph = _load(args.graph).graph
    return {"checks": oracle.verify(graph, cap=_enum_cap())}


def _cmd_enumerate(args) -> dict:
    if args.euler_min > args.euler_max or args.euler_max > -1:
        raise UserError("need euler-min <= euler-max <= -1")
    graphs = list(oracle.enumerate_trees(
        args.max_vertices, range(args.euler_min, args.euler_max + 1),
        cap=_enum_cap(default=10 ** 5)))
    return {
        "count": len(graphs),
        "graphs": [{"vertices": [[v, g.euler[v]] for v in g.vertices],
                    "edges": [sorted(e) for e in sorted(g.edges, key=sorted)],
                    "classification": classify(g).kind}
                   for g in graphs],
    }


# -- rendering and dispatch -------------------------------------------------


def _render_text(value, indent: int = 0, out=None) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                print(f"{pad}{k}:", file=out)
                _render_text(v, indent + 1, out)
            else:
                print(f"{pad}{k}: {_scalar(v)}", file=out)
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)) and v:
                print(f"{pad}-", file=out)
                _render_text(v, indent + 1, out)
            else:
                print(f"{pad}- {_scalar(v)}", file=out)
    else:
        print(f"{pad}{_scalar(value)}", file=out)


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (dict, list)) and not v:
        return "{}" if isinstance(v, dict) else "[]"
    return str(v)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="resgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, graph=True, analytic=False, chern=False):
        p = sub.add_parser(name, help=help_text)
        if graph:
            p.add_argument("graph",
                           help="graph file path or bundled fixture name")
        if analytic:
            p.add_argument("--alpha", type=int, default=0,
                           help="minimal Gorenstein index (default 0)")
            p.add_argument("--mode", choices=("generic", "wecc", "custom"),
                           default="generic")
            p.add_argument("--trivializable", metavar="FILE",
                           help="JSON list of trivializable cycles "
                                "(custom mode)")
        if chern:
            p.add_argument("--lprime", metavar="EXPR",
                           help='negative Chern class: "estar:v=c,..." or a '
                                'coefficient literal "v=c,..."')
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func)
        return p

    add("classify", _cmd_classify, "rational / elliptic / other")
    add("invariants", _cmd_invariants,
        "fundamental and canonical cycles, duals, determinant")
    p = add("ellseq", _cmd_ellseq, "elliptic sequence and derived cycles")
    p.add_argument("--alpha", type=int, default=0,
                   help="minimal Gorenstein index (default 0)")
    add("criteria", _cmd_criteria,
        "extension criterion and monomial condition")
    add("strata", _cmd_strata, "compatibility-system index sets per level",
        analytic=True, chern=True)
    add("wstrata", _cmd_wstrata, "h1-level-set dimension table",
        analytic=True, chern=True)
    add("oracle-verify", _cmd_oracle_verify,
        "brute-force cross-check of every fast algorithm")
    p = add("enumerate", _cmd_enumerate,
            "non-isomorphic negative-definite weighted trees", graph=False)
    p.add_argument("--max-vertices", type=int, default=6)
    p.add_argument("--euler-min", type=int, default=-3)
    p.add_argument("--euler-max", type=int, default=-2)
    return parser


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        report = args.func(args)
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation (bug): {exc}", file=sys.stderr)
        if exc.payload is not None:
            print(f"payload: {exc.payload}", file=sys.stderr)
        return 2
    except ResourceCapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print(f"resource cap: the graph is too deep for the recursion limit "
              f"({sys.getrecursionlimit()})", file=sys.stderr)
        return 3
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        _render_text(report)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
