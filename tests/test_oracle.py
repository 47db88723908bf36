"""The brute-force side: independence, small hand-checked values, caps."""

from __future__ import annotations

import ast
import hashlib
import importlib
import inspect
import itertools
import math
import random
import re
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import resgraph
import resgraph.core as core_module
import resgraph.oracle as oracle_module
from resgraph import laufer
from resgraph.core import (build_graph, canonical_cycle, chi, dual_cycle,
                           is_antinef)
from resgraph.errors import (GraphValidationError, InvariantViolation,
                             ResourceCapExceeded, UserError)
from resgraph.oracle import (_certified_meet, _chi_sublevel,
                             _connected_subsets, brute_fundamental_cycle,
                             brute_lemci, brute_min_antinef, brute_min_chi,
                             brute_minimally_elliptic, brute_subsupports,
                             enumerate_trees, verify)

from conftest import (dense_ldl, full_subgraph, g_app_with_chain, minus_a,
                      random_tree, random_trees)


def test_oracle_module_is_independent():
    """No top-level import of any fast-path module: oracles may only use the
    lattice core. (verify() is the sanctioned comparison point and imports
    the fast modules locally.)"""
    tree = ast.parse(inspect.getsource(oracle_module))
    forbidden = {"laufer", "ellseq", "criteria", "strata", "cli", "quadform",
                 "graphio", "fixtures"}
    for node in tree.body:  # top level only
        names = []
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{a.name}" for a in node.names]
        for name in names:
            assert not (set(name.split(".")) & forbidden), (
                f"oracle must not import fast module: {name}")


def test_fast_modules_use_one_graph_per_query():
    """No fast module builds a subgraph or embeds a cycle from one: each
    computes on supports of the graph it was given. `build_graph` is the
    one constructor: no module but core calls `ResolutionGraph(`."""
    package = Path(oracle_module.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            assert not (path.stem != "core" and isinstance(node, ast.Call)
                        and getattr(node.func, "id", getattr(
                            node.func, "attr", None)) == "ResolutionGraph"), (
                f"{path.name}:{node.lineno} calls ResolutionGraph(")
            if path.stem not in ("laufer", "ellseq", "criteria", "strata",
                                 "quadform", "cli"):
                continue
            assert not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "subgraph"), (
                f"{path.name}:{node.lineno} calls .subgraph(")
            assert "embed" not in {getattr(node, "attr", None),
                                   getattr(node, "id", None),
                                   getattr(node, "name", None)}, (
                f"{path.name}:{node.lineno} defines or uses embed")
    graph = build_graph({"vertices": [("v", -2)], "edges": []})
    assert not hasattr(graph, "embed") and not hasattr(graph, "subgraph")


def test_one_module_owns_the_strata_walk():
    """quadform owns the walk's rooting and its antinef cut, and core's
    walker completes the square: strata imports no private name of core,
    never names the walker, and names neither Z_K nor a Fraction, and
    quadform names neither Z_K nor the form, so neither builds a centre
    or a radius; the graph holds no walk state."""
    from resgraph import quadform, strata
    named = {getattr(node, attr, None)
             for node in ast.walk(ast.parse(inspect.getsource(quadform)))
             for attr in ("id", "attr", "name")}
    assert not named & {"canonical_cycle", "intersection_form"}
    tree = ast.parse(inspect.getsource(strata))
    private = [f"{node.module}.{a.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "core"
               for a in node.names if a.name.startswith("_")]
    assert not private, f"strata imports private names of core: {private}"
    named = {getattr(node, attr, None) for node in ast.walk(tree)
             for attr in ("id", "attr", "name")}
    assert "enumerate_ellipsoid_points" not in named
    assert not named & {"canonical_cycle", "Fraction"}
    graph = build_graph({"vertices": [("v", -2)], "edges": []})
    for name in ("_walk_rooting", "_walk"):
        assert not hasattr(graph, name), name


def _naming_strings(tree: ast.AST) -> list[str]:
    """The string constants in `tree` that name something: those in an
    __all__ list or in an annotation (the "Cycle" forward references)."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns:
            roots.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            roots.append(node.value)
    return [node.value for root in roots for node in ast.walk(root)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def _unused_top_level_imports(source: str) -> list[str]:
    """Names bound by a top-level import that the module never reads and
    does not list in __all__. A string constant counts as a read only in
    __all__ or in an annotation, so a string that happens to spell a
    module name hides no import."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_naming_strings(tree))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_no_unused_top_level_imports():
    """A linter-free check: every top-level import in the package and in
    the test modules is used."""
    package = Path(oracle_module.__file__).parent
    modules = [*package.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    unused = {f"{path.parent.name}/{path.name}": names
              for path in sorted(modules)
              if (names := _unused_top_level_imports(path.read_text()))}
    assert not unused, f"unused imports: {unused}"
    assert _unused_top_level_imports("import os\nimport sys\nsys.exit()\n") \
        == ["os (line 1)"]
    assert _unused_top_level_imports('import json\nX = ("text", "json")\n') \
        == ["json (line 1)"]
    assert _unused_top_level_imports(
        'from a import B, C, D\n__all__ = ["B"]\n'
        'def f(x: "C") -> "D": pass\n') == []


def _unused_module_names(sources: dict[str, str]) -> list[str]:
    """Private (_x) and UPPER_CASE names defined at the top level of some
    module that nothing outside their own definition reads: by name, as an
    attribute, through an import, or as a string in __all__ or an
    annotation (any other string reads nothing). A function that only
    calls itself counts as unused."""
    defined = []
    readers: dict[str, set] = {}  # name -> the top-level statements reading it
    for module, source in sources.items():
        for k, top in enumerate(ast.parse(source).body):
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names = [top.name]
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = (top.targets if isinstance(top, ast.Assign)
                           else [top.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, k, name, top.lineno) for name in names
                        if not name.startswith("__")
                        and (name.startswith("_") or name.isupper())]
            read = _naming_strings(top)
            for node in ast.walk(top):
                if (isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load)):
                    read.append(node.id)
                elif isinstance(node, ast.Attribute):
                    read.append(node.attr)
                elif isinstance(node, ast.alias):
                    read.append(node.name)
            for name in read:
                readers.setdefault(name, set()).add((module, k))
    return sorted(f"{module}: {name} (line {line})"
                  for module, k, name, line in defined
                  if not readers.get(name, set()) - {(module, k)})


def test_no_unused_module_level_names():
    """A linter-free dead-code audit: every private or UPPER_CASE top-level
    name in the package is read somewhere in the package outside its own
    definition."""
    package = Path(oracle_module.__file__).parent
    sources = {path.name: path.read_text()
               for path in sorted(package.glob("*.py"))}
    unused = _unused_module_names(sources)
    assert not unused, f"unused module-level names: {unused}"
    assert _unused_module_names({
        "a.py": "LIMIT = 3\nNOTE = 'x'\n_TOKEN = object()\n"
                "def _helper(): return _TOKEN\n"
                "def _walk(n): return _walk(n - 1)\n",
        "b.py": "from a import LIMIT\nimport a\nprint(a._helper())\n",
    }) == ["a.py: NOTE (line 2)", "a.py: _walk (line 5)"]
    # a string reads a name only in __all__ or an annotation
    assert _unused_module_names({"m": '_X = 1\nY = "_X"\n'}) == [
        "m: Y (line 2)", "m: _X (line 1)"]
    assert _unused_module_names({
        "m": '_X = 1\n_Y = 2\n__all__ = ["_X"]\ndef f(a: "_Y"): pass\n',
    }) == []
    # a helper left behind after its last caller moved to core is caught
    leftover = dict(sources)
    leftover["oracle.py"] += "\n\ndef _safe_upper(graph, l):\n    return ()\n"
    assert any(": _safe_upper (line" in name
               for name in _unused_module_names(leftover))


def _package_modules():
    """resgraph and each of its modules, imported."""
    package = Path(oracle_module.__file__).parent
    return [importlib.import_module("resgraph" + (
        "" if path.stem == "__init__" else f".{path.stem}"))
        for path in sorted(package.glob("*.py"))]


def _stale_exports(module) -> list[str]:
    """The names in `module.__all__` that the module does not bind."""
    return [name for name in getattr(module, "__all__", ())
            if not hasattr(module, name)]


def test_every_export_resolves():
    """An export audit: every name in each resgraph module's __all__ and in
    resgraph.__all__ resolves, and resgraph.__all__ lists exactly the names
    that __init__.py imports, so removing a public function cannot leave a
    stale export behind."""
    package = Path(oracle_module.__file__).parent
    for module in _package_modules():
        stale = _stale_exports(module)
        assert not stale, (f"{module.__name__}.__all__ names nothing bound: "
                           f"{stale}")
    init = ast.parse((package / "__init__.py").read_text())
    imported = [a.asname or a.name for node in init.body
                if isinstance(node, ast.ImportFrom) and node.level
                for a in node.names]
    assert sorted(resgraph.__all__) == sorted(imported)
    assert _stale_exports(types.SimpleNamespace(
        __all__=["kept", "gone"], kept=1)) == ["gone"]


def _unread_exports(exports, sources: dict[str, str], bench: str
                    ) -> list[str]:
    """The names in `exports` that no module in `sources` reads, by name or
    as an attribute, outside their own top-level def or class (an import
    or an __all__ entry is no read), and that the `bench` text does not
    name."""
    read = set()
    for source in sources.values():
        for top in ast.parse(source).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    read.add(name)
    return [name for name in exports if name not in read
            and not re.search(rf"\b{re.escape(name)}\b", bench)]


# the walker's test reference: the tests compare the strata walk with it,
# and the package itself never reads it
_TEST_REFERENCES = {"brute_antinef_sublevel"}


def test_every_export_has_a_reader():
    """A public-surface audit: every name in resgraph.__all__ and in each
    module's __all__ is read in the package outside its own definition, or
    named by the benchmark scripts, so a helper that only the tests call
    cannot stay public."""
    package = Path(oracle_module.__file__).parent
    sources = {path.name: path.read_text()
               for path in sorted(package.glob("*.py"))}
    bench = "\n".join(path.read_text() for path in sorted(
        (package.parents[1] / "bench").glob("*.py")))
    exports = {name for module in _package_modules()
               for name in getattr(module, "__all__", ())}
    unread = _unread_exports(sorted(exports - _TEST_REFERENCES), sources,
                             bench)
    assert not unread, f"public names with no reader: {unread}"
    assert _unread_exports(["f", "g", "h", "k", "C"], {
        "m.py": '__all__ = ["f", "g", "h", "k", "C"]\nfrom n import k\n'
                'def f(): return f()\ndef g(): pass\ndef h(): pass\n'
                'class C:\n    def me(self) -> C: return C()\n'
                'x = g()\nh = 1\n',
    }, "k = 1") == ["f", "h", "C"]


def test_single_vertex_hand_values(single_vertex):
    g = single_vertex
    e = g.basis_cycle("v")
    assert brute_fundamental_cycle(g) == e
    assert brute_min_antinef(g.cycle({"v": 3})) == g.cycle({"v": 3})
    assert brute_min_chi(g) == 1


def test_a2_hand_values(a2_chain):
    g = a2_chain
    zmin = brute_fundamental_cycle(g)
    assert zmin == g.cycle({"v1": 1, "v2": 1})
    assert chi(zmin) == 1
    lifted = brute_min_antinef(g.cycle({"v1": 1}))
    assert is_antinef(lifted) and lifted >= g.cycle({"v1": 1})


@pytest.mark.parametrize("name", ["g_app", "g_new", "g_noecc"])
def test_brute_against_elliptic_fixture(name, request):
    """The brute oracles pin the minimally elliptic cycle and the partial
    sums the fast path reads off the elliptic sequence, in order; g_new is
    not numerically Gorenstein."""
    from resgraph.ellseq import (antinef_in_class_below_ZK,
                                 elliptic_sequence, partial_sums)
    g = request.getfixturevalue(name)
    seq = elliptic_sequence(g)
    assert brute_minimally_elliptic(g) == seq.fundamental_cycles[-1]
    found = brute_lemci(g)
    assert found == [partial_sums(seq, t)[0] for t in range(-1, seq.m + 1)]
    assert found == antinef_in_class_below_ZK(g)


def test_brute_minimally_elliptic_on_g_right(g_right):
    """The chi <= 0 walk stays below the oracle's Z_min, so on the 26-vertex
    fixture it ends inside 10^6 nodes (the whole ellipsoid passes them)."""
    from resgraph.ellseq import elliptic_sequence
    assert brute_minimally_elliptic(g_right, cap=10 ** 6) == \
        elliptic_sequence(g_right).fundamental_cycles[-1]


@pytest.mark.parametrize("name", ["g_app", "g_new", "g_noecc", "g_left",
                                  "g_right"])
def test_brute_subsupports_are_the_sequence_supports(name, request):
    """The connected subsets with an integral, full-support canonical cycle
    are the sequence's supports B_0, ..., B_m, in order, on every elliptic
    fixture, the 24- and 26-vertex ones included."""
    from resgraph.ellseq import (elliptic_sequence,
                                 numerically_gorenstein_subsupports)
    g = request.getfixturevalue(name)
    subsupports = brute_subsupports(g)
    assert subsupports == list(elliptic_sequence(g).supports)
    assert subsupports == numerically_gorenstein_subsupports(g)


def _subtree_count(g):
    """Connected vertex subsets of a tree: sum over v of f(v), the subsets
    whose top vertex is v in a rooting, f(v) = prod_c (1 + f(c))."""
    root = g.vertices[0]
    order, parent = [root], {root: None}
    for v in order:
        for w in g.adjacency[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    f = dict.fromkeys(order, 1)
    for v in reversed(order[1:]):
        f[parent[v]] *= 1 + f[v]
    return sum(f.values())


@settings(max_examples=60, deadline=None)
@given(random_trees(max_vertices=12))
def test_connected_subsets_are_each_connected_subset_once(g):
    assume(g is not None)
    subsets = [frozenset(g.vertices[i] for i in s)
               for s in _connected_subsets(g)]
    assert len(set(subsets)) == len(subsets) == _subtree_count(g)
    for s in subsets:
        start = min(s)
        seen, stack = {start}, [start]
        while stack:
            for w in g.adjacency[stack.pop()]:
                if w in s and w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert seen == s


def _subsupports_by_build(g):
    """Reference: each connected subset's full subgraph built and validated
    by build_graph, and its canonical cycle read off."""
    hits = []
    for s in _connected_subsets(g):
        members = frozenset(g.vertices[i] for i in s)
        zk = canonical_cycle(full_subgraph(g, members))
        if zk.is_integral() and zk.support() == members:
            hits.append(members)
    return sorted(hits, key=lambda s: (-len(s), sorted(s)))


@pytest.mark.parametrize("name", ["g_app", "g_new", "g_noecc", "g_pole",
                                  "g_left", "g_right"])
def test_subsupports_match_the_built_subgraphs(name, request):
    g = request.getfixturevalue(name)
    assert brute_subsupports(g) == _subsupports_by_build(g)


@settings(max_examples=150, deadline=None)
@given(random_trees(max_vertices=11, min_euler=-6, max_euler=-1))
def test_subsupports_match_the_built_subgraphs_on_random_trees(g):
    assume(g is not None)
    assert brute_subsupports(g) == _subsupports_by_build(g)


def test_oracle_builds_graphs_only_in_enumerate_trees():
    """The per-subset solve needs no graph: build_graph is called only where
    the enumerated trees are made, and so is `_with_euler`, the one way to
    a graph that skips the validation of its shape, anywhere in the
    package."""
    tree = ast.parse(inspect.getsource(oracle_module))
    callers = {top.name for top in tree.body
               if isinstance(top, ast.FunctionDef)
               for node in ast.walk(top) if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "build_graph"}
    assert callers == {"enumerate_trees"}
    package = Path(oracle_module.__file__).parent
    callers = {(path.stem, getattr(top, "name", None))
               for path in sorted(package.glob("*.py"))
               for top in ast.parse(path.read_text()).body
               for node in ast.walk(top) if isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) == "_with_euler"}
    assert callers == {("oracle", "enumerate_trees")}


def _enumerate_by_build(max_vertices, values):
    """Reference for `enumerate_trees`: each class of assignments (the
    all-roots form), in the same order, built from its own spec by
    build_graph; None where build_graph refuses the spec as not negative
    definite."""
    for n in range(1, max_vertices + 1):
        names = [f"v{i + 1}" for i in range(n)]
        for adj in oracle_module._tree_shapes(n):
            edges = [(names[u], names[v]) for u in adj for v in adj[u]
                     if u < v]
            seen = set()
            for assignment in itertools.product(sorted(values), repeat=n):
                key = _all_roots_form(adj, assignment)
                if key in seen:
                    continue
                seen.add(key)
                try:
                    yield build_graph({"vertices": list(zip(names, assignment)),
                                       "edges": edges})
                except GraphValidationError as exc:
                    assert exc.diagnostic == "not-negative-definite"
                    yield None


@pytest.mark.parametrize("max_vertices, values", [
    (6, range(-3, 0)), (5, range(-5, -1)),
    pytest.param(7, range(-4, -1), marks=pytest.mark.slow)])
def test_enumerated_trees_are_the_built_trees(max_vertices, values):
    """Each tree made on its shape's one validated graph equals build_graph
    of its own spec, table by table, and the assignments it skips are
    exactly those build_graph refuses as not negative definite."""
    reference = list(_enumerate_by_build(max_vertices, values))
    built = [g for g in reference if g is not None]
    trees = list(enumerate_trees(max_vertices, values))
    assert len(trees) == len(built)
    for tree, ref in zip(trees, built):
        for name in ("vertices", "euler", "edges", "adjacency", "_index",
                     "_neighbours", "_pivots", "_order", "_parent",
                     "_edge_pairs", "_subdet", "_childdet", "det"):
            assert getattr(tree, name) == getattr(ref, name), name
        assert list(tree.euler) == list(ref.euler)
    if -1 in values:
        assert len(built) < len(reference)  # some assignments are refused


def test_enumerated_siblings_share_no_memo():
    """Trees of one shape share its tables, which are immutable, and
    nothing else: the memos of Z_K and E*_v on one do not show up on a
    sibling, whose own values are those of its build_graph twin."""
    trees = [g for g in enumerate_trees(4, range(-3, -1))
             if len(g.vertices) == 4 and g.degree("v1") == 3]
    first, sibling = trees[0], trees[1]
    assert first._neighbours is sibling._neighbours
    assert first._edge_pairs is sibling._edge_pairs
    assert isinstance(first._neighbours, tuple)
    assert all(isinstance(ws, tuple) for ws in first._neighbours)
    assert first.euler != sibling.euler
    canonical_cycle(first)
    dual_cycle(first, "v2")
    assert (sibling._canonical is None and sibling._dual_cache == {}
            and sibling._classification is None)
    twin = build_graph({"vertices": list(sibling.euler.items()),
                        "edges": [tuple(e) for e in sibling.edges]})
    assert canonical_cycle(sibling).num == canonical_cycle(twin).num
    assert dual_cycle(sibling, "v2").num == dual_cycle(twin, "v2").num
    assert canonical_cycle(first).num != canonical_cycle(sibling).num


def test_certified_meet():
    """The meet of the hits is returned when it is a hit, and refused
    otherwise, whichever caller asks."""
    assert _certified_meet({(1, 2), (1, 3), (2, 2)}, "x") == (1, 2)
    with pytest.raises(InvariantViolation, match="^x is not unique$"):
        _certified_meet({(1, 2), (2, 1)}, "x")


def test_resource_caps(g_app):
    with pytest.raises(ResourceCapExceeded):
        brute_fundamental_cycle(g_app, cap=10)
    # over SUBSET_BUDGET connected subsets: 2^17 + 17 on a 17-leaf star,
    # and g_app with a 1 200-vertex -2 chain at a9, deeper than Python's
    # recursion limit
    star = build_graph({
        "vertices": [("h", -18)] + [(f"l{i:02d}", -2) for i in range(17)],
        "edges": [("h", f"l{i:02d}") for i in range(17)]})
    for g in (star, g_app_with_chain(1200)):
        with pytest.raises(ResourceCapExceeded, match="connected subsets"):
            brute_subsupports(g)


def _fraction_chi_sublevel(graph, bound, cap):
    """Reference: the chi <= bound walk in Fraction arithmetic on the dense
    LDL of -A permuted to the reverse of the graph's block order, walked
    from its last coordinate, the root, down; each interval found by
    scanning outward from the floor of its centre."""
    perm = list(reversed(graph._order))
    n = len(perm)
    full = minus_a(graph)
    m = [[full[i][j] for j in perm] for i in perm]
    zk = canonical_cycle(graph).coeffs
    b = [zk[i] / 2 for i in perm]
    btmb = sum(b[i] * sum(m[i][j] * b[j] for j in range(n)) for i in range(n))
    radius2 = 2 * Fraction(bound) + btmb
    if radius2 < 0:
        return []
    d, u = dense_ldl(m)
    xs = [0] * n  # in vertex order
    out = []
    visited = 0

    def rec(i, budget):
        nonlocal visited
        visited += 1
        if visited > cap:
            raise ResourceCapExceeded(f"reference walk over {cap}")
        if i < 0:
            out.append(graph.from_vector(xs))
            return
        c = b[i] - sum(u[i][j] * (xs[perm[j]] - b[j]) for j in range(i + 1, n))
        q = budget / d[i]
        lo = math.floor(c)
        while (lo - c) ** 2 <= q:
            lo -= 1
        hi = math.floor(c)
        while (hi + 1 - c) ** 2 <= q:
            hi += 1
        for value in range(max(lo + 1, 0), hi + 1):
            xs[perm[i]] = value
            term = d[i] * (value - c) ** 2
            if term <= budget:
                rec(i - 1, budget - term)

    rec(n - 1, radius2)
    return out


def _check_walk(graph, bound, cap=oracle_module.DEFAULT_CAP):
    """The integer walk lists the reference's points in its order, and its
    chi is core's; when one walk passes the cap, so does the other."""
    try:
        expected = _fraction_chi_sublevel(graph, bound, cap)
    except ResourceCapExceeded:
        with pytest.raises(ResourceCapExceeded):
            list(_chi_sublevel(graph, cap)(bound))
        return None
    points = list(_chi_sublevel(graph, cap)(bound))
    assert [l for l, _ in points] == expected
    assert all(k == chi(l) for l, k in points)
    return points


@pytest.mark.parametrize("name,bound", [
    ("g_app", 0), ("g_app", 1), ("g_new", 0), ("g_new", 1),
    ("g_noecc", 0), ("g_noecc", 1), ("g_pole", 0)])
def test_chi_walk_matches_fraction_reference(name, bound, request):
    assert _check_walk(request.getfixturevalue(name), bound)


@settings(max_examples=60, deadline=None)
@given(random_trees(), st.sampled_from([0, 1]))
def test_chi_walk_matches_fraction_reference_on_random_trees(graph, bound):
    assume(graph is not None)
    _check_walk(graph, bound, cap=3000)


def test_searches_visit_the_same_nodes(g_app):
    """The least caps that let the two searches through on g_app, as
    measured on the Fraction versions: a search that visits more or fewer
    nodes moves them."""
    assert len(list(_chi_sublevel(g_app, 2914)(1))) == 849
    with pytest.raises(ResourceCapExceeded):
        list(_chi_sublevel(g_app, 2913)(1))
    assert brute_fundamental_cycle(g_app, cap=21) == \
        brute_fundamental_cycle(g_app)
    with pytest.raises(ResourceCapExceeded):
        brute_fundamental_cycle(g_app, cap=20)


def test_searches_build_no_fraction_per_node():
    """The recursions of the ellipsoid walker (core's, which the chi walk
    runs on) and of the boxed antinef search run on integers: no Fraction
    and no math.ceil/floor inside them."""
    outer = {node.name: node for module in (core_module, oracle_module)
             for node in ast.parse(inspect.getsource(module)).body
             if isinstance(node, ast.FunctionDef)}
    for name, inner in (("_ellipsoid_walk", "rec"),
                        ("_antinef_hits", "propagate"),
                        ("_antinef_hits", "rec")):
        body = next(node for node in ast.walk(outer[name])
                    if isinstance(node, ast.FunctionDef)
                    and node.name == inner)
        names = {node.id for node in ast.walk(body)
                 if isinstance(node, ast.Name)}
        attrs = {node.attr for node in ast.walk(body)
                 if isinstance(node, ast.Attribute)}
        assert "Fraction" not in names, (name, inner)
        assert not attrs & {"ceil", "floor"}, (name, inner)


def test_the_oracle_ldl_has_one_reader():
    """The oracle's LDL is core's leaf elimination, and only the chi walk
    reads it: `_subdet` and `_childdet` are read only inside
    `_chi_sublevel`, and no `_own_ldl`, `_minus_a` or `_ellipsoid` is
    defined. The chi walk is core's walker: no function here both calls
    itself and takes an isqrt, as a Fincke-Pohst recursion does. The box
    searches read their centres, radii and (M^{-1})_vv off core, and wrap
    each integer hit in a Cycle, not `from_vector`. The chi walk names
    neither Z_K nor the form: core's walker completes the square."""
    tree = ast.parse(inspect.getsource(oracle_module))
    callers, readers = {}, {}
    for outer in tree.body:
        if isinstance(outer, ast.FunctionDef):
            for node in ast.walk(outer):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(
                        node.func, "attr", None)
                    callers.setdefault(name, set()).add(outer.name)
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, set()).add(outer.name)
    assert readers["_subdet"] == readers["_childdet"] == {"_chi_sublevel"}
    assert not callers.get("from_vector", set()) & {
        "_certified_minimum", "brute_lemci", "brute_antinef_sublevel"}
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_own_ldl", "_minus_a", "_ellipsoid"}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            called = {getattr(call.func, "id", None)
                      or getattr(call.func, "attr", None)
                      for call in ast.walk(node) if isinstance(call, ast.Call)}
            assert not {node.name, "isqrt"} <= called, node.name
        if getattr(node, "name", None) == "_chi_sublevel":
            named = {getattr(name, "id", None) for name in ast.walk(node)}
            assert not named & {"canonical_cycle", "intersection_form"}


def test_min_chi_pole(g_pole):
    assert brute_min_chi(g_pole) == -1


def _min_chi_on_chi_le_1(graph):
    """The reference for brute_min_chi: the minimum read off the whole
    chi <= 1 sublevel set."""
    walk = _chi_sublevel(graph, oracle_module.DEFAULT_CAP)
    return min(k for l, k in walk(1) if not l.is_zero())


@pytest.mark.parametrize("name", ["single_vertex", "g_app", "g_new",
                                  "g_noecc", "g_pole"])
def test_min_chi_matches_the_chi_le_1_walk(name, request):
    """brute_min_chi probes ever lower sublevel sets for one nonzero point;
    the answer is the whole chi <= 1 set's."""
    graph = request.getfixturevalue(name)
    assert brute_min_chi(graph) == _min_chi_on_chi_le_1(graph)


def test_min_chi_matches_the_chi_le_1_walk_on_random_trees():
    """400 seeded trees of up to 9 vertices, -1 curves included; the seed
    gives minima 1, 0, -1 and -2, so both walks are taken."""
    rng = random.Random(1)
    minima = set()
    for _ in range(400):
        graph = random_tree(rng, 9, -4, -1)
        found = brute_min_chi(graph)
        assert found == _min_chi_on_chi_le_1(graph)
        minima.add(found)
    assert minima == {1, 0, -1, -2}


def test_min_chi_keeps_no_sublevel_set():
    """Draw 46 of this seed (9 vertices, two -1 curves) has min chi = -11
    and 3 057 029 points with chi <= 0; the probes find the minimum inside
    10^5 nodes per walk."""
    rng = random.Random(3)
    for _ in range(46):
        random_tree(rng, 9, -4, -1)
    graph = random_tree(rng, 9, -4, -1)
    assert sorted(graph.euler.values()) == [-4, -4, -3, -3, -3, -2, -2,
                                            -1, -1]
    assert brute_min_chi(graph, cap=10 ** 5) == -11


@pytest.mark.parametrize("name", ["g_left", "g_right"])
def test_verify_is_all_ok_on_large_fixtures(name, request):
    """Every check on the 24- and 26-vertex fixtures, the classification
    included, ends inside the default cap."""
    report = verify(request.getfixturevalue(name))
    assert report and set(report.values()) == {"ok"}


def test_enumerate_trees_counts():
    # n=1: two weights; n=2: three unordered pairs; n=3 path: 6 classes
    trees = list(enumerate_trees(3, range(-3, -1)))
    assert len(trees) == 11
    keys = set()
    for g in trees:
        adj = {g._index[v]: [g._index[w] for w in g.adjacency[v]]
               for v in g.vertices}
        labels = [g.euler[v] for v in g.vertices]
        keys.add(oracle_module._tree_form(oracle_module._centre_plan(adj),
                                          labels))
    assert len(keys) == len(trees)  # pairwise non-isomorphic


def test_enumerate_trees_validation():
    with pytest.raises(UserError):
        list(enumerate_trees(3, []))
    with pytest.raises(UserError):
        list(enumerate_trees(3, [0]))


def test_enumerate_trees_refuses_a_range_wider_than_the_cap():
    """At n = 1 each Euler number is one assignment, so a range of more
    values than the cap is refused after cap + 1 of them are read, not
    after the whole range is held; a range of exactly cap values runs."""
    with pytest.raises(ResourceCapExceeded, match="exceeded cap 100 "):
        next(enumerate_trees(1, range(-10 ** 12, 0), cap=100))
    assert len(list(enumerate_trees(1, range(-100, 0), cap=100))) == 100
    assert list(enumerate_trees(0, range(-200, 0), cap=100)) == []


def test_enumerate_trees_holds_no_range_when_no_tree_has_a_vertex():
    """At max_vertices = 0 a range of 10^6 values is checked as it is read
    but not held; a bad value in it is still refused."""
    tracemalloc.start()
    try:
        assert list(enumerate_trees(0, range(-10 ** 6, 0), cap=100)) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6
    with pytest.raises(UserError):
        list(enumerate_trees(0, range(-10 ** 6, 1), cap=100))
    with pytest.raises(UserError):
        list(enumerate_trees(0, []))


def test_enumerate_trees_sequence_is_pinned():
    """The yield order is part of the contract: the corpus checks hash
    their per-tree results in this order."""
    digest = hashlib.sha256()
    count = 0
    for g in enumerate_trees(6, (-2, -3)):
        digest.update(repr((g.vertices, tuple(g.euler[v] for v in g.vertices),
                            tuple(sorted(tuple(sorted(e)) for e in g.edges)))
                           ).encode())
        count += 1
    assert count == 263
    assert digest.hexdigest() == (
        "7c179385ceed19b1cd61b2c6e98eb95f9f97628974e3c1fe3ede51d67af6d499")


def test_sweep_corpus_sequence_is_pinned():
    """The criteria-sweep corpus, `enumerate_trees(7, range(-4, -1))`, in
    its yield order: the benchmark's reference results are recorded in
    this order."""
    digest = hashlib.sha256()
    count = 0
    for g in enumerate_trees(7, range(-4, -1)):
        digest.update(repr((g.vertices, tuple(g.euler[v] for v in g.vertices),
                            tuple(sorted(tuple(sorted(e)) for e in g.edges)))
                           ).encode())
        count += 1
    assert count == 11972
    assert digest.hexdigest() == (
        "e2755276e806ebfa4cfd11fc7909a87c7d8723fcd7a4e6881fad932aebc1ab5c")


def _edge_set(adj, perm):
    return {frozenset((perm[u], perm[v])) for u in adj for v in adj[u]}


@pytest.mark.parametrize("n", range(1, 8))
def test_shape_generators_generate_the_automorphism_group(n):
    """On every shape, each generator preserves the edges, and the group
    they generate is every edge-preserving permutation (found by trying
    all n! of them)."""
    for adj in oracle_module._tree_shapes(n):
        edges = _edge_set(adj, range(n))
        automorphisms = {p for p in itertools.permutations(range(n))
                         if _edge_set(adj, p) == edges}
        generators = oracle_module._shape_generators(adj)
        assert all(_edge_set(adj, g) == edges for g in generators)
        group, frontier = {tuple(range(n))}, [tuple(range(n))]
        while frontier:
            p = frontier.pop()
            for g in generators:
                q = tuple(g[p[v]] for v in range(n))
                if q not in group:
                    group.add(q)
                    frontier.append(q)
        assert group == automorphisms


@pytest.mark.parametrize("n, ks", [(n, (1, 2, 3)) for n in range(1, 8)] + [
    (8, (1, 2)), pytest.param(8, (3,), marks=pytest.mark.slow)],
    ids=lambda x: "k" + "".join(map(str, x)) if isinstance(x, tuple)
    else str(x))
def test_orbit_minima_are_the_first_of_each_class(n, ks):
    """On every shape, at k = 1, 2 and 3 labels, the orbit minima are the
    first labellings in product order of the all-roots-form classes. At
    n = 8 this includes the two-centre shapes whose halves swap (the path,
    and two 3-stars joined at their centres); the reference form takes
    about 10 s there at k = 3, so that case is slow."""
    for adj in oracle_module._tree_shapes(n):
        generators = oracle_module._shape_generators(adj)
        for k in ks:
            first, seen = [], set()
            for labels in itertools.product(range(k), repeat=n):
                key = _all_roots_form(adj, labels)
                if key not in seen:
                    seen.add(key)
                    first.append(list(labels))
            assert list(oracle_module._orbit_minima(
                generators, range(k), n)) == first


def test_enumerate_trees_refuses_a_shape_before_building_its_tables():
    """A shape's k**n assignments count against the cap when it is
    reached: at n = 2, 1 999 values make 1 999**2 of them, refused with the
    usual message before any table of that size is held."""
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapExceeded, match=(
                r"^tree enumeration exceeded cap 100000 \(Pruefer sequences "
                r"and euler assignments scanned\)$")):
            for _ in enumerate_trees(3, range(-2000, -1), cap=10 ** 5):
                pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


def test_free_tree_count_is_otters():
    # OEIS A000055
    assert [oracle_module._free_tree_count(n) for n in range(1, 12)] == [
        1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235]


def _all_roots_form(adj, labels):
    def rooted(v, parent):
        return (labels[v], tuple(sorted(rooted(w, v)
                                        for w in adj[v] if w != parent)))
    return min(rooted(v, -1) for v in adj)


def _full_scan_shapes(n):
    """Every Pruefer sequence, deduplicated by the all-roots form."""
    if n == 1:
        return [{0: []}]
    shapes, seen = [], set()
    for seq in itertools.product(range(n), repeat=n - 2):
        adj = {i: [] for i in range(n)}
        for u, v in oracle_module._pruefer_edges(seq, n):
            adj[u].append(v)
            adj[v].append(u)
        key = _all_roots_form(adj, [0] * n)
        if key not in seen:
            seen.add(key)
            shapes.append(adj)
    return shapes


@pytest.mark.parametrize("n", range(1, 8))
def test_tree_shapes_match_full_scan(n):
    """Stopping at Otter's count and keying on the centres keeps the same
    shapes, in the same order, with the same adjacency lists."""
    shapes = oracle_module._tree_shapes(n)
    reference = _full_scan_shapes(n)
    assert [list(a.items()) for a in shapes] == \
        [list(a.items()) for a in reference]


def test_tree_shapes_eight_vertices():
    assert len(oracle_module._tree_shapes(8)) == 23


def test_centre_form_agrees_with_all_roots():
    """On random labelled trees, and relabelled copies of them, the centre
    form and the all-roots form split the same pairs into isomorphic and
    not."""
    rng = random.Random(20)
    trees = []
    for _ in range(120):
        n = rng.randint(1, 10)
        adj = {i: [] for i in range(n)}
        for i in range(1, n):
            p = rng.randrange(i)
            adj[i].append(p)
            adj[p].append(i)
        labels = [rng.choice((0, 1)) for _ in range(n)]
        trees.append((adj, labels))
        perm = list(range(n))
        rng.shuffle(perm)
        trees.append(({perm[v]: [perm[w] for w in ws] for v, ws in adj.items()},
                      [labels[perm.index(v)] for v in range(n)]))
    centre = [oracle_module._tree_form(oracle_module._centre_plan(a), l)
              for a, l in trees]
    full = [_all_roots_form(a, l) for a, l in trees]
    for i in range(len(trees)):
        for j in range(i):
            assert (centre[i] == centre[j]) == (full[i] == full[j])
    assert len(set(full)) < len(full)  # some pairs are isomorphic


def test_verify_small_graph():
    g = build_graph({"vertices": [("a", -2), ("b", -2), ("c", -2)],
                     "edges": [("a", "b"), ("b", "c")]})
    report = verify(g)
    assert report["antinef-lift"] == "ok"
    assert report["fundamental-cycle"] == "ok"
    assert report["classification"] == "ok"


def test_verify_builds_one_elliptic_sequence(monkeypatch, g_app):
    """The three sequence checks read one validated sequence, the same
    that the ellseq wrappers read their answers off."""
    from resgraph import ellseq
    built = []
    build = ellseq.elliptic_sequence

    def counted(graph):
        built.append(graph)
        return build(graph)

    monkeypatch.setattr(ellseq, "elliptic_sequence", counted)
    report = verify(g_app)
    assert built == [g_app]
    assert list(report) == [
        "antinef-lift", "fundamental-cycle", "class-representative",
        "classification", "minimally-elliptic", "antinef-below-canonical",
        "gorenstein-subsupports", "elliptic-sequence"]
    assert set(report.values()) == {"ok"}


def test_verify_sets_up_each_brute_search_once(monkeypatch, g_app):
    """The classification and minimally-elliptic checks share one chi-walk
    set-up, and the minimally-elliptic walk stays below the Z_min of the
    fundamental-cycle check: one `_chi_sublevel` set-up and one brute Z_min
    search (the nonzero boxed minimum) per verify, next to the two boxed
    minima of the lift checks."""
    walks, minima = [], []
    chi_sublevel = oracle_module._chi_sublevel
    certified_minimum = oracle_module._certified_minimum

    def counted_walk(graph, cap):
        walks.append(graph)
        return chi_sublevel(graph, cap)

    def counted_minimum(base, cap, nonzero):
        minima.append(nonzero)
        return certified_minimum(base, cap, nonzero)

    monkeypatch.setattr(oracle_module, "_chi_sublevel", counted_walk)
    monkeypatch.setattr(oracle_module, "_certified_minimum", counted_minimum)
    report = verify(g_app)
    assert "minimally-elliptic" in report
    assert set(report.values()) == {"ok"}
    assert walks == [g_app]
    assert sorted(minima) == [False, False, True]


def test_verify_reports_skipped_checks_under_a_small_cap(g_app):
    """A check whose brute search exceeds the cap reads "skipped: ..." and
    the others still run; verify raises nothing."""
    report = verify(g_app, cap=10)
    skipped = [k for k, v in report.items() if v.startswith("skipped: ")]
    assert len(skipped) == 6 and "classification" in skipped
    # the minimally-elliptic search needs the brute Z_min that was refused
    assert report["minimally-elliptic"] == report["fundamental-cycle"]
    assert {k for k, v in report.items() if v == "ok"} == {
        "gorenstein-subsupports", "elliptic-sequence"}


def test_chi_walk_refuses_past_its_cap_in_its_own_words(g_app):
    """Past its cap, the chi walk refuses with the text that
    `oracle-verify` prints under a small RESGRAPH_ENUM_CAP."""
    text = "chi sublevel enumeration exceeded its budget (10)"
    with pytest.raises(ResourceCapExceeded) as refused:
        list(_chi_sublevel(g_app, 10)(1))
    assert str(refused.value) == text
    assert verify(g_app, cap=10)["classification"] == f"skipped: {text}"


def test_verify_lifts_the_sum_of_the_basis_twice(monkeypatch, g_app):
    """verify classifies before its fundamental-cycle check, so the fast
    Z_min is read off the classification: on a graph with empty memos, the
    lift kernel runs on sum_v E_v once for the replay check and once in
    `classify`, and once more on the sequence's support B_1; Z_K is
    integral, so the class representative and the pre-term are 0 with no
    lift."""
    lift, lifted = laufer._lift, []

    def counted_lift(g, num, scale, members):
        lifted.append(num == (1,) * len(num) and scale == 1)
        return lift(g, num, scale, members)

    monkeypatch.setattr(laufer, "_lift", counted_lift)
    fresh = g_app._with_euler(g_app.euler.items())
    report = verify(fresh)
    assert (len(lifted), sum(lifted)) == (3, 2)
    assert report == verify(g_app)


def _enumerate_outcome(max_vertices, values, cap):
    try:
        return [(g.vertices, tuple(g.euler[v] for v in g.vertices))
                for g in enumerate_trees(max_vertices, values, cap=cap)]
    except (UserError, ResourceCapExceeded) as exc:
        return type(exc), str(exc)


def test_enumerate_trees_checks_a_range_at_its_ends():
    """With no vertex to label, a range is checked at its ends, not value
    by value, so 10^18 values pass or fail at once; with one, it is read
    only up to the cap. Every outcome, refusals and their order included,
    is the one the value-by-value check gives the same values."""
    huge = range(-10 ** 18, 0)
    assert list(enumerate_trees(0, huge, cap=100)) == []
    with pytest.raises(UserError):
        list(enumerate_trees(0, range(-10 ** 18, 1)))
    with pytest.raises(UserError):
        list(enumerate_trees(0, range(0, -10 ** 18, -1)))
    with pytest.raises(ResourceCapExceeded, match="exceeded cap 100 "):
        next(enumerate_trees(1, huge, cap=100))
    for start, stop, step, max_vertices, cap in itertools.product(
            range(-6, 2), range(-6, 2), (1, 2, -1, -3), (0, 1, 2), (0, 2, 3)):
        values = range(start, stop, step)
        assert (_enumerate_outcome(max_vertices, values, cap)
                == _enumerate_outcome(max_vertices, tuple(values), cap)), \
            (values, max_vertices, cap)
