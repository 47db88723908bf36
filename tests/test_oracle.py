"""The brute-force side: independence, small hand-checked values, caps."""

from __future__ import annotations

import ast
import hashlib
import inspect
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import resgraph.oracle as oracle_module
from resgraph.core import build_graph, canonical_cycle, chi, is_antinef
from resgraph.errors import ResourceCapExceeded, UserError
from resgraph.oracle import (_chi_sublevel, _connected_subsets,
                             _minus_a, _own_ldl, brute_fundamental_cycle,
                             brute_lemci, brute_min_antinef, brute_min_chi,
                             brute_minimally_elliptic, brute_subsupports,
                             enumerate_trees, verify)

from conftest import random_trees


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


def _unused_top_level_imports(source: str) -> list[str]:
    """Names bound by a top-level import that the module never reads and
    does not list in __all__ (string annotations count as reads)."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            used.add(node.value)  # "Cycle" annotations and __all__ entries
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


def _unused_module_names(sources: dict[str, str]) -> list[str]:
    """Private (_x) and UPPER_CASE names defined at the top level of some
    module that no module reads: by name, as an attribute, through an
    import, or as an __all__ entry."""
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, name, node.lineno) for name in names
                        if not name.startswith("__")
                        and (name.startswith("_") or name.isupper())]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()):
                read.add(node.value)
    return sorted(f"{module}: {name} (line {line})"
                  for module, name, line in defined if name not in read)


def test_no_unused_module_level_names():
    """A linter-free check: every private or UPPER_CASE top-level name in
    the package is read somewhere in the package."""
    package = Path(oracle_module.__file__).parent
    sources = {path.name: path.read_text()
               for path in sorted(package.glob("*.py"))}
    unused = _unused_module_names(sources)
    assert not unused, f"unused module-level names: {unused}"
    assert _unused_module_names({
        "a.py": "LIMIT = 3\nNOTE = 'x'\n_TOKEN = object()\n"
                "def _helper(): return _TOKEN\n",
        "b.py": "from a import LIMIT\nimport a\nprint(a._helper())\n",
    }) == ["a.py: NOTE (line 2)"]


def test_single_vertex_hand_values(single_vertex):
    g = single_vertex
    e = g.basis_cycle("v")
    assert brute_fundamental_cycle(g) == e
    assert brute_min_antinef(g.cycle({"v": 3})) == g.cycle({"v": 3})
    value, argmins = brute_min_chi(g)
    assert value == 1 and e in argmins


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
    from resgraph.ellseq import minimally_elliptic_cycle
    assert brute_minimally_elliptic(g_right, cap=10 ** 6) == \
        minimally_elliptic_cycle(g_right)


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
    subsets = [frozenset(s) for s in _connected_subsets(g)]
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


def test_resource_caps(g_app):
    with pytest.raises(ResourceCapExceeded):
        brute_fundamental_cycle(g_app, cap=10)
    # over SUBSET_BUDGET connected subsets: 2^17 + 17 on a 17-leaf star,
    # and g_app with a 1 200-vertex -2 chain at a9, deeper than Python's
    # recursion limit
    star = build_graph({
        "vertices": [("h", -18)] + [(f"l{i:02d}", -2) for i in range(17)],
        "edges": [("h", f"l{i:02d}") for i in range(17)]})
    chain = [f"c{i:04d}" for i in range(1200)]
    long_tail = build_graph({
        "vertices": [(v, g_app.euler[v]) for v in g_app.vertices]
        + [(c, -2) for c in chain],
        "edges": [tuple(e) for e in g_app.edges] + [("a9", chain[0])]
        + list(zip(chain, chain[1:]))})
    for g in (star, long_tail):
        with pytest.raises(ResourceCapExceeded, match="connected subsets"):
            brute_subsupports(g)


def _fraction_chi_sublevel(graph, bound, cap):
    """Reference: the chi <= bound walk in Fraction arithmetic, each
    interval found by scanning outward from the floor of its centre."""
    n = len(graph.vertices)
    m = _minus_a(graph)
    b = [c / 2 for c in canonical_cycle(graph).coeffs]
    btmb = sum(b[i] * sum(m[i][j] * b[j] for j in range(n)) for i in range(n))
    radius2 = 2 * Fraction(bound) + btmb
    if radius2 < 0:
        return []
    d, u = _own_ldl(m)
    xs = [0] * n
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
        c = b[i] - sum(u[i][j] * (xs[j] - b[j]) for j in range(i + 1, n))
        q = budget / d[i]
        lo = math.floor(c)
        while (lo - c) ** 2 <= q:
            lo -= 1
        hi = math.floor(c)
        while (hi + 1 - c) ** 2 <= q:
            hi += 1
        for value in range(max(lo + 1, 0), hi + 1):
            xs[i] = value
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
            _chi_sublevel(graph, Fraction(bound), cap)
        return None
    points, den = _chi_sublevel(graph, Fraction(bound), cap)
    assert [l for l, _ in points] == expected
    assert all(Fraction(k, den) == chi(l) for l, k in points)
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
    assert len(_chi_sublevel(g_app, Fraction(1), 2661)[0]) == 849
    with pytest.raises(ResourceCapExceeded):
        _chi_sublevel(g_app, Fraction(1), 2660)
    assert brute_fundamental_cycle(g_app, cap=21) == \
        brute_fundamental_cycle(g_app)
    with pytest.raises(ResourceCapExceeded):
        brute_fundamental_cycle(g_app, cap=20)


def test_searches_build_no_fraction_per_node():
    """The recursions of the chi walk and the boxed antinef search run on
    integers: no Fraction and no math.ceil/floor inside them."""
    tree = ast.parse(inspect.getsource(oracle_module))
    outer = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    for name, inner in (("_chi_sublevel", "rec"),
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


def test_min_chi_pole(g_pole):
    value, argmins = brute_min_chi(g_pole)
    assert value == -1
    assert argmins and all(chi(l) == -1 for l in argmins)


def test_enumerate_trees_counts():
    # n=1: two weights; n=2: three unordered pairs; n=3 path: 6 classes
    trees = list(enumerate_trees(3, range(-3, -1)))
    assert len(trees) == 11
    keys = set()
    for g in trees:
        adj = {g._index[v]: [g._index[w] for w in g.adjacency[v]]
               for v in g.vertices}
        labels = [g.euler[v] for v in g.vertices]
        keys.add(oracle_module._canonical_form(adj, labels))
    assert len(keys) == len(trees)  # pairwise non-isomorphic


def test_enumerate_trees_validation():
    with pytest.raises(UserError):
        list(enumerate_trees(3, []))
    with pytest.raises(UserError):
        list(enumerate_trees(3, [0]))


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
    centre = [oracle_module._canonical_form(a, l) for a, l in trees]
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


def test_verify_reports_skipped_checks_under_a_small_cap(g_app):
    """A check whose brute search exceeds the cap reads "skipped: ..." and
    the others still run; verify raises nothing."""
    report = verify(g_app, cap=10)
    skipped = [k for k, v in report.items() if v.startswith("skipped: ")]
    assert len(skipped) == 6 and "classification" in skipped
    assert {k for k, v in report.items() if v == "ok"} == {
        "gorenstein-subsupports", "elliptic-sequence"}
