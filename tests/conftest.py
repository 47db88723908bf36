"""Shared fixtures and graph generators for the test suite."""

from __future__ import annotations

import ast
import inspect
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from resgraph import quadform
from resgraph.core import build_graph
from resgraph.errors import GraphValidationError, InvariantViolation
from resgraph.fixtures import load_fixture
from resgraph.graphio import FORMAT_VERSION, cycle_to_data


def _graph_fixture(name):
    @pytest.fixture(scope="session", name=name)
    def fix():
        return load_fixture(name).graph
    return fix


g_app = _graph_fixture("g_app")
g_new = _graph_fixture("g_new")
g_noecc = _graph_fixture("g_noecc")
g_pole = _graph_fixture("g_pole")
g_left = _graph_fixture("g_left")
g_right = _graph_fixture("g_right")


def count_filter_calls(walker, args, kwargs, counts):
    """The walker's arguments bound to its signature, with partial_filter
    wrapped to add one to counts["calls"] per call."""
    bound = inspect.signature(walker).bind(*args, **kwargs)
    inner = bound.arguments["partial_filter"]

    def counted(i, xs):
        counts["calls"] += 1
        return inner(i, xs)
    bound.arguments["partial_filter"] = counted
    return bound


@pytest.fixture
def walk_counts(monkeypatch):
    """The strata walker's filter calls and yielded points during the test,
    counted by wrapping the walker and its partial_filter argument, bound
    by name so that the walker's other arguments pass through."""
    counts = {"calls": 0, "points": 0}
    walker = quadform.enumerate_ellipsoid_points

    def counting_walker(*args, **kwargs):
        bound = count_filter_calls(walker, args, kwargs, counts)
        for item in walker(*bound.args, **bound.kwargs):
            counts["points"] += 1
            yield item

    monkeypatch.setattr(quadform, "enumerate_ellipsoid_points",
                        counting_walker)
    return counts


@pytest.fixture(scope="session")
def single_vertex():
    return build_graph({"vertices": [("v", -2)], "edges": []})


@pytest.fixture(scope="session")
def a2_chain():
    return build_graph({"vertices": [("v1", -2), ("v2", -2)],
                        "edges": [("v1", "v2")]})


@pytest.fixture(scope="session")
def det1364_tree():
    """An 11-vertex tree of det 1 364 whose widest leaf, v2, makes the
    strata walk far cheaper than the graph's own root, v10."""
    euler = [-2, -2, -2, -2, -6, -3, -6, -6, -4, -6, -4]
    edges = [(1, 0), (2, 1), (3, 1), (4, 3), (5, 3), (6, 4), (7, 3), (8, 0),
             (9, 1), (10, 7)]
    return build_graph({
        "vertices": [(f"v{i}", e) for i, e in enumerate(euler)],
        "edges": [(f"v{u}", f"v{v}") for u, v in edges]})


def minus_a(graph):
    """M = -A in vertex order, from the euler numbers and the edge set, for
    the dense references; the package itself builds no n x n matrix."""
    return [[-graph.euler[v] if v == w else -(frozenset((v, w)) in graph.edges)
             for w in graph.vertices] for v in graph.vertices]


def dense_ldl(matrix):
    """(d, u) with matrix = U^T diag(d) U, U unit upper triangular and u its
    strictly upper part: symmetric Gaussian elimination in Fractions, the
    full triple loop over every entry."""
    n = len(matrix)
    s = [[Fraction(x) for x in row] for row in matrix]
    d = []
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d.append(s[i][i])
        if d[i] <= 0:
            raise InvariantViolation("non-positive pivot")
        for j in range(i + 1, n):
            u[i][j] = s[i][j] / d[i]
        for a in range(i + 1, n):
            for b in range(i + 1, n):
                s[a][b] -= d[i] * u[i][a] * u[i][b]
    return d, u


def g_app_with_chain(length):
    """g_app with a -2 chain of `length` vertices c0, c1, ... at a9."""
    g_app = load_fixture("g_app").graph
    chain = [f"c{i}" for i in range(length)]
    return build_graph({
        "vertices": [(v, g_app.euler[v]) for v in g_app.vertices]
        + [(c, -2) for c in chain],
        "edges": [tuple(e) for e in g_app.edges] + [("a9", chain[0])]
        + list(zip(chain, chain[1:]))})


def flag_dim(seq, support, alpha):
    """dim V(I), computed apart from strata: the largest
    max(0, depth(u) - alpha + 1) over u in I, 0 for empty I."""
    return max((max(0, seq.depths[u] - alpha + 1) for u in support),
               default=0)


def full_subgraph(graph, vertices):
    """The full subgraph on a connected vertex set, built and validated by
    build_graph from the parent's Euler numbers and edges."""
    keep = frozenset(vertices)
    return build_graph({"vertices": [(v, graph.euler[v]) for v in keep],
                        "edges": [tuple(e) for e in graph.edges
                                  if e <= keep]})


def graph_data(graph, cycles=None):
    """The graph file data of `graph`, with the named `cycles` if given."""
    data = {"format": FORMAT_VERSION,
            "vertices": [{"id": v, "euler": graph.euler[v]}
                         for v in graph.vertices],
            "edges": [sorted(e) for e in sorted(graph.edges, key=sorted)]}
    if cycles:
        data["cycles"] = {name: cycle_to_data(c) for name, c in cycles.items()}
    return data


def package_imports(module):
    """The resgraph modules `module` imports anywhere in its source, function
    bodies included, as dotted names."""
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            names = [("resgraph." if node.level else "") + (node.module or "")]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        imported.update(n for n in names if n.startswith("resgraph"))
    return imported


def random_tree(rng, max_vertices=8, euler_lo=-5, euler_hi=-2):
    """A random negative-definite weighted tree (retries until definite)."""
    while True:
        n = rng.randint(1, max_vertices)
        spec = {
            "vertices": [(f"v{i}", rng.randint(euler_lo, euler_hi))
                         for i in range(n)],
            "edges": [(f"v{i}", f"v{rng.randrange(i)}") for i in range(1, n)],
        }
        try:
            return build_graph(spec)
        except GraphValidationError as exc:
            if exc.diagnostic != "not-negative-definite":
                raise


@st.composite
def random_trees(draw, min_vertices=1, max_vertices=8, min_euler=-5,
                 max_euler=-2):
    """Random trees, Euler numbers min_euler..max_euler, labels in random
    order, so that the rooted orders and the walk's tie-breaks vary; None
    when the draw is not negative definite."""
    n = draw(st.integers(min_vertices, max_vertices))
    labels = draw(st.permutations([f"v{i}" for i in range(n)]))
    eulers = draw(st.lists(st.integers(min_euler, max_euler), min_size=n,
                           max_size=n))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    try:
        return build_graph({"vertices": list(zip(labels, eulers)),
                            "edges": [(labels[i], labels[p]) for i, p
                                      in enumerate(parents, start=1)]})
    except GraphValidationError as exc:
        assert exc.diagnostic == "not-negative-definite"
        return None
