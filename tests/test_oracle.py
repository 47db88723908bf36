"""The brute-force side: independence, small hand-checked values, caps."""

from __future__ import annotations

import ast
import inspect
from fractions import Fraction
from pathlib import Path

import pytest

import resgraph.oracle as oracle_module
from resgraph.core import build_graph, chi, is_antinef
from resgraph.errors import ResourceCapExceeded, UserError
from resgraph.oracle import (SearchBox, brute_fundamental_cycle, brute_lemci,
                             brute_min_antinef, brute_min_chi,
                             brute_minimally_elliptic, brute_subsupports,
                             enumerate_trees, verify)


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
    """A linter-free check: every top-level import in the package is used."""
    package = Path(oracle_module.__file__).parent
    unused = {path.name: names for path in sorted(package.glob("*.py"))
              if (names := _unused_top_level_imports(path.read_text()))}
    assert not unused, f"unused imports: {unused}"
    assert _unused_top_level_imports("import os\nimport sys\nsys.exit()\n") \
        == ["os (line 1)"]


def test_search_box_validation():
    with pytest.raises(UserError):
        SearchBox(lower=(0, 0), upper=(1,))
    with pytest.raises(UserError):
        SearchBox(lower=(2,), upper=(1,))
    assert SearchBox(lower=(0, 0), upper=(2, 3)).volume == 12


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


def test_brute_against_elliptic_fixture(g_app):
    from resgraph.core import canonical_cycle
    from resgraph.ellseq import elliptic_sequence, partial_sums
    seq = elliptic_sequence(g_app)
    c = brute_minimally_elliptic(g_app)
    assert c == seq.fundamental_cycles[-1]
    found = brute_lemci(g_app)
    expected = sorted((partial_sums(seq, t)[0] for t in range(-1, seq.m + 1)),
                      key=lambda x: x.coeffs)
    assert found == expected
    assert set(brute_subsupports(g_app)) == set(seq.supports)


def test_resource_caps(g_app, g_left):
    with pytest.raises(ResourceCapExceeded):
        brute_fundamental_cycle(g_app, cap=10)
    with pytest.raises(ResourceCapExceeded):
        brute_subsupports(g_left)  # 24 vertices > subset cap


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


def test_verify_small_graph():
    g = build_graph({"vertices": [("a", -2), ("b", -2), ("c", -2)],
                     "edges": [("a", "b"), ("b", "c")]})
    report = verify(g)
    assert report["antinef-lift"] == "ok"
    assert report["fundamental-cycle"] == "ok"
    assert report["classification"] == "ok"
