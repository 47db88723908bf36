"""Metamorphic tests: a blow-up pulls every invariant back.

A blow-up pi at a smooth point of E_v adds a -1 leaf at v and lowers e_v
by 1; one at E_u cap E_v puts a -1 vertex on that edge and lowers e_u and
e_v by 1. The pullback pi^*l keeps every old coefficient and takes l_v,
respectively l_u + l_v, at the new vertex E. Then det, the classification
and chi(Z_min) are unchanged, Z_min' = pi^*Z_min, Z_K' = pi^*Z_K - E,
E*_v' = pi^*E*_v for every old v, and chi(pi^*l) = chi(l) (Laufer, On
rational singularities, Amer. J. Math. 94, 1972; Nemethi, Normal Surface
Singularities, 2022). No oracle is needed, so the trees can be large.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from resgraph.core import build_graph, canonical_cycle, chi, dual_cycle
from resgraph.laufer import classify

from conftest import g_app_with_chain


@st.composite
def definite_trees(draw):
    """A tree of 20 to 200 vertices, negative definite by construction:
    g_app with a -2 chain at a9 (elliptic), or a random tree with
    e_v <= -(deg v + 1), whose -A is strictly diagonally dominant."""
    if draw(st.booleans()):
        return g_app_with_chain(draw(st.integers(10, 190)))
    n = draw(st.integers(20, 200))
    picks = draw(st.lists(st.integers(0, 10 ** 6), min_size=n, max_size=n))
    extra = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    edges = [(i, picks[i] % i) for i in range(1, n)]
    degree = [0] * n
    for i, p in edges:
        degree[i] += 1
        degree[p] += 1
    return build_graph({
        "vertices": [(f"t{i:03d}", -(degree[i] + 1) - extra[i])
                     for i in range(n)],
        "edges": [(f"t{i:03d}", f"t{p:03d}") for i, p in edges]})


def _blow_up(graph, ends, new):
    """The blow-up at a smooth point of E_v (ends = (v,)) or at E_u cap E_v
    (ends = (u, v)), with new vertex `new`, and its pullback on cycles."""
    euler = dict(graph.euler)
    for v in ends:
        euler[v] -= 1
    euler[new] = -1
    blown = build_graph({
        "vertices": list(euler.items()),
        "edges": [tuple(e) for e in graph.edges if e != frozenset(ends)]
        + [(v, new) for v in ends]})

    def pull(l):
        return blown.cycle({**dict(l.items()),
                            new: sum(l.coefficient(v) for v in ends)})

    return blown, pull


@settings(max_examples=40, deadline=None)
@given(definite_trees(), st.data())
def test_iterated_blow_ups_pull_invariants_back(graph, data):
    for k in range(data.draw(st.integers(1, 3))):
        if data.draw(st.booleans()):
            ends = (data.draw(st.sampled_from(graph.vertices)),)
        else:
            ends = tuple(sorted(data.draw(st.sampled_from(
                sorted(graph.edges, key=sorted)))))
        new = f"x{k}"
        blown, pull = _blow_up(graph, ends, new)
        assert blown.det == graph.det
        cls, cls2 = classify(graph), classify(blown)
        assert (cls2.kind, cls2.chi_zmin) == (cls.kind, cls.chi_zmin)
        assert cls2.zmin == pull(cls.zmin)
        assert canonical_cycle(blown) == \
            pull(canonical_cycle(graph)) - blown.basis_cycle(new)
        other = data.draw(st.sampled_from(graph.vertices))
        for v in {*ends, other}:
            assert dual_cycle(blown, v) == pull(dual_cycle(graph, v))
        l = graph.from_vector(data.draw(st.lists(
            st.integers(-3, 3), min_size=len(graph.vertices),
            max_size=len(graph.vertices))))
        assert chi(pull(l)) == chi(l)
        assert chi(pull(dual_cycle(graph, other))) == \
            chi(dual_cycle(graph, other))
        graph = blown
