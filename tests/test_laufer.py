"""Computation sequences, the antinef lift and the classification."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resgraph.core import (build_graph, canonical_cycle, chi, is_antinef,
                           same_class)
from resgraph.errors import UserError
from resgraph.laufer import (_step_bound, antinef_lift, classify,
                             cube_representative, fundamental_cycle,
                             minimal_class_representative,
                             require_elliptic_minimal)

from conftest import full_subgraph, random_trees


def test_antinef_lift_properties(g_app):
    l = g_app.cycle({"a1": 1, "a5": 2})
    s, trace = antinef_lift(l)
    assert is_antinef(s)
    assert s >= l
    assert (s - l).is_integral()
    assert trace.start == l and trace.result == s
    assert trace.replay()
    # idempotence: already antinef cycles are fixed
    again, trace2 = antinef_lift(s)
    assert again == s and trace2.steps == ()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=10, max_size=10))
def test_antinef_lift_random(coeffs):
    g = build_graph({
        "vertices": [("a", -2), ("b", -3), ("c", -2), ("d", -2), ("e", -2),
                     ("f", -2), ("g", -2), ("h", -3), ("i", -2), ("j", -2)],
        "edges": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"),
                  ("f", "g"), ("g", "h"), ("h", "i"), ("c", "j")],
    })
    l = g.from_vector(coeffs)
    s, trace = antinef_lift(l)
    assert is_antinef(s) and s >= l and (s - l).is_integral()
    assert trace.replay()


def test_tampered_trace_does_not_replay(g_app):
    from resgraph.laufer import ComputationTrace
    l = g_app.cycle({"a1": 1, "a5": 2})
    s, trace = antinef_lift(l)
    assert trace.steps  # the lift is not trivial here
    bad = ComputationTrace(start=trace.start, steps=trace.steps,
                           result=trace.result + g_app.basis_cycle("a1"))
    assert not bad.replay()


def test_fundamental_cycle_app(g_app):
    zmin = fundamental_cycle(g_app)
    assert zmin == g_app.cycle({"a1": 2, "a2": 4, "a3": 6, "a4": 5, "a5": 4,
                                "a6": 3, "a7": 2, "a8": 1, "a9": 1, "u": 3})
    assert is_antinef(zmin) and zmin.is_integral()


def test_classification_kinds(g_app, g_pole, single_vertex, a2_chain):
    assert classify(single_vertex).kind == "rational"
    assert classify(a2_chain).kind == "rational"
    assert classify(g_app).kind == "elliptic"
    cls = classify(g_pole)
    assert cls.kind == "other" and cls.chi_zmin < 0


def test_cube_and_class_representative(g_new):
    zk = canonical_cycle(g_new)
    r = cube_representative(zk)
    assert all(0 <= c < 1 for c in r.coeffs)
    assert same_class(r, zk)
    s = minimal_class_representative(zk)
    assert is_antinef(s) and same_class(s, zk) and s >= r
    # the integral class has representative 0, lifted to 0
    assert minimal_class_representative(g_new.zero_cycle()).is_zero()


def test_chi_zmin_values(g_app, single_vertex):
    assert chi(fundamental_cycle(g_app)) == 0
    assert chi(fundamental_cycle(single_vertex)) == 1


def test_require_elliptic_minimal(g_app, g_pole, single_vertex):
    require_elliptic_minimal(g_app)
    with pytest.raises(UserError):
        require_elliptic_minimal(g_pole)  # not minimal
    with pytest.raises(UserError):
        require_elliptic_minimal(single_vertex)  # rational


def test_lift_past_the_cheap_guard():
    """A det-1 tree whose lift to Z_min takes 713 steps, far beyond the
    first guard of (2 det (max|l| + 1) + 1) n = 50, so the lift must go on
    to the true bound."""
    g = build_graph({
        "vertices": list(zip([f"v{i}" for i in range(10)],
                             [-2, -3, -2, -3, -3, -2, -2, -2, -3, -3])),
        "edges": [("v1", "v0"), ("v2", "v0"), ("v3", "v1"), ("v4", "v1"),
                  ("v5", "v0"), ("v6", "v1"), ("v7", "v4"), ("v8", "v5"),
                  ("v9", "v0")]})
    assert g.det == 1
    cls = classify(g)
    zmin, trace = antinef_lift(g.from_vector([1] * 10))
    assert cls.zmin == zmin and max(zmin.num) == 180
    assert len(trace.steps) == 713 and trace.replay()
    assert is_antinef(zmin) and cls.kind == "other"


@settings(max_examples=60, deadline=None)
@given(random_trees(max_vertices=10, min_euler=-4), st.data())
def test_step_bound_bounds_the_lift(graph, data):
    """The true bound holds for rational starts of either sign, and for
    lifts restricted to any support."""
    assume(graph is not None)
    n = len(graph.vertices)
    den = data.draw(st.sampled_from([1, 2, 3, 7]))
    l = graph.from_vector(Fraction(c, den) for c in data.draw(
        st.lists(st.integers(-8, 8), min_size=n, max_size=n)))
    assert len(antinef_lift(l)[1].steps) <= _step_bound(l)
    support = data.draw(st.sets(st.sampled_from(graph.vertices)))
    assert len(antinef_lift(l, support)[1].steps) <= _step_bound(l)


@settings(max_examples=80, deadline=None)
@given(random_trees(max_vertices=12), st.data())
def test_support_lift_is_the_subgraph_fundamental_cycle(g, data):
    """Lifting sum_{v in B} E_v with support B gives Z_B of the full
    subgraph on B, placed coefficient by coefficient, by the same steps,
    each in B, and the trace replays."""
    assume(g is not None)
    # a connected vertex set: a prefix of a search order from a random start
    order = [data.draw(st.sampled_from(g.vertices))]
    for v in order:
        order.extend(w for w in g.adjacency[v] if w not in order)
    support = order[:data.draw(st.integers(1, len(order)))]
    ones = g.cycle(dict.fromkeys(support, 1))
    lifted, trace = antinef_lift(ones, support=support)
    sub = full_subgraph(g, support)
    sub_lifted, sub_trace = antinef_lift(sub.from_vector([1] * len(support)))
    assert sub_lifted == fundamental_cycle(sub)
    assert lifted == g.cycle(sub_lifted.items())
    assert trace.steps == sub_trace.steps
    assert set(trace.steps) <= set(support) and trace.replay()


def test_support_lift_refuses_an_unknown_vertex(g_app):
    with pytest.raises(UserError, match="unknown vertex in support"):
        antinef_lift(g_app.basis_cycle("a1"), support={"a1", "zzz"})
