"""Computation sequences, the antinef lift and the classification."""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resgraph.core import build_graph, canonical_cycle, chi, is_antinef
from resgraph.errors import (GraphValidationError, InvariantViolation,
                             UserError)
from resgraph.laufer import (ComputationTrace, _step_bound, antinef_lift,
                             classify, cube_representative, fundamental_cycle,
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
    l = g_app.cycle({"a1": 1, "a5": 2})
    s, trace = antinef_lift(l)
    assert trace.steps  # the lift is not trivial here
    bad = ComputationTrace(start=trace.start, runs=trace.runs,
                           result=trace.result + g_app.basis_cycle("a1"))
    assert not bad.replay()


def test_a_run_one_unit_too_long_does_not_replay(g_app):
    """Each run of the lift ends where its vertex pairs to <= 0, so one
    more unit step there is illegal though the run's first is legal; the
    result moves with it, so only the run's last step can tell."""
    s, trace = antinef_lift(g_app.cycle({"a1": 1, "a5": 2}))
    assert trace.replay() and len(trace.runs) > 1
    for j, (v, k) in enumerate(trace.runs):
        runs = trace.runs[:j] + ((v, k + 1),) + trace.runs[j + 1:]
        longer = ComputationTrace(start=trace.start, runs=runs,
                                  result=s + g_app.basis_cycle(v))
        assert not longer.replay(), (j, v, k)


def test_a_run_of_no_unit_steps_does_not_replay(g_app):
    """Runs of k = 0, or of k = -1 undone by a run of 1, leave the cycle
    where it was and pass the pairing test of their last step, but are
    no runs of the sequence."""
    s, trace = antinef_lift(g_app.cycle({"a1": 1, "a5": 2}))
    v = trace.runs[0][0]
    for prefix in (((v, 0),), ((v, -1), (v, 1))):
        bad = ComputationTrace(start=trace.start,
                               runs=prefix + trace.runs, result=s)
        assert not bad.replay(), prefix


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


def test_classification_is_memoized(g_app):
    """classify fills the graph's memo, which fundamental_cycle and
    require_elliptic_minimal read; a sibling of other euler numbers starts
    with none, and its own classification is its build_graph twin's."""
    graph = full_subgraph(g_app, g_app.vertices)
    assert graph._classification is None
    cls = classify(graph)
    assert classify(graph) is cls and require_elliptic_minimal(graph) is cls
    assert fundamental_cycle(graph) is cls.zmin
    assert cls.zmin.num == fundamental_cycle(g_app).num
    sibling = graph._with_euler(dict(graph.euler, a9=-3).items())
    assert sibling._classification is None
    twin = build_graph({"vertices": list(sibling.euler.items()),
                        "edges": [tuple(e) for e in sibling.edges]})
    assert classify(sibling).kind == classify(twin).kind
    assert classify(sibling).zmin.num == classify(twin).zmin.num


def test_cube_and_class_representative(g_new):
    zk = canonical_cycle(g_new)
    r = cube_representative(zk)
    assert all(0 <= c < 1 for c in r.coeffs)
    assert (r - zk).is_integral()
    s = minimal_class_representative(zk)
    assert is_antinef(s) and (s - zk).is_integral() and s >= r
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


def _det_one_tree():
    """A det-1 tree whose lift of sum_v E_v to Z_min takes 713 steps."""
    return build_graph({
        "vertices": list(zip([f"v{i}" for i in range(10)],
                             [-2, -3, -2, -3, -3, -2, -2, -2, -3, -3])),
        "edges": [("v1", "v0"), ("v2", "v0"), ("v3", "v1"), ("v4", "v1"),
                  ("v5", "v0"), ("v6", "v1"), ("v7", "v4"), ("v8", "v5"),
                  ("v9", "v0")]})


def test_lift_past_the_cheap_guard():
    """The 713 steps go far beyond the first guard of
    (2 det (max|l| + 1) + 1) n = 50, so the lift must go on to the true
    bound."""
    g = _det_one_tree()
    assert g.det == 1
    cls = classify(g)
    zmin, trace = antinef_lift(g.from_vector([1] * 10))
    assert cls.zmin == zmin and max(zmin.num) == 180
    assert len(trace.steps) == 713 and trace.replay()
    assert is_antinef(zmin) and cls.kind == "other"


def test_the_guard_counts_unit_steps(monkeypatch):
    """A batch that would take the unit steps past the true bound raises,
    though the bound falls inside that batch; a bound of exactly 713
    lets the lift finish."""
    start = _det_one_tree().from_vector([1] * 10)
    monkeypatch.setattr("resgraph.laufer._step_bound", lambda l: 712)
    with pytest.raises(InvariantViolation, match="termination guard"):
        antinef_lift(start)
    monkeypatch.setattr("resgraph.laufer._step_bound", lambda l: 713)
    assert len(antinef_lift(start)[1].steps) == 713


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


def _pairings(eulers, edges, z):
    """The neighbour lists from the edge list, and the pairings (z, E_v)."""
    neighbours = {v: [] for v in eulers}
    for u, w in edges:
        neighbours[u].append(w)
        neighbours[w].append(u)
    return neighbours, {v: e * z[v] + sum(z[w] for w in neighbours[v])
                        for v, e in eulers.items()}


def _unit_step_lift(eulers, edges, start, support):
    """The lift one E_v at a time, on pairings built from the edge list:
    each step adds E_v at an eligible vertex of largest pairing. Returns
    the endpoint and the number of steps."""
    z = dict(start)
    neighbours, pair = _pairings(eulers, edges, z)
    count = 0
    while support:
        v = max(support, key=pair.__getitem__)
        if pair[v] <= 0:
            break
        z[v] += 1
        pair[v] += eulers[v]
        for w in neighbours[v]:
            pair[w] += 1
        count += 1
    return z, count


def _draw_lift(data):
    """A random tree (euler numbers, edge list and graph), a rational start
    and a support (None for all vertices)."""
    n = data.draw(st.integers(1, 12))
    labels = [f"v{i}" for i in range(n)]
    eulers = dict(zip(labels, data.draw(
        st.lists(st.integers(-4, -1), min_size=n, max_size=n))))
    edges = [(labels[i], labels[data.draw(st.integers(0, i - 1))])
             for i in range(1, n)]
    try:
        g = build_graph({"vertices": list(eulers.items()), "edges": edges})
    except GraphValidationError:
        assume(False)
    den = data.draw(st.sampled_from([1, 2, 3, 7]))
    start = dict(zip(labels, (Fraction(c, den) for c in data.draw(
        st.lists(st.integers(-8, 8), min_size=n, max_size=n)))))
    support = data.draw(st.none() | st.sets(st.sampled_from(labels)))
    return eulers, edges, g, start, support


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sweep_lift_equals_the_unit_step_lift(data):
    """The batched sweeps reach the endpoint of an independent unit-step
    lift with as many unit steps, each in the support."""
    eulers, edges, g, start, support = _draw_lift(data)
    lifted, trace = antinef_lift(g.cycle(start), support)
    eligible = sorted(eulers) if support is None else sorted(support)
    expected, count = _unit_step_lift(eulers, edges, start, eligible)
    assert dict(lifted.items()) == expected
    assert len(trace.steps) == count
    assert set(trace.steps) <= set(eligible)
    assert trace.replay()


def _unit_replay(eulers, edges, start, steps, result):
    """Replay `steps` one E_v at a time on the integer pairings of den z:
    every step pairs positively and the end is `result`."""
    den = math.lcm(*(c.denominator for c in start.values()))
    z = {v: int(c * den) for v, c in start.items()}
    neighbours, pair = _pairings(eulers, edges, z)
    for v in steps:
        if pair[v] <= 0:
            return False
        z[v] += den
        pair[v] += den * eulers[v]
        for w in neighbours[v]:
            pair[w] += den
    return {v: Fraction(c, den) for v, c in z.items()} == result


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_runs_replay_as_their_unit_steps(data):
    """Every run has k >= 1 and the runs add up to the unit steps. A trace
    replays iff its runs are all positive and its unit steps replay one at
    a time, for the lift's own trace and for one whose run j is moved by
    one unit (the result moved with it)."""
    eulers, edges, g, start, support = _draw_lift(data)
    _, trace = antinef_lift(g.cycle(start), support)
    assert all(k >= 1 for _, k in trace.runs)
    assert sum(k for _, k in trace.runs) == len(trace.steps)
    traces = [trace]
    if trace.runs:
        j = data.draw(st.integers(0, len(trace.runs) - 1))
        delta = data.draw(st.sampled_from([-1, 1]))
        v, k = trace.runs[j]
        runs = trace.runs[:j] + ((v, k + delta),) + trace.runs[j + 1:]
        traces.append(ComputationTrace(
            start=trace.start, runs=runs,
            result=trace.result + delta * g.basis_cycle(v)))
    for t in traces:
        expected = (all(k >= 1 for _, k in t.runs)
                    and _unit_replay(eulers, edges, start, t.steps,
                                     dict(t.result.items())))
        assert t.replay() == expected


# SHA-256 of "\n".join(trace.steps) for the lift of k E_a1 on g_app, as the
# lift that stored one entry per unit step gave it
UNIT_STEP_DIGESTS = {
    100: "ebc114b294578dca18c15da4319fa04abc2d0efb43a3c0c5638f1c700661a9e6",
    1000: "dcede3361c634e43b5c46ca8d678e94d82a85fc81063c294eb56fba0fbe7a113",
    10000: "a24cf73184f6a032ed1b411f95651b69a2fea327d2529591fabe6e883ff83403",
}


def test_expanded_steps_keep_their_order(g_app):
    """The unit steps that the runs expand to are those of the unit-step
    trace, in the same order, which the benchmark's replay check reads."""
    for k, digest in UNIT_STEP_DIGESTS.items():
        steps = antinef_lift(k * g_app.basis_cycle("a1"))[1].steps
        assert isinstance(steps, tuple)
        assert hashlib.sha256("\n".join(steps).encode()).hexdigest() \
            == digest, k


def test_large_lifts_on_g_app(g_app):
    """k E_a1 for k = 10^2, 10^3, 10^4: the unit steps, the 10^4 endpoint,
    and a replay of the 10^3 trace on integer pairings."""
    lifts = {k: antinef_lift(k * g_app.basis_cycle("a1"))
             for k in (100, 1000, 10000)}
    assert {k: len(trace.steps) for k, (_, trace) in lifts.items()} \
        == {100: 1305, 1000: 13005, 10000: 130005}
    assert lifts[10000][0] == g_app.cycle({
        "a1": 10000, "a2": 19167, "a3": 28334, "a4": 23334, "a5": 18334,
        "a6": 13334, "a7": 8334, "a8": 3334, "a9": 1667, "u": 14167})
    end, trace = lifts[1000]
    z = dict.fromkeys(g_app.vertices, 0)
    z["a1"] = 1000
    pair = {v: g_app.euler[v] * z[v] + sum(z[w] for w in g_app.adjacency[v])
            for v in g_app.vertices}
    for v in trace.steps:
        assert pair[v] > 0
        z[v] += 1
        pair[v] += g_app.euler[v]
        for w in g_app.adjacency[v]:
            pair[w] += 1
    assert end == g_app.cycle(z)
