"""Brill-Noether machinery: depths, dimension tables, the strata solver."""

from __future__ import annotations

import hashlib
import inspect
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from resgraph import quadform, strata
from resgraph.core import (build_graph, canonical_cycle, chi, dual_cycle,
                           intersection_form)
from resgraph.ellseq import elliptic_sequence
from resgraph.errors import UserError
from resgraph.fixtures import load_fixture
from resgraph.laufer import fundamental_cycle, minimal_class_representative
from resgraph.oracle import brute_antinef_sublevel
from resgraph.strata import (AnalyticParams, _candidate_cycles, depth, dim_V,
                             fixed_component_candidates, h1_on_image, pg,
                             reduction_index, strata_index_sets, w_strata)

from conftest import package_imports, random_trees


@pytest.fixture(scope="module")
def seq_app(g_app):
    return elliptic_sequence(g_app)


def test_analytic_params_validation(g_app):
    with pytest.raises(UserError):
        AnalyticParams(mode="nonsense")
    with pytest.raises(UserError):
        AnalyticParams(mode="generic",
                       trivializable=(fundamental_cycle(g_app),))
    with pytest.raises(UserError):  # not antinef
        AnalyticParams(mode="custom",
                       trivializable=(g_app.basis_cycle("a1"),))
    with pytest.raises(UserError):  # not integral
        AnalyticParams(mode="custom",
                       trivializable=(g_app.cycle({"a1": Fraction(1, 2)}),))
    AnalyticParams(mode="custom", trivializable=(fundamental_cycle(g_app),))


def test_depth_and_dim(seq_app):
    # B_1 excludes exactly a9
    assert depth(seq_app, "a9") == 0
    assert depth(seq_app, "a1") == 1
    with pytest.raises(UserError):
        depth(seq_app, "missing")
    p0 = AnalyticParams(alpha=0)
    assert dim_V(seq_app, set(), p0) == 0
    assert dim_V(seq_app, {"a9"}, p0) == 1
    assert dim_V(seq_app, {"a9", "a1"}, p0) == 2
    p1 = AnalyticParams(alpha=1)
    assert dim_V(seq_app, {"a9"}, p1) == 0
    assert dim_V(seq_app, {"a1"}, p1) == 1


def test_pg_and_alpha_bounds(seq_app):
    assert pg(seq_app, AnalyticParams(alpha=0)) == 2
    assert pg(seq_app, AnalyticParams(alpha=1)) == 1
    with pytest.raises(UserError):
        pg(seq_app, AnalyticParams(alpha=2))


def test_reduction_index_and_h1(g_app, seq_app):
    zero = g_app.zero_cycle()
    assert reduction_index(seq_app, zero) == 0
    assert reduction_index(seq_app, -dual_cycle(g_app, "a9")) == 1
    assert reduction_index(seq_app, -dual_cycle(g_app, "a1")) == 2
    p0 = AnalyticParams(alpha=0)
    assert h1_on_image(seq_app, zero, p0) == 2
    assert h1_on_image(seq_app, -dual_cycle(g_app, "a9"), p0) == 1
    assert h1_on_image(seq_app, -dual_cycle(g_app, "a1"), p0) == 0
    with pytest.raises(UserError):  # l' must lie in -S'
        reduction_index(seq_app, g_app.basis_cycle("a1"))


def test_fixed_component_candidates(g_app, g_new, seq_app):
    from resgraph.core import canonical_cycle
    cands = fixed_component_candidates(seq_app, AnalyticParams(alpha=0))
    cycles = [c.cycle for c in cands]
    assert cycles == [g_app.zero_cycle(), fundamental_cycle(g_app),
                      canonical_cycle(g_app)]
    assert not any(c.exceptional for c in cands)
    # (C, C) = -1 and alpha >= 1 appends the flagged 2 Z_min
    cands1 = fixed_component_candidates(seq_app, AnalyticParams(alpha=1))
    assert cands1[-1].exceptional
    assert cands1[-1].cycle == 2 * fundamental_cycle(g_app)
    with pytest.raises(UserError):  # needs numerically Gorenstein
        fixed_component_candidates(elliptic_sequence(g_new),
                                   AnalyticParams(alpha=0))


def test_strata_report_structure(g_app, seq_app):
    params = AnalyticParams(alpha=0, mode="wecc")
    lprime = g_app.zero_cycle()
    report = strata_index_sets(seq_app, lprime, params)
    assert report.pg == 2
    assert set(report.levels) == {0, 1, 2}
    for k, entries in report.levels.items():
        for e in entries:
            # the defining equation of the level
            assert (report.pg - e.dim
                    - (chi(e.l) + intersection_form(e.l, lprime))) == k
            assert e.l.is_integral() and e.l.is_effective()
            assert e.chern == lprime - e.l
            if e.excluded_by is not None:
                ek, el = e.excluded_by
                assert ek > k
                assert any(o.l == el and o.excluded_by is None
                           for o in report.levels[ek])
    # each nonempty level flags at least one maximal entry
    for k, entries in report.levels.items():
        accepted = [e for e in entries if e.excluded_by is None]
        if accepted:
            tops = [e for e in accepted if e.maximal]
            assert tops
            assert all(e.dim == max(a.dim for a in accepted) for e in tops)


def test_strata_generic_mode_notes(g_app, seq_app):
    report = strata_index_sets(seq_app, g_app.zero_cycle(),
                               AnalyticParams(alpha=0, mode="generic"))
    assert any("superset" in n for n in report.notes)


def test_w_strata_wandering(g_app, seq_app):
    out = w_strata(seq_app, g_app.zero_cycle(), AnalyticParams(alpha=1))
    kinds = {s.kind for s in out}
    assert kinds == {"linear", "wandering"}
    wander = next(s for s in out if s.kind == "wandering")
    assert wander.count_max == 1


def test_strata_reports_pinned():
    """Pins the reports on the five elliptic fixtures by a SHA-256 of every
    entry's (k, l, chern, dim, maximal, excluded_by), level by level from
    the top: generic and wecc at alpha 0 and 1 with l' = -C_{-1}, and
    custom on g_noecc with T = {Z_min} and l' = -E*_c9."""
    digest = hashlib.sha256()

    def feed(report):
        for k in sorted(report.levels, reverse=True):
            for e in report.levels[k]:
                excluder = e.excluded_by and (e.excluded_by[0],
                                              e.excluded_by[1].num)
                digest.update(repr((e.k, e.l.num, (e.chern.num, e.chern.den),
                                    e.dim, e.maximal, excluder)).encode())

    for name in ("g_app", "g_new", "g_noecc", "g_left", "g_right"):
        seq = elliptic_sequence(load_fixture(name).graph)
        for mode in ("generic", "wecc"):
            for alpha in (0, 1):
                feed(strata_index_sets(seq, -seq.pre_term,
                                       AnalyticParams(alpha=alpha, mode=mode)))
    g = load_fixture("g_noecc").graph
    feed(strata_index_sets(
        elliptic_sequence(g), -dual_cycle(g, "c9"),
        AnalyticParams(mode="custom", trivializable=(fundamental_cycle(g),))))
    assert digest.hexdigest() == (
        "06b608fa9b9c668e373bd82a2c4f9c6180d578ca56a608224054f89a96d9128f")


# -- the ellipsoid walker against the oracle's antinef sublevel set ----------

def _lprimes(graph):
    """Chern classes for the walker checks: 0, -E*_v for the first vertex
    and -C_{-1} = -s_{[Z_K]} (zero when Z_K is integral)."""
    return {"zero": graph.zero_cycle(),
            "estar": -dual_cycle(graph, graph.vertices[0]),
            "pre": -minimal_class_representative(canonical_cycle(graph))}


def _check_walker(graph, lprime, bound):
    """The candidates are the oracle's antinef sublevel set
    {l >= 0 : l - l' antinef, chi(l) + (l, l') <= bound}, each found once."""
    walked = _candidate_cycles(graph, lprime, bound)
    assert len(set(walked)) == len(walked)
    expected = brute_antinef_sublevel(graph, lprime, bound)
    assert len(set(expected)) == len(expected)
    assert set(walked) == set(expected)


@pytest.mark.parametrize("name, bound", [
    (name, bound) for name in ("g_app", "g_new", "g_noecc", "g_pole")
    for bound in (0, 1, 2)])
def test_walker_matches_oracle_on_fixtures(name, bound, request):
    graph = request.getfixturevalue(name)
    for lprime in _lprimes(graph).values():
        _check_walker(graph, lprime, bound)


def test_walker_matches_oracle_on_g_left(g_left):
    """24 vertices: the oracle's pruned box search takes about a second
    here at bound 1."""
    lprimes = _lprimes(g_left)
    for kind in ("zero", "estar"):
        _check_walker(g_left, lprimes[kind], 1)


@pytest.mark.slow
def test_walker_matches_oracle_on_g_right(g_right):
    """24 vertices again; the oracle's box here holds hundreds of antinef
    points outside the ellipsoid, so this takes 1-6 s and runs only under
    `python -m pytest -m slow`."""
    lprimes = _lprimes(g_right)
    for kind in ("zero", "estar"):
        _check_walker(g_right, lprimes[kind], 1)


# det 10; its whole chi <= 1 sublevel set passes 10^6 points, while the
# antinef part the walker returns has 71
_DET10 = build_graph({
    "vertices": list(zip([f"v{i}" for i in range(8)],
                         [-2, -2, -2, -5, -5, -2, -2, -3])),
    "edges": [("v0", "v1"), ("v0", "v3"), ("v0", "v4"), ("v0", "v5"),
              ("v0", "v7"), ("v1", "v2"), ("v2", "v6")]})


@settings(max_examples=80, deadline=None)
@given(random_trees(), st.sampled_from([0, 1, 2]),
       st.sampled_from(["zero", "estar", "pre"]))
@example(_DET10, 1, "zero")
def test_walker_matches_oracle_on_random_trees(graph, bound, kind):
    assume(graph is not None)
    _check_walker(graph, _lprimes(graph)[kind], bound)


@settings(max_examples=80, deadline=None)
@given(random_trees(min_vertices=9, max_vertices=12, min_euler=-6),
       st.sampled_from([0, 1, 2]), st.sampled_from(["zero", "estar", "pre"]))
def test_walker_matches_oracle_on_wider_random_trees(graph, bound, kind):
    """More vertices and more leaves than above, which exercises the choice
    of the walk's root; about 20 ms per case, nearly all in the oracle."""
    assume(graph is not None)
    _check_walker(graph, _lprimes(graph)[kind], bound)


# -- the walker's work, counted as calls to its partial_filter argument -----

def _filter_calls(monkeypatch, graph, lprime, bound):
    """(candidates, number of partial_filter calls) of _candidate_cycles,
    counted by wrapping the filter on its way into the walker."""
    calls = 0
    walker = quadform.enumerate_ellipsoid_points

    def counting_walker(graph, center, radius2, partial_filter=None):
        def counted(i, xs):
            nonlocal calls
            calls += 1
            return partial_filter(i, xs)
        return walker(graph, center, radius2, partial_filter=counted)

    monkeypatch.setattr(strata, "enumerate_ellipsoid_points", counting_walker)
    walked = _candidate_cycles(graph, lprime, bound)
    return walked, calls


@pytest.mark.parametrize("name, points, cap", [
    # 9 773 and 9 799 calls. The depth-first walk from the least-degree
    # root, with a filter that only read complete neighbourhoods, made
    # 405 457 and 166 274; counting unassigned children at 0 rather than
    # at their subtree bounds makes 30 968 and 44 000
    ("g_left", 485, 15_000),
    ("g_right", 412, 15_000),
    # 58 867 calls from the widest leaf, v2; 154 880 from the graph's own
    # root, v10, so the walk keeps its own rooting
    ("det1364_tree", 3_753, 75_000)])
def test_walker_work_at_bound_4(monkeypatch, request, name, points, cap):
    graph = request.getfixturevalue(name)
    walked, calls = _filter_calls(monkeypatch, graph, graph.zero_cycle(), 4)
    assert len(walked) == points
    assert calls <= cap


def test_walker_work_far_from_the_origin(monkeypatch, g_app):
    """l' = -12 E*_a9 puts the center far out along one leaf: 3 142 filter
    calls for these 4 points. The walk from the least-degree root with the
    complete-neighbourhood filter made 1 316 980. The cap also needs both
    parts of the filter: skipping the values that overflow a neighbour
    instead of stopping there makes 4 807, and counting unassigned children
    at 0 makes 44 862."""
    lprime = -12 * dual_cycle(g_app, "a9")
    walked, calls = _filter_calls(monkeypatch, g_app, lprime, 2)
    assert len(walked) == 4
    assert calls <= 4_000


def test_walker_stops_a_range_on_none(g_app):
    """None from the filter ends the range of the coordinate just assigned:
    stopping once x_v > c yields exactly the points with x_v <= c, in the
    same order. After a stop the walk backtracks, so the next filter call
    is at an earlier vertex, not at v again. The ellipsoid is
    {l >= 0 : chi(l) <= 1}, 849 points."""
    center = canonical_cycle(g_app) * Fraction(1, 2)
    radius2 = 2 - intersection_form(center, center)
    every = list(quadform.enumerate_ellipsoid_points(g_app, center, radius2))
    assert len(set(every)) == len(every)
    for v in range(len(g_app.vertices)):
        values = sorted({x[v] for x in every})
        assert len(values) > 1
        for c in values[:-1]:
            stopped = False

            def stop(i, xs):
                nonlocal stopped
                assert not (stopped and i == v)
                stopped = i == v and xs[i] > c
                return None if stopped else True
            kept = list(quadform.enumerate_ellipsoid_points(
                g_app, center, radius2, partial_filter=stop))
            assert kept == [x for x in every if x[v] <= c]


def test_walker_keeps_its_traced_shape():
    """Tools that time the walker per next() and count the calls to its
    partial_filter argument rely on this shape, and on quadform reading
    nothing of the package but core."""
    walker = quadform.enumerate_ellipsoid_points
    assert inspect.isgeneratorfunction(walker)
    assert "partial_filter" in inspect.signature(walker).parameters
    assert package_imports(quadform) == {"resgraph.core"}
