"""Brill-Noether machinery: depths, dimension tables, the strata solver."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from resgraph import quadform, strata
from resgraph.core import (build_graph, canonical_cycle, chi, dual_cycle,
                           estar_support, intersection_form)
from resgraph.ellseq import elliptic_sequence
from resgraph.errors import InvariantViolation, UserError
from resgraph.fixtures import load_fixture
from resgraph.laufer import (classify, fundamental_cycle,
                             minimal_class_representative)
from resgraph.oracle import brute_antinef_sublevel
from resgraph.strata import (AnalyticParams, fixed_component_candidates,
                             strata_index_sets, w_strata)

from conftest import (flag_dim, g_app_with_chain, package_imports,
                      random_tree, random_trees)


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


def test_depth_and_dim(g_app, seq_app):
    """B_1 excludes exactly a9; dim V(I(l')) is p_g - h1 on the image,
    read at -l' = sum of E*_v over I."""
    assert seq_app.depths["a9"] == 0
    assert seq_app.depths["a1"] == 1

    def dim_v(support, alpha):
        lprime = g_app.zero_cycle()
        for v in support:
            lprime = lprime - dual_cycle(g_app, v)
        report = w_strata(seq_app, lprime, alpha)
        return report.pg - report.h1_on_image

    assert dim_v((), 0) == 0
    assert dim_v(("a9",), 0) == 1
    assert dim_v(("a9", "a1"), 0) == 2
    assert dim_v(("a9",), 1) == 0
    assert dim_v(("a1",), 1) == 1


def test_pg_and_alpha_bounds(seq_app):
    assert seq_app.pg(0) == 2
    assert seq_app.pg(1) == 1
    with pytest.raises(UserError):
        seq_app.pg(2)


def test_reduction_index_and_h1(g_app, seq_app):
    for lprime, i, h1 in ((g_app.zero_cycle(), 0, 2),
                          (-dual_cycle(g_app, "a9"), 1, 1),
                          (-dual_cycle(g_app, "a1"), 2, 0)):
        report = w_strata(seq_app, lprime, 0)
        assert (report.reduction_index, report.h1_on_image) == (i, h1)
    with pytest.raises(UserError):  # l' must lie in -S'
        w_strata(seq_app, g_app.basis_cycle("a1"), 0)


def test_chern_classes_outside_the_lattice_are_refused(g_app, seq_app):
    """-l' = E*_a1 / 2 lies in -S' but not in L' = H^2(X~, Z): every
    function of a Chern class refuses it rather than answer for a class
    with no Picard component."""
    lprime = -dual_cycle(g_app, "a1") * Fraction(1, 2)
    for call in (lambda: w_strata(seq_app, lprime, 0),
                 lambda: strata_index_sets(seq_app, lprime,
                                           AnalyticParams())):
        with pytest.raises(UserError, match="lprime must lie in L'"):
            call()


def test_a_non_integral_slack_is_a_bug(monkeypatch, g_app, seq_app):
    """With l' in L' every slack is an integer, so the solver raises on one
    that is not instead of dropping it."""
    zero = (0,) * len(g_app.vertices)
    monkeypatch.setattr(strata, "antinef_points",
                        lambda *args: [(zero, Fraction(1, 2))])
    with pytest.raises(InvariantViolation):
        strata_index_sets(seq_app, g_app.zero_cycle(), AnalyticParams())


def test_fixed_component_candidates(g_app, g_new, seq_app):
    from resgraph.core import canonical_cycle
    cands = fixed_component_candidates(seq_app, 0)
    cycles = [c.cycle for c in cands]
    assert cycles == [g_app.zero_cycle(), fundamental_cycle(g_app),
                      canonical_cycle(g_app)]
    assert not any(c.exceptional for c in cands)
    # (C, C) = -1 and alpha >= 1 appends the flagged 2 Z_min
    cands1 = fixed_component_candidates(seq_app, 1)
    assert cands1[-1].exceptional
    assert cands1[-1].cycle == 2 * fundamental_cycle(g_app)
    with pytest.raises(UserError):  # needs numerically Gorenstein
        fixed_component_candidates(elliptic_sequence(g_new), 0)


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
    out = w_strata(seq_app, g_app.zero_cycle(), 1).strata
    kinds = {s.kind for s in out}
    assert kinds == {"linear", "wandering"}
    wander = next(s for s in out if s.kind == "wandering")
    assert wander.count_max == 1


def _check_w_strata(seq, rng, draws):
    """The W-strata report against the depths, at l' = 0 and at `draws`
    classes -l' = sum c_v E*_v with c_v in 0..3 on up to three vertices,
    for every alpha in [0, m]: i is the largest depth + 1 on I(l')."""
    graph = seq.graph
    lprimes = [graph.zero_cycle()]
    for _ in range(draws):
        minus = graph.zero_cycle()
        for v in rng.sample(graph.vertices, min(3, len(graph.vertices))):
            minus = minus + rng.randint(0, 3) * dual_cycle(graph, v)
        lprimes.append(-minus)
    for lprime in lprimes:
        support = estar_support(lprime)
        for alpha in range(seq.m + 1):
            report = w_strata(seq, lprime, alpha)
            assert report.pg == seq.pg(alpha)
            assert report.reduction_index == max(
                (seq.depths[v] + 1 for v in support), default=0)
            assert report.h1_on_image == seq.pg(alpha) - flag_dim(
                seq, support, alpha) == report.strata[0].k


@pytest.mark.parametrize("name", ["g_app", "g_new", "g_noecc", "g_left",
                                  "g_right"])
def test_w_strata_report_matches_its_parts(name, request):
    _check_w_strata(elliptic_sequence(request.getfixturevalue(name)),
                    random.Random(name), 12)


def test_w_strata_report_matches_its_parts_on_random_trees():
    """The first 20 elliptic draws of random_tree(Random(30), 10, -3, -2)."""
    rng = random.Random(30)
    found = 0
    while found < 20:
        graph = random_tree(rng, 10, -3, -2)
        if classify(graph).kind == "elliptic":
            found += 1
            _check_w_strata(elliptic_sequence(graph), rng, 6)


# the five elliptic fixtures, and g_app with a -2 chain of 3, 6 or 10
# vertices at a9 (m = 4, 7, 11)
_TIED_GRAPHS = ("g_app", "g_new", "g_noecc", "g_left", "g_right", 3, 6, 10)


@functools.cache
def _tied_sequence(graph):
    return elliptic_sequence(g_app_with_chain(graph) if isinstance(graph, int)
                             else load_fixture(graph).graph)


@st.composite
def _strata_queries(draw):
    """(seq, l', alpha, mode): -l' = sum c_v E*_v with c_v in 0..3 on up to
    three vertices, alpha in [0, m], generic or wecc mode."""
    seq = _tied_sequence(draw(st.sampled_from(_TIED_GRAPHS)))
    graph = seq.graph
    minus = graph.zero_cycle()
    for v in draw(st.lists(st.sampled_from(graph.vertices), max_size=3,
                           unique=True)):
        minus = minus + draw(st.integers(0, 3)) * dual_cycle(graph, v)
    return (seq, -minus, draw(st.integers(0, seq.m)),
            draw(st.sampled_from(["generic", "wecc"])))


@settings(max_examples=300, deadline=None)
@given(_strata_queries())
def test_strata_levels_are_the_w_strata_table(query):
    """The two stratifications of Pic^{l'} agree: the levels of the strata
    report that hold an accepted entry are the levels of the W-strata
    table's linear strata, 0 .. p_g(X_i), and the largest accepted dim at
    each level is that stratum's dim, p_g - k."""
    seq, lprime, alpha, mode = query
    report = strata_index_sets(seq, lprime,
                               AnalyticParams(alpha=alpha, mode=mode))
    accepted = {k: [e.dim for e in level if e.excluded_by is None]
                for k, level in report.levels.items()}
    tops = {k: max(dims) for k, dims in accepted.items() if dims}
    table = w_strata(seq, lprime, alpha)
    assert tops == {s.k: s.dim for s in table.strata if s.kind == "linear"}
    assert max(tops) == table.h1_on_image


def test_strata_levels_that_miss_the_table_are_a_bug(monkeypatch, g_app,
                                                     seq_app):
    """With every weight zero each candidate keeps dim 0, so at alpha 0 the
    level 0 tops out at dim 0, not p_g = 2: the solver raises with l',
    alpha, mode and the levels seen against those expected."""
    monkeypatch.setattr(strata, "_weights",
                        lambda seq, alpha: dict.fromkeys(seq.depths, 0))
    with pytest.raises(InvariantViolation) as info:
        strata_index_sets(seq_app, g_app.zero_cycle(), AnalyticParams())
    payload = info.value.payload
    assert payload["lprime"] == g_app.zero_cycle()
    assert (payload["alpha"], payload["mode"]) == (0, "generic")
    assert payload["expected"] == {2: 0, 1: 1, 0: 2}
    assert payload["levels"] != payload["expected"]


def test_strata_levels_are_checked_against_w_strata(monkeypatch, g_app,
                                                   seq_app):
    """The solver reads its expected levels off the W-strata report: a
    table with one linear dim off by one fails the check, and the payload
    shows that table."""
    real = strata.w_strata

    def altered(seq, lprime, alpha):
        report = real(seq, lprime, alpha)
        first, *rest = report.strata
        return dataclasses.replace(report, strata=(
            dataclasses.replace(first, dim=first.dim + 1), *rest))

    monkeypatch.setattr(strata, "w_strata", altered)
    with pytest.raises(InvariantViolation) as info:
        strata_index_sets(seq_app, g_app.zero_cycle(), AnalyticParams())
    payload = info.value.payload
    assert payload["expected"] == {2: 1, 1: 1, 0: 2}
    assert payload["levels"] == {2: 0, 1: 1, 0: 2}


def test_strata_checks_alpha_before_lprime(g_app, seq_app):
    """Like w_strata: with both alpha and l' bad, alpha is refused."""
    lprime = -dual_cycle(g_app, "a1") * Fraction(1, 2)
    with pytest.raises(UserError, match=r"^alpha must lie in \[0, 1\], "
                       "got 7$"):
        strata_index_sets(seq_app, lprime, AnalyticParams(alpha=7))


@pytest.mark.parametrize("alpha", [0.5, True, "1"])
def test_alpha_must_be_an_int(g_app, seq_app, alpha):
    """Every strata entry point refuses an alpha that is not an int, bool
    included, through EllipticSequence.pg, with the value quoted."""
    lprime = g_app.zero_cycle()
    for call in (lambda: w_strata(seq_app, lprime, alpha),
                 lambda: strata_index_sets(seq_app, lprime,
                                           AnalyticParams(alpha=alpha)),
                 lambda: fixed_component_candidates(seq_app, alpha)):
        with pytest.raises(UserError, match=r"alpha must lie in \[0, 1\], "
                           f"got {re.escape(repr(alpha))}$"):
            call()


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


def _check_nothing_excluded(seq, lprime):
    """With T empty (generic mode, or custom mode with no trivializable
    cycle) only a zero difference decomposes over T, and the walk's
    candidates are distinct, so rule (iii) excludes nothing."""
    for alpha in range(seq.m + 1):
        for params in (AnalyticParams(alpha=alpha),
                       AnalyticParams(alpha=alpha, mode="custom")):
            entries = [e for level in strata_index_sets(
                seq, lprime, params).levels.values() for e in level]
            assert len({e.l for e in entries}) == len(entries)
            assert all(e.excluded_by is None for e in entries)


@pytest.mark.parametrize("name", ["g_app", "g_new", "g_noecc", "g_left",
                                  "g_right"])
def test_nothing_is_excluded_without_trivializable_cycles(name, request):
    """On the five elliptic fixtures (g_pole is not elliptic), at l' = 0
    and l' = -C_{-1}."""
    graph = request.getfixturevalue(name)
    seq = elliptic_sequence(graph)
    for lprime in {graph.zero_cycle(), -seq.pre_term}:
        _check_nothing_excluded(seq, lprime)


def test_nothing_is_excluded_on_random_elliptic_trees():
    """On the first 25 elliptic draws of random_tree(Random(29), 12, -3,
    -2), at l' = 0 and at l' = -E*_v for each end v."""
    rng = random.Random(29)
    found = 0
    while found < 25:
        graph = random_tree(rng, 12, -3, -2)
        if classify(graph).kind != "elliptic":
            continue
        found += 1
        for lprime in (graph.zero_cycle(), *(-dual_cycle(graph, v) for v
                                             in graph.end_vertices())):
            _check_nothing_excluded(elliptic_sequence(graph), lprime)


# -- the strata levels against the oracle's antinef sublevel set -------------

@pytest.mark.parametrize("graph", [
    "g_app", "g_new", "g_noecc", 3, 6,
    pytest.param("g_left", marks=pytest.mark.slow),
    pytest.param("g_right", marks=pytest.mark.slow)])
def test_strata_levels_match_the_oracle(graph):
    """Each l of the oracle's set {l >= 0 : l - l' antinef,
    chi(l) + (l, l') <= p_g} gets dim V of the E*-support of l' - l and
    the level k = p_g - chi(l) - (l, l') - dim of (ii), computed apart
    from the walk; those with k >= 0 are the report's entries over all
    levels, excluded ones included. At l' = 0 and -E*_v for each end v,
    and on g_app, g_new and g_noecc also at the far class -25 E*_v for
    their first end v, at every alpha up to min(m, 2), in generic mode.
    g_left and g_right take 5-20 s each, so they run only under
    `python -m pytest -m slow`."""
    seq = _tied_sequence(graph)
    g = seq.graph
    ends = g.end_vertices()
    far = [-25 * dual_cycle(g, ends[0])] if graph in (
        "g_app", "g_new", "g_noecc") else []
    for lprime in (g.zero_cycle(), *(-dual_cycle(g, v) for v in ends),
                   *far):
        for alpha in range(min(seq.m, 2) + 1):
            pg = seq.pg(alpha)
            expected = set()
            for l in brute_antinef_sublevel(g, lprime, pg):
                dim = flag_dim(seq, estar_support(l - lprime), alpha)
                k = pg - chi(l) - intersection_form(l, lprime) - dim
                if k >= 0:
                    expected.add((l.num, k, dim))
            report = strata_index_sets(seq, lprime,
                                       AnalyticParams(alpha=alpha))
            entries = [(e.l.num, e.k, e.dim)
                       for level in report.levels.values() for e in level]
            assert len(set(entries)) == len(entries)
            assert set(entries) == expected, (graph, lprime, alpha)


# -- the ellipsoid walker against the oracle's antinef sublevel set ----------

def _lprimes(graph):
    """Chern classes for the walker checks: 0, -E*_v for the first vertex
    and -C_{-1} = -s_{[Z_K]} (zero when Z_K is integral)."""
    return {"zero": graph.zero_cycle(),
            "estar": -dual_cycle(graph, graph.vertices[0]),
            "pre": -minimal_class_representative(canonical_cycle(graph))}


def _check_walker(graph, lprime, bound):
    """The candidates are the oracle's antinef sublevel set
    {l >= 0 : l - l' antinef, chi(l) + (l, l') <= bound}, each found once
    and with its slack bound - chi(l) - (l, l')."""
    candidates = [(graph.from_vector(x), slack) for x, slack
                  in quadform.antinef_points(graph, lprime, bound,
                                             [0] * len(graph.vertices))]
    for l, slack in candidates:
        assert slack == bound - chi(l) - intersection_form(l, lprime)
    walked = [l for l, _ in candidates]
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
       st.sampled_from(["zero", "estar", "pre", "far"]),
       st.lists(st.tuples(st.integers(0, 7), st.integers(1, 30)),
                min_size=1, max_size=3))
@example(_DET10, 1, "zero", [(0, 1)])
def test_walker_matches_oracle_on_random_trees(graph, bound, kind, far):
    """The far kind is -sum c_v E*_v, c_v <= 30 on 1-3 vertices, deep in the
    cone; the oracle's chi box keeps it as cheap as a near class."""
    assume(graph is not None)
    if kind == "far":
        coeffs = {graph.vertices[i % len(graph.vertices)]: c for i, c in far}
        lprime = -sum((c * dual_cycle(graph, v) for v, c in coeffs.items()),
                      graph.zero_cycle())
    else:
        lprime = _lprimes(graph)[kind]
    _check_walker(graph, lprime, bound)


@settings(max_examples=80, deadline=None)
@given(random_trees(min_vertices=9, max_vertices=12, min_euler=-6),
       st.sampled_from([0, 1, 2]), st.sampled_from(["zero", "estar", "pre"]))
def test_walker_matches_oracle_on_wider_random_trees(graph, bound, kind):
    """More vertices and more leaves than above, which exercises the choice
    of the walk's root; about 20 ms per case, nearly all in the oracle."""
    assume(graph is not None)
    _check_walker(graph, _lprimes(graph)[kind], bound)


# -- the walker's work, counted as calls to its partial_filter argument -----

# the cut of a filter's range where no weight binds
_UNCUT = (0, 0, 0, 0)


@pytest.mark.parametrize("name, points, cap", [
    # 3 957 and 3 964 calls, one per range; a verdict per value made 9 773
    # and 9 799. The depth-first walk from the least-degree root, with a
    # filter that only read complete neighbourhoods, made 405 457 and
    # 166 274; counting unassigned children at 0 rather than at their
    # subtree bounds made 30 968 and 44 000
    ("g_left", 485, 5_000),
    ("g_right", 412, 5_000),
    # 6 788 calls from the widest leaf, v2 (58 867 with a verdict per
    # value); 154 880 per value from the graph's own root, v10, so the walk
    # keeps its own rooting
    ("det1364_tree", 3_753, 8_500)])
def test_walker_work_at_bound_4(walk_counts, request, name, points, cap):
    graph = request.getfixturevalue(name)
    walked = list(quadform.antinef_points(graph, graph.zero_cycle(), 4,
                                          [0] * len(graph.vertices)))
    assert len(walked) == walk_counts["points"] == points
    assert walk_counts["calls"] <= cap


def test_walker_work_far_from_the_origin(walk_counts, g_app):
    """l' = -12 E*_a9 is far out along one leaf: charged to the budget of
    {chi <= 2}, the walk makes 181 filter calls for these 4 points. Centred
    at Z_K/2 + l' it made 700, one per range (3 142 with a verdict per
    value), and the walk from the least-degree root with the
    complete-neighbourhood filter made 1 316 980 per value; that walk also
    needed both ends of each interval: without the floor it made 85 750
    calls, without the ceiling 5 506 575."""
    lprime = -12 * dual_cycle(g_app, "a9")
    walked = list(quadform.antinef_points(g_app, lprime, 2,
                                          [0] * len(g_app.vertices)))
    assert len(walked) == walk_counts["points"] == 4
    assert walk_counts["calls"] <= 900


def test_walker_refuses_a_class_outside_the_cone(g_app):
    """(E*_a1, E_a1) = -1: at l' = E*_a1 the charge of x_a1 would be
    negative, so the walk is refused as `w_strata` refuses the class."""
    with pytest.raises(UserError, match=re.escape(
            "lprime must lie in -S' (its negative must be antinef)")):
        list(quadform.antinef_points(g_app, dual_cycle(g_app, "a1"), 2,
                                     [0] * len(g_app.vertices)))


def test_walker_cuts_each_range_to_the_filter_interval(g_app):
    """The filter's interval at v, with the zero cut, cuts x_v's range and
    nothing else: (0, c) yields exactly the points with x_v <= c and
    (c, None) exactly those with x_v >= c, in the same order, for every c
    from one below the least value to one above the largest. The filter
    is asked once per range, never twice for the same v and assigned
    prefix. The ellipsoid is {l >= 0 : chi(l) <= 1}, 849 points."""
    zero = g_app.zero_cycle()
    rooting = quadform.walk_rooting(g_app)
    every = [x for x, _ in quadform.enumerate_ellipsoid_points(
        rooting, zero, 1, lambda i, xs: (0, None, _UNCUT))]
    assert len(every) == 849 and len(set(every)) == len(every)
    order = rooting[0]
    for v in order:
        values = sorted({x[v] for x in every})
        assert len(values) > 1
        for c in range(values[0] - 1, values[-1] + 2):
            for cut, keep in (((0, c, _UNCUT), lambda x: x[v] <= c),
                              ((c, None, _UNCUT), lambda x: x[v] >= c)):
                asked = set()

                def narrow(i, xs):
                    key = (i, tuple(xs[u] for u in order[:order.index(i)]))
                    assert key not in asked
                    asked.add(key)
                    return cut if i == v else (0, None, _UNCUT)
                kept = [x for x, _ in quadform.enumerate_ellipsoid_points(
                    rooting, zero, 1, partial_filter=narrow)]
                assert kept == [x for x in every if keep(x)]
                assert any(i == v for i, _ in asked)


def test_walker_keeps_its_traced_shape(g_app):
    """Tools that time the walker per next(), count the items it yields and
    count the calls to its partial_filter argument rely on this shape, and
    on quadform reading nothing of the package but core. Each item is a
    point with its slack bound - chi(x) - (x, l'), here at l' = -E*_a1, so
    that the walk charges (x, l') to its budget."""
    walker = quadform.enumerate_ellipsoid_points
    assert inspect.isgeneratorfunction(walker)
    parameter = inspect.signature(walker).parameters["partial_filter"]
    assert parameter.default is inspect.Parameter.empty  # required
    assert package_imports(quadform) == {"resgraph.core"}
    lprime, bound = -dual_cycle(g_app, "a1"), 2
    items = list(walker(quadform.walk_rooting(g_app), lprime, bound,
                        lambda i, xs: (0, None, _UNCUT)))
    assert items
    for point, left in items:
        assert isinstance(point, tuple) and isinstance(left, Fraction)
        assert len(point) == len(g_app.vertices)
        l = g_app.from_vector(point)
        assert left == bound - chi(l) - intersection_form(l, lprime) >= 0
