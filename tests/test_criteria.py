"""End-curve criteria and the gluing lemma."""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
import sys

import pytest
from hypothesis import assume, given, settings

import resgraph.criteria as criteria_module
from resgraph.core import (Cycle, _subtree_solve, _times_a, build_graph,
                           canonical_cycle, dual_cycle, intersection_form,
                           is_numerically_gorenstein)
from resgraph.criteria import (criteria_reports, extension_criterion,
                               monomial_condition)
from resgraph.ellseq import elliptic_sequence
from resgraph.errors import GraphValidationError, InvariantViolation, UserError
from resgraph.laufer import classify, fundamental_cycle
from resgraph.oracle import enumerate_trees

from conftest import full_subgraph, random_tree, random_trees


def test_extension_criterion_app(g_app):
    report = extension_criterion(g_app)
    assert report.verdict and not report.violations
    assert report.name == "extension-criterion"


def test_extension_criterion_noecc(g_noecc):
    report = extension_criterion(g_noecc)
    assert not report.verdict
    assert any(len(r["neighbours_above"]) > 1 for r in report.violations)


def test_monomial_condition_app_witnesses(g_app):
    report = monomial_condition(g_app)
    assert report.verdict
    # every witness cycle satisfies the defining linear conditions
    ends = set(g_app.end_vertices())
    for record in report.witnesses:
        v = record["node"]
        branch = set(record["branch"])
        total = dual_cycle(g_app, v) + record["cycle"]
        assert record["cycle"].is_integral()
        assert record["cycle"].is_effective()
        assert intersection_form(total, g_app.basis_cycle(v)) == 0
        for u in branch - ends:
            assert intersection_form(total, g_app.basis_cycle(u)) == 0


def test_monomial_condition_noecc_violation_at_c8(g_noecc):
    report = monomial_condition(g_noecc)
    assert not report.verdict
    assert "c8" in {r["node"] for r in report.violations}


SIEVE_BUDGET = 50_000


def _sieve_branch_solution(graph, v, rooting, members, calls):
    """Reference for the branch search: every point of the simplex
    sum a_w iw_w = det in lexicographic order (ends sorted by (iw, id,
    vector) descending), and the first whose det C is integral and passes
    the re-validation of the defining linear conditions. A draw whose sieve
    passes SIEVE_BUDGET generator calls (`calls` counts them over the whole
    graph) is rejected: the walk is exponential in the number of ends."""
    _, parent, sub, kids, _ = rooting
    n = len(graph.vertices)
    node, contact = graph._index[v], members[0]
    det = sub[contact]
    required = [i for i in members if len(graph._neighbours[i]) > 1]
    triples = []
    for w in members:
        if len(graph._neighbours[w]) == 1:
            full = _subtree_solve(members, parent, sub, kids,
                                  [int(i == w) for i in range(n)])
            triples.append((full[contact], graph.vertices[w],
                            [full[i] for i in members]))
    iw, _, vecs = zip(*sorted(triples, reverse=True))

    def points(idx, remaining, total):
        # yields det C = sum a_w det E*_w(branch) for each simplex point
        assume(next(calls) < SIEVE_BUDGET)
        if idx == len(iw):
            if remaining == 0:
                yield total
            return
        for a in range(remaining // iw[idx] + 1):
            yield from points(idx + 1, remaining - a * iw[idx],
                              [t + a * c for t, c in zip(total, vecs[idx])])

    for total in points(0, det, [0] * len(members)):
        if any(t % det for t in total):
            continue
        placed = dict(zip(members, total))
        lifted = Cycle(graph, tuple(placed.get(i, 0) // det
                                    for i in range(n)))
        pairs = _times_a(graph, (dual_cycle(graph, v) + lifted).num)
        if not pairs[node] and not any(pairs[i] for i in required):
            return lifted
    return None


@settings(max_examples=40, deadline=None)
@given(random_trees(min_vertices=8, max_vertices=12, min_euler=-6))
def test_monomial_search_matches_the_simplex_sieve(graph):
    """Every (node, branch) witness or violation of the recursion equals
    that of the full simplex sieve, on trees beyond the pinned corpus's
    7 vertices."""
    assume(graph is not None)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(criteria_module, "_monomial_branch_solution",
                      functools.partial(_sieve_branch_solution,
                                        calls=itertools.count()))
        reference = monomial_condition(graph)
    # the recursion walks the same points without the last loop, so it
    # makes fewer calls than the sieve it is compared with
    report = monomial_condition(graph)
    assert report.witnesses == reference.witnesses
    assert report.violations == reference.violations


class _TooManyCalls(Exception):
    pass


def _counted_monomial_condition(graph, most=None):
    """monomial_condition(graph) and the number of calls of the branch
    search's `first`, counted from outside; past `most` calls the run is
    stopped with _TooManyCalls."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if (event == "call" and code.co_name == "first"
                and code.co_filename == criteria_module.__file__):
            calls += 1
            if most is not None and calls > most:
                raise _TooManyCalls(calls)

    sys.setprofile(profile)
    try:
        report = monomial_condition(graph)
    finally:
        sys.setprofile(None)
    return report, calls


def _assert_witnesses_hold(graph, report):
    ends = set(graph.end_vertices())
    for record in report.witnesses:
        total = dual_cycle(graph, record["node"]) + record["cycle"]
        assert record["cycle"].is_integral()
        assert record["cycle"].is_effective()
        for u in (set(record["branch"]) - ends) | {record["node"]}:
            assert intersection_form(total, graph.basis_cycle(u)) == 0


@pytest.mark.parametrize("name", ["g_left", "g_right"])
def test_monomial_search_skips_failed_states(name, request):
    """Failed states are cached, the last two multipliers of a branch are
    solved in closed form and sums that the remaining ends cannot make are
    skipped: 1 518 and 974 `first` calls, against 13 916 and 13 471 for
    the plain recursion."""
    graph = request.getfixturevalue(name)
    report, calls = _counted_monomial_condition(graph)
    assert calls <= 2_000
    _assert_witnesses_hold(graph, report)


def test_monomial_search_on_a_large_branch_determinant():
    """The rational 12-vertex tree of det 45 083 448: one branch at v2 has
    det 1 109 736 and six ends. The plain recursion made 15.7 million
    `first` calls (over 20 s); the search makes 87 044."""
    euler = [-5, -4, -5, -6, -6, -3, -5, -6, -5, -4, -6, -2]
    edges = [(1, 0), (2, 0), (3, 0), (4, 3), (5, 4), (6, 0), (7, 4), (8, 2),
             (9, 4), (10, 0), (11, 2)]
    graph = build_graph({
        "vertices": [(f"v{i}", e) for i, e in enumerate(euler)],
        "edges": [(f"v{u}", f"v{v}") for u, v in edges]})
    assert graph.det == 45_083_448
    report, _ = _counted_monomial_condition(graph, most=200_000)
    assert report.verdict and len(report.witnesses) == 12
    _assert_witnesses_hold(graph, report)


@pytest.mark.slow
def test_monomial_search_on_random_12_vertex_trees():
    """2 693 draws of random_tree(Random(1), 12, -6, -2) with at least 8
    vertices, rational ones included: the slowest makes 391 517 `first`
    calls (det 2 711 340, about 1.5 s), every other under 22 000."""
    rng = random.Random(1)
    draws = 0
    while draws < 2_693:
        graph = random_tree(rng, 12, -6, -2)
        if len(graph.vertices) < 8:
            continue
        draws += 1
        report, _ = _counted_monomial_condition(graph, most=500_000)
        _assert_witnesses_hold(graph, report)


def test_a_failed_revalidation_is_a_bug_not_a_dead_end(g_app):
    """Every point the search builds satisfies the defining conditions, so
    a failed re-validation raises with the node, the branch and the
    multipliers; returning None would cache it as a failed state."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(criteria_module, "_times_a",
                      lambda graph, num: [1] * len(num))
        with pytest.raises(InvariantViolation) as info:
            monomial_condition(g_app)
    payload = info.value.payload
    assert payload["node"] in g_app.nodes()
    ends = set(g_app.end_vertices()) & set(payload["branch"])
    assert set(payload["multipliers"]) == ends
    assert all(isinstance(a, int) and a >= 0
               for a in payload["multipliers"].values())


@pytest.mark.parametrize("name, branch", [
    ("g_app", ("a1", "a2")),
    ("g_right", ("A1", "A2", "B1", "B2", "C1", "C2", "D1", "D2", "P3", "P4",
                 "P5", "P6", "P7", "P8", "Q3", "Q5", "R1", "R2", "S1", "S2",
                 "T1", "T2", "U1"))])
def test_a_failed_revalidation_names_its_branch(name, branch, request):
    """A re-validation forced to fail lands on the first branch searched:
    on g_app a one-end branch, solved in closed form, whose payload names
    its end with multiplier det_B; on g_right a six-end branch, reached by
    the search, whose multipliers satisfy sum_w a_w m_w = 1 on the branch
    B built on its own."""
    graph = request.getfixturevalue(name)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(criteria_module, "_times_a",
                      lambda graph, num: [0] * len(num))
        with pytest.raises(InvariantViolation) as info:
            monomial_condition(graph)
    payload = info.value.payload
    assert payload["node"] == graph.nodes()[0]
    assert payload["branch"] == list(branch)
    b = full_subgraph(graph, branch)
    ends = set(graph.end_vertices()) & set(branch)
    (contact,) = set(graph.adjacency[payload["node"]]) & set(branch)
    multipliers = payload["multipliers"]
    assert set(multipliers) == ends
    if len(ends) == 1:
        assert multipliers == {ends.pop(): b.det}
    else:
        assert sum(a * dual_cycle(b, w).coefficient(contact)
                   for w, a in multipliers.items()) == 1


def _check_one_end_witnesses(graph):
    """Every branch of the monomial condition with one end w of the graph
    has a witness, det_B E*_w(B) for the branch B built on its own, and
    det_B m_w = 1 for m_w the coefficient of E*_w(B) at the contact; the
    number of such branches."""
    report = monomial_condition(graph)
    ends = set(graph.end_vertices())
    for record in report.violations:
        assert len(ends & set(record["branch"])) > 1
    checked = 0
    for record in report.witnesses:
        branch_ends = ends & set(record["branch"])
        if len(branch_ends) != 1:
            continue
        (w,) = branch_ends
        b = full_subgraph(graph, record["branch"])
        (contact,) = (set(graph.adjacency[record["node"]])
                      & set(record["branch"]))
        estar = dual_cycle(b, w)
        assert b.det * estar.coefficient(contact) == 1
        assert record["cycle"] == graph.cycle(
            (u, b.det * c) for u, c in estar.items())
        checked += 1
    return checked


def test_one_end_branches_on_the_fixtures(request):
    """The one-end branches of the six fixtures, each checked against its
    branch built on its own."""
    counts = {name: _check_one_end_witnesses(request.getfixturevalue(name))
              for name in ("g_app", "g_new", "g_noecc", "g_left", "g_right",
                           "g_pole")}
    assert counts == {"g_app": 3, "g_new": 3, "g_noecc": 4, "g_left": 8,
                      "g_right": 8, "g_pole": 4}


@settings(max_examples=60, deadline=None)
@given(random_trees(min_vertices=4, max_vertices=10, min_euler=-6))
def test_one_end_branches_on_random_trees(graph):
    assume(graph is not None and graph.nodes())
    _check_one_end_witnesses(graph)


def test_supports_wecc_equals_ecc(g_app, g_noecc):
    """The extension criterion decides a weak-end-curve structure and the
    monomial condition an end-curve structure; they agree."""
    for graph, expected in ((g_app, True), (g_noecc, False)):
        wecc, ecc = criteria_reports(graph)
        assert wecc.verdict is ecc.verdict is expected


def test_criteria_require_elliptic(g_pole, single_vertex):
    for graph in (g_pole, single_vertex):
        with pytest.raises(UserError):
            criteria_reports(graph)


def _glue(graph, v, e_new):
    """The graph with a new vertex of Euler number e_new attached to v."""
    return build_graph({
        "vertices": [(w, graph.euler[w]) for w in graph.vertices]
        + [("_glued", e_new)],
        "edges": [tuple(e) for e in graph.edges] + [(v, "_glued")]})


def test_glue_classify_app(g_app):
    """g_app glued at the end a9 with -2 stays elliptic, and the base meets
    the gluing constraints: m_v(Z_min) = 1, v not in B_1, v an end with
    m_v(Z_K) = 1 (g_app is numerically Gorenstein)."""
    assert classify(_glue(g_app, "a9", -2)).kind == "elliptic"
    assert fundamental_cycle(g_app).coefficient("a9") == 1
    assert elliptic_sequence(g_app).depths["a9"] < 1
    assert is_numerically_gorenstein(g_app)
    assert g_app.degree("a9") == 1
    assert canonical_cycle(g_app).coefficient("a9") == 1


def test_glue_classify_not_definite(g_app):
    """g_app glued at u with -2 is not negative definite and is refused."""
    with pytest.raises(GraphValidationError) as info:
        _glue(g_app, "u", -2)
    assert info.value.diagnostic == "not-negative-definite"


def test_gluing_lemma_on_every_extension(request):
    """Attach a new vertex of Euler number -2, -3 or -4 to each vertex v of
    the five elliptic fixtures. Whenever the extension is elliptic, the
    base meets the gluing constraints: m_v(Z_min) = 1 and v is not in B_1,
    and on a numerically Gorenstein base v is an end with m_v(Z_K) = 1.
    Of the 246 gluings, 91 are not negative definite and 39 are
    elliptic; g_app glued at a9 with -2 is one of those."""
    elliptic, indefinite = [], 0
    for name in ("g_app", "g_new", "g_noecc", "g_left", "g_right"):
        graph = request.getfixturevalue(name)
        depths = elliptic_sequence(graph).depths
        zmin, zk = fundamental_cycle(graph), canonical_cycle(graph)
        gorenstein = is_numerically_gorenstein(graph)
        for v in graph.vertices:
            for e_new in (-2, -3, -4):
                try:
                    extended = _glue(graph, v, e_new)
                except GraphValidationError as exc:
                    assert exc.diagnostic == "not-negative-definite"
                    indefinite += 1
                    continue
                if classify(extended).kind != "elliptic":
                    continue
                elliptic.append((name, v, e_new))
                assert zmin.coefficient(v) == 1 and depths[v] < 1
                if gorenstein:
                    assert graph.degree(v) == 1 and zk.coefficient(v) == 1
    assert (len(elliptic), indefinite) == (39, 91)
    assert ("g_app", "a9", -2) in elliptic


def test_refusals_quote_a_long_vertex_id(g_app):
    """A 10 000-character vertex id is cut down in the refusal, not echoed."""
    from resgraph.fixtures import load_fixture
    from resgraph.strata import AnalyticParams
    long_id = "v" * 10_000
    refusals = [lambda: AnalyticParams(mode=long_id),
                lambda: load_fixture(long_id)]
    for refuse in refusals:
        with pytest.raises(UserError) as info:
            refuse()
        message = str(info.value)
        assert len(message) < 200 and "characters)" in message


def _plain(value):
    """A report value with each cycle as its (num, den)."""
    if isinstance(value, Cycle):
        return value.num, value.den
    if isinstance(value, dict):
        return tuple((k, _plain(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(map(_plain, value))
    return value


def _reports_digest(max_vertices, eulers):
    """The number of elliptic trees of enumerate_trees(max_vertices, eulers)
    and the SHA-256 of their criteria reports in yield order: verdicts,
    violations, and witness cycles as (num, den)."""
    digest, count = hashlib.sha256(), 0
    for g in enumerate_trees(max_vertices, eulers):
        if classify(g).kind != "elliptic":
            continue
        count += 1
        for r in criteria_reports(g):
            digest.update(repr((r.name, r.verdict, _plain(r.violations),
                                _plain(r.witnesses))).encode())
    return count, digest.hexdigest()


@pytest.mark.parametrize("max_vertices, eulers, expected", [
    (7, range(-4, -1), (1138, "1655d030efc72347307241e0a95a8424"
                              "b521a1ce747a486f6eeb890faa6b2747")),
    pytest.param(8, range(-3, -1), (638, "0c81e3d585b0510ff86ea4aa2e3f4714"
                                         "9178b723b50045604b03860fef275e2c"),
                 marks=pytest.mark.slow)])
def test_criteria_reports_are_pinned(max_vertices, eulers, expected):
    """Every criteria report of the criteria-sweep corpus (7 vertices,
    Euler numbers -4..-2) and of the 8-vertex trees with -3..-2, witnesses
    included, against the digest recorded before the branch search solved
    one-end branches in closed form."""
    assert _reports_digest(max_vertices, eulers) == expected
