"""End-curve criteria and the gluing classifier."""

from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import assume, given, settings

import resgraph.criteria as criteria_module
from resgraph.core import (Cycle, _subtree_solve, _times_a, dual_cycle,
                           intersection_form)
from resgraph.criteria import (extension_criterion, glue_classify,
                               monomial_condition, supports_ecc,
                               supports_wecc)
from resgraph.errors import UserError

from conftest import random_trees


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


def test_supports_wecc_equals_ecc(g_app, g_noecc):
    assert supports_wecc(g_app) is True
    assert supports_ecc(g_app) is True
    assert supports_wecc(g_noecc) is False
    assert supports_ecc(g_noecc) is False


def test_criteria_require_elliptic(g_pole, single_vertex):
    with pytest.raises(UserError):
        supports_wecc(g_pole)
    with pytest.raises(UserError):
        supports_ecc(single_vertex)


def test_glue_classify_app(g_app):
    report = glue_classify(g_app, "a9", -2)
    assert report.negative_definite
    assert report.classification == "elliptic"
    assert report.lemma_conditions["m_v_zmin"] == 1
    assert report.lemma_conditions["v_in_B1"] is False
    assert report.lemma_conditions["v_is_end"] is True
    assert report.lemma_conditions["m_v_zk"] == 1


def test_glue_classify_not_definite(g_app):
    report = glue_classify(g_app, "u", -2)
    assert not report.negative_definite
    assert report.classification is None


def test_glue_classify_input_errors(g_app):
    with pytest.raises(UserError):
        glue_classify(g_app, "missing", -2)
    with pytest.raises(UserError):
        glue_classify(g_app, "a9", -1)
