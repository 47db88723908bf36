"""Metamorphic tests: renaming the vertices permutes every output.

The tree kernel roots the graph at its first vertex of least degree, by id,
and the ellipsoid walker assigns coordinates in that rooted order, so both
follow the labels. An order-reversing renaming moves the root and the walk
order; the results may only move with the vertices.
"""

from __future__ import annotations

import pytest

from resgraph.core import (build_graph, canonical_cycle, dual_cycle,
                           is_numerically_gorenstein)
from resgraph.criteria import criteria_reports
from resgraph.ellseq import elliptic_sequence, partial_sums, pg_table
from resgraph.laufer import classify, fundamental_cycle
from resgraph.strata import AnalyticParams, strata_index_sets

FIXTURES = ["g_app", "g_new", "g_noecc"]


@pytest.fixture(scope="module", params=FIXTURES)
def pair(request):
    """(graph, renamed graph, rename, move): rename maps the vertex ids and
    move carries a cycle of the graph to the renamed one."""
    graph = request.getfixturevalue(request.param)
    n = len(graph.vertices)
    rename = {v: f"r{n - 1 - i:02d}" for i, v in enumerate(graph.vertices)}
    renamed = build_graph({
        "vertices": [(rename[v], e) for v, e in graph.euler.items()],
        "edges": [tuple(rename[v] for v in sorted(e)) for e in graph.edges]})
    root = graph.vertices[graph._order[0]]
    assert renamed.vertices[renamed._order[0]] != rename[root]

    def move(cycle):
        return renamed.cycle({rename[v]: c for v, c in cycle.items()})

    return graph, renamed, rename, move


def test_classify_and_invariants_permute(pair):
    graph, renamed, rename, move = pair
    cls, cls2 = classify(graph), classify(renamed)
    assert (cls2.kind, cls2.chi_zmin, cls2.zmin) == (
        cls.kind, cls.chi_zmin, move(cls.zmin))
    assert renamed.det == graph.det
    assert fundamental_cycle(renamed) == move(fundamental_cycle(graph))
    assert canonical_cycle(renamed) == move(canonical_cycle(graph))
    assert (is_numerically_gorenstein(renamed)
            == is_numerically_gorenstein(graph))
    for v in graph.vertices:
        assert dual_cycle(renamed, rename[v]) == move(dual_cycle(graph, v))


def test_elliptic_sequence_permutes(pair):
    graph, renamed, rename, move = pair
    seq, seq2 = elliptic_sequence(graph), elliptic_sequence(renamed)
    assert (seq2.m, seq2.length) == (seq.m, seq.length)
    assert seq2.pre_term == move(seq.pre_term)
    assert list(seq2.supports) == [frozenset(rename[v] for v in b)
                                   for b in seq.supports]
    assert list(seq2.fundamental_cycles) == [move(z)
                                             for z in seq.fundamental_cycles]
    for t in range(-1, seq.m + 1):
        assert partial_sums(seq2, t) == tuple(map(move, partial_sums(seq, t)))
    assert pg_table(seq2, 0) == pg_table(seq, 0)


def test_criteria_verdicts_permute(pair):
    graph, renamed, _, _ = pair
    assert ([r.verdict for r in criteria_reports(renamed)]
            == [r.verdict for r in criteria_reports(graph)])


def _levels(report, move):
    """Each level as a set; which excluder is recorded follows the
    coefficient order, so only whether an entry is excluded is kept."""
    return {k: {(move(e.l), move(e.chern), e.dim, e.k, e.maximal,
                 e.excluded_by is not None) for e in entries}
            for k, entries in report.levels.items()}


@pytest.mark.parametrize("mode", ["generic", "wecc", "custom"])
def test_strata_levels_permute(pair, mode):
    graph, renamed, _, move = pair
    seq, seq2 = elliptic_sequence(graph), elliptic_sequence(renamed)
    trivial = (fundamental_cycle(graph),) if mode == "custom" else ()
    params = AnalyticParams(alpha=0, mode=mode, trivializable=trivial)
    params2 = AnalyticParams(alpha=0, mode=mode,
                             trivializable=tuple(map(move, trivial)))
    for lprime in (graph.zero_cycle(), -seq.pre_term,
                   -dual_cycle(graph, graph.vertices[0])):
        report = strata_index_sets(seq, lprime, params)
        report2 = strata_index_sets(seq2, move(lprime), params2)
        assert report2.pg == report.pg
        assert _levels(report2, lambda c: c) == _levels(report, move)
