"""Metamorphic tests: renaming the vertices permutes every output.

The tree kernel roots the graph at its first vertex of least degree, by id,
so its rooted order follows the labels; an order-reversing renaming moves
that root. The ellipsoid walker roots at the widest leaf, which follows the
labels only on ties, and lists each vertex's children in id order. The
results may only move with the vertices.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from resgraph.cli import run
from resgraph.core import (build_graph, canonical_cycle, dual_cycle,
                           is_numerically_gorenstein)
from resgraph.criteria import criteria_reports
from resgraph.ellseq import elliptic_sequence, partial_sums, pg_table
from resgraph.errors import GraphValidationError
from resgraph.laufer import classify, fundamental_cycle
from resgraph.quadform import antinef_points
from resgraph.strata import AnalyticParams, strata_index_sets

from conftest import graph_data

FIXTURES = ["g_app", "g_new", "g_noecc"]


@pytest.fixture(scope="module", params=FIXTURES)
def pair(request):
    """(graph, renamed graph, rename, move): rename maps the vertex ids and
    move carries a cycle of the graph to the renamed one."""
    graph = request.getfixturevalue(request.param)
    n = len(graph.vertices)
    rename = {v: f"r{n - 1 - i:02d}" for i, v in enumerate(graph.vertices)}
    renamed, move = _renamed(graph, rename)
    # the renaming moves the root of the graph's own rooting
    root = graph.vertices[graph._order[0]]
    assert renamed.vertices[renamed._order[0]] != rename[root]
    return graph, renamed, rename, move


def _renamed(graph, rename):
    """The graph under the renaming, and the map carrying its cycles."""
    renamed = build_graph({
        "vertices": [(rename[v], e) for v, e in graph.euler.items()],
        "edges": [tuple(rename[v] for v in sorted(e)) for e in graph.edges]})

    def move(cycle):
        return renamed.cycle({rename[v]: c for v, c in cycle.items()})

    return renamed, move


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


@st.composite
def renamed_trees(draw):
    """(graph, renamed graph, rename, move) for a random tree of up to 10
    vertices, Euler numbers -5..-2, under a random renaming; None when the
    tree is not negative definite."""
    n = draw(st.integers(1, 10))
    eulers = draw(st.lists(st.integers(-5, -2), min_size=n, max_size=n))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    labels = draw(st.permutations([f"r{i}" for i in range(n)]))
    try:
        graph = build_graph({
            "vertices": [(f"v{i}", e) for i, e in enumerate(eulers)],
            "edges": [(f"v{i}", f"v{p}")
                      for i, p in enumerate(parents, start=1)]})
    except GraphValidationError as exc:
        assert exc.diagnostic == "not-negative-definite"
        return None
    rename = {f"v{i}": label for i, label in enumerate(labels)}
    renamed, move = _renamed(graph, rename)
    return graph, renamed, rename, move


@settings(max_examples=200, deadline=None)
@given(renamed_trees(), st.sampled_from([0, 1, 2]))
def test_random_trees_candidates_and_strata_permute(case, bound):
    """The walk's root is a tie-break by index among the widest leaves, so
    random renamings of random trees reach the ties."""
    assume(case is not None)
    graph, renamed, _, move = case
    lprimes = (graph.zero_cycle(), -dual_cycle(graph, graph.vertices[0]))
    for lprime in lprimes:
        uncut = [0] * len(graph.vertices)
        walked = {(renamed.from_vector(x), slack) for x, slack
                  in antinef_points(renamed, move(lprime), bound, uncut)}
        assert walked == {(move(graph.from_vector(x)), slack) for x, slack
                          in antinef_points(graph, lprime, bound, uncut)}
    if classify(graph).kind != "elliptic":
        return
    event("elliptic")
    seq, seq2 = elliptic_sequence(graph), elliptic_sequence(renamed)
    params = AnalyticParams()
    for lprime in (*lprimes, -seq.pre_term):
        report = strata_index_sets(seq, lprime, params)
        report2 = strata_index_sets(seq2, move(lprime), params)
        assert report2.pg == report.pg
        assert _levels(report2, lambda c: c) == _levels(report, move)


def _strata_json(capsys, *argv):
    code = run(["strata", *argv, "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 0, err
    return json.loads(out)


def _json_levels(data, back):
    """Each level of `strata --format json` as a sorted list of entries,
    with the vertex ids mapped by `back`; as in `_levels`, only whether an
    entry is excluded is kept."""
    def cycle(c):
        return {back[v]: x for v, x in c.items()}
    return {k: sorted((json.dumps(cycle(e["l"]), sort_keys=True),
                       json.dumps(cycle(e["chern"]), sort_keys=True),
                       e["dim"], e["maximal"], "excluded_by" in e)
                      for e in entries)
            for k, entries in data["levels"].items()}


@pytest.mark.parametrize("lprime", [None, "estar:a9=1"])
def test_strata_json_permutes(capsys, tmp_path, g_app, lprime):
    n = len(g_app.vertices)
    rename = {v: f"r{n - 1 - i:02d}" for i, v in enumerate(g_app.vertices)}
    back = {w: v for v, w in rename.items()}
    renamed, _ = _renamed(g_app, rename)
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(graph_data(renamed)))
    flags = [] if lprime is None else ["--lprime", lprime]
    flags2 = [] if lprime is None else ["--lprime",
                                        "estar:" + rename["a9"] + "=1"]
    data = _strata_json(capsys, "g_app", *flags)
    data2 = _strata_json(capsys, str(path), *flags2)
    assert _json_levels(data2, back) == _json_levels(
        data, {v: v for v in g_app.vertices})
    assert {back[v]: c for v, c in data2["lprime"].items()} == data["lprime"]
    assert (data2["pg"], data2["notes"]) == (data["pg"], data["notes"])
    assert [({back[v]: c for v, c in f["cycle"].items()}, f["exceptional"])
            for f in data2["fixed_component_candidates"]] == [
        (f["cycle"], f["exceptional"])
        for f in data["fixed_component_candidates"]]
