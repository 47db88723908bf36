"""The strata walk cut by level: the same candidates as the uncut walk,
for far less work."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resgraph import quadform
from resgraph.core import dual_cycle, estar_support
from resgraph.ellseq import elliptic_sequence
from resgraph.fixtures import load_fixture
from resgraph.laufer import classify, fundamental_cycle
from resgraph.quadform import antinef_points
from resgraph.strata import AnalyticParams, strata_index_sets

from conftest import (count_filter_calls, flag_dim, g_app_with_chain,
                      random_tree)

MODES = ("generic", "wecc", "custom")


def _params(graph, alpha, mode):
    trivializable = (fundamental_cycle(graph),) if mode == "custom" else ()
    return AnalyticParams(alpha=alpha, mode=mode, trivializable=trivializable)


def _lprimes(graph):
    """l' = 0, -E*_v for the first vertex and -2 E*_w for the last."""
    return (graph.zero_cycle(), -dual_cycle(graph, graph.vertices[0]),
            -2 * dual_cycle(graph, graph.vertices[-1]))


def _uncut_levels(seq, lprime, params):
    """The reference: every candidate of the full sublevel set, levelled by
    k = slack - dim V, kept when k is a non-negative integer, each level
    in the solver's order."""
    total = seq.pg(params.alpha)
    levels = {}
    for x, slack in antinef_points(seq.graph, lprime, total,
                                   [0] * len(seq.graph.vertices)):
        l = seq.graph.from_vector(x)
        dim = flag_dim(seq, estar_support(l - lprime), params.alpha)
        k = slack - dim
        if k.denominator == 1 and k >= 0:
            levels.setdefault(int(k), []).append((l.num, dim))
    return {k: sorted(entries, key=lambda c: (-c[1], c[0]))
            for k, entries in levels.items()}


def _check_cut(seq, lprime, modes=MODES):
    """For every alpha up to min(m, 2): the cut walk yields the uncut
    candidates with slack >= dim V, in the uncut order, and every report
    levels exactly the reference's candidates."""
    graph = seq.graph
    for alpha in range(min(seq.m, 2) + 1):
        reference = None
        for mode in modes:
            params = _params(graph, alpha, mode)
            report = strata_index_sets(seq, lprime, params)
            got = {k: [(e.l.num, e.dim) for e in entries]
                   for k, entries in report.levels.items() if entries}
            if reference is None:
                reference = _uncut_levels(seq, lprime, params)
            assert got == reference, (alpha, mode)
        total = seq.pg(alpha)
        weights = [max(0, seq.depths[v] - alpha + 1) for v in graph.vertices]
        kept = [(x, slack) for x, slack
                in antinef_points(graph, lprime, total, [0] * len(weights))
                if slack >= flag_dim(seq, estar_support(
                    graph.from_vector(x) - lprime), alpha)]
        assert list(antinef_points(graph, lprime, total, weights)) == kept


@pytest.mark.parametrize("name", ["g_app", "g_new", "g_noecc", "g_left",
                                  "g_right"])
def test_cut_walk_matches_the_uncut_reference(name):
    seq = elliptic_sequence(load_fixture(name).graph)
    for lprime in _lprimes(seq.graph):
        _check_cut(seq, lprime)


def _elliptic_tree(seed):
    """The first minimal elliptic tree of at least 3 vertices drawn from
    `random_tree` with Euler numbers -3 and -2 under this seed."""
    rng = random.Random(seed)
    while True:
        graph = random_tree(rng, 10, -3, -2)
        if len(graph.vertices) >= 3 and classify(graph).kind == "elliptic":
            return graph


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6).map(_elliptic_tree), st.integers(0, 2))
def test_cut_walk_matches_the_uncut_reference_on_random_trees(graph, which):
    seq = elliptic_sequence(graph)
    _check_cut(seq, _lprimes(graph)[which], modes=("generic",))


# -- the work the cut saves, counted at the walker's boundary -----------------

@pytest.mark.parametrize("name, entries", [("g_left", 40), ("g_right", 38)])
def test_cut_walk_yields_only_entries(walk_counts, name, entries):
    """At l' = 0 the uncut walk makes 3 957 / 3 964 filter calls for 485 /
    412 points; cut by level it makes 590 / 552 and yields exactly the
    report's entries."""
    seq = elliptic_sequence(load_fixture(name).graph)
    report = strata_index_sets(seq, seq.graph.zero_cycle(), AnalyticParams())
    assert sum(len(level) for level in report.levels.values()) == entries
    assert walk_counts["points"] == entries
    assert walk_counts["calls"] <= 700


def test_cut_adds_no_work_on_a_long_sequence(walk_counts):
    """g_app with an 8-vertex -2 chain at a9 has p_g 10; the uncut walk
    makes 969 filter calls for its 62 entries, the cut walk 509."""
    seq = elliptic_sequence(g_app_with_chain(8))
    assert seq.pg(0) == 10
    report = strata_index_sets(seq, seq.graph.zero_cycle(), AnalyticParams())
    assert sum(len(level) for level in report.levels.values()) == 62
    assert walk_counts["calls"] <= 969


def test_cut_adds_no_work_far_from_the_origin(walk_counts, g_app):
    """l' = -100 E*_a1: charged to the budget of {chi <= p_g}, the uncut
    walk makes 143 filter calls for 4 points and the cut walk 73 for this
    one entry. Centred at Z_K/2 + l', the uncut walk made 418 515, nearly
    all ended by the ellipsoid and the antinef cut, not the level."""
    seq = elliptic_sequence(g_app)
    report = strata_index_sets(seq, -100 * dual_cycle(g_app, "a1"),
                               AnalyticParams())
    assert sum(len(level) for level in report.levels.values()) == 1
    assert walk_counts["calls"] <= 73


def test_far_classes_cost_what_near_ones_do(monkeypatch, g_app):
    """The walk runs in the one ellipsoid {chi <= p_g} around Z_K/2 and
    charges (x, l') to its budget, so at l' = -c E*_a1 it makes the same
    73 filter calls for the same one point at every c. Around Z_K/2 + l'
    it made 2 773 / 418 060 / 6 094 779 calls at c = 25 / 100 / 200; the
    filter here raises past 1 000 calls, so such a walk fails fast."""
    seq = elliptic_sequence(g_app)
    weights = [max(0, seq.depths[v] + 1) for v in g_app.vertices]
    walker = quadform.enumerate_ellipsoid_points
    counts = {"calls": 0}

    def capped_walker(*args, **kwargs):
        bound = count_filter_calls(walker, args, kwargs, counts)
        counted = bound.arguments["partial_filter"]

        def capped(i, xs):
            assert counts["calls"] < 1_000, "the walk grows with l'"
            return counted(i, xs)
        bound.arguments["partial_filter"] = capped
        return walker(*bound.args, **bound.kwargs)

    monkeypatch.setattr(quadform, "enumerate_ellipsoid_points", capped_walker)
    walks = set()
    for c in (25, 100, 400):
        counts["calls"] = 0
        points = list(antinef_points(g_app, -c * dual_cycle(g_app, "a1"),
                                     seq.pg(0), weights))
        walks.add((counts["calls"], tuple(points)))
    [(calls, points)] = walks
    assert calls <= 100
    assert [x for x, _ in points] == [(0,) * len(g_app.vertices)]
