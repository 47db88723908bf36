"""The ten acceptance criteria, one test (or parametrized family) each.

Every numeric comparison is exact rational equality. Criterion 8 is
parametrized over three graphs and stated at the Chern class -C_{-1}, the
negative of the pre-term of the elliptic sequence, so that it also covers
the graph whose canonical class is not integral (see its docstring).
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from resgraph import oracle
from resgraph.core import (canonical_cycle, chi, dual_cycle,
                           estar_coordinates, intersection_form)
from resgraph.criteria import (criteria_reports, extension_criterion,
                               monomial_condition)
from resgraph.ellseq import elliptic_sequence, partial_sums
from resgraph.laufer import classify, fundamental_cycle
from resgraph.strata import AnalyticParams, strata_index_sets, w_strata

from conftest import random_tree


# -- 1. canonical cycle and elliptic sequence on the non-integral fixture ---

def test_criterion_1_canonical_and_sequence(g_new):
    zk = canonical_cycle(g_new)
    expected_zk = {"b1": Fraction(14, 3), "b2": Fraction(28, 3),
                   "b3": Fraction(42, 3), "b4": Fraction(35, 3),
                   "b5": Fraction(28, 3), "b6": Fraction(21, 3),
                   "b7": Fraction(14, 3), "b8": Fraction(7, 3),
                   "b9": Fraction(4, 3), "b10": Fraction(2, 3),
                   "u": Fraction(21, 3)}
    assert zk == g_new.cycle(expected_zk)
    seq = elliptic_sequence(g_new)
    expected_pre = {"b1": Fraction(2, 3), "b2": Fraction(4, 3),
                    "b3": Fraction(6, 3), "b4": Fraction(5, 3),
                    "b5": Fraction(4, 3), "b6": Fraction(3, 3),
                    "b7": Fraction(2, 3), "b8": Fraction(1, 3),
                    "b9": Fraction(1, 3), "b10": Fraction(2, 3),
                    "u": Fraction(3, 3)}
    assert seq.pre_term == g_new.cycle(expected_pre)
    assert seq.length == 2
    vertices = frozenset(g_new.vertices)
    assert seq.supports[0] == vertices - {"b10"}
    assert seq.supports[1] == vertices - {"b9", "b10"}


# -- 2. the worked example graph --------------------------------------------

def test_criterion_2_worked_example(g_app):
    assert classify(g_app).kind == "elliptic"
    zmin = fundamental_cycle(g_app)
    zk = canonical_cycle(g_app)
    assert estar_coordinates(zmin) == {"a9": Fraction(1)}
    assert estar_coordinates(zk) == {"a8": Fraction(1)}
    seq = elliptic_sequence(g_app)
    assert seq.m == 1
    c = seq.fundamental_cycles[-1]
    assert intersection_form(c, c) == -1
    assert 2 * zmin == zk + g_app.basis_cycle("a9")


# -- 3. strata solver, generic mode, l' = -Z_K ------------------------------

def test_criterion_3_strata_generic(g_app):
    seq = elliptic_sequence(g_app)
    lprime = -canonical_cycle(g_app)
    report = strata_index_sets(seq, lprime, AnalyticParams(alpha=0,
                                                           mode="generic"))
    assert report.pg == 2
    accepted = {k: [e for e in entries if e.excluded_by is None]
                for k, entries in report.levels.items()}
    assert not accepted.get(2) and not accepted.get(1)
    level0 = accepted[0]
    assert {(e.l, e.dim) for e in level0} == {
        (g_app.zero_cycle(), 2), (g_app.basis_cycle("a9"), 1)}


# -- 4. strata solver, custom trivializable set -----------------------------

def test_criterion_4_strata_custom(g_noecc):
    seq = elliptic_sequence(g_noecc)
    lprime = -dual_cycle(g_noecc, "c9")
    zmin = fundamental_cycle(g_noecc)
    params = AnalyticParams(alpha=0, mode="custom", trivializable=(zmin,))
    report = strata_index_sets(seq, lprime, params)
    assert report.pg == 2
    accepted = {k: [e for e in entries if e.excluded_by is None]
                for k, entries in report.levels.items()}
    assert {(e.l, e.dim) for e in accepted[1]} == {(g_noecc.zero_cycle(), 1)}
    z0 = g_noecc.cycle({"c1": 2, "c2": 4, "c3": 6, "c4": 5, "c5": 4,
                        "c6": 3, "c7": 2, "c8": 1, "u3": 3, "u8": 1})
    assert {(e.l, e.dim) for e in accepted[0]} == {(z0, 2)}
    excluded = [e for e in report.levels[0] if e.excluded_by is not None]
    assert [e.l for e in excluded] == [zmin]
    assert excluded[0].excluded_by == (1, g_noecc.zero_cycle())


# -- 5. criteria verdicts over the fixture corpus ---------------------------

def test_criterion_5_criteria_fixtures(g_app, g_noecc, g_left, g_right):
    expected = {id(g_app): True, id(g_noecc): False,
                id(g_left): True, id(g_right): False}
    for g in (g_app, g_noecc, g_left, g_right):
        ext = extension_criterion(g)
        mono = monomial_condition(g)
        assert ext.verdict is expected[id(g)]
        assert mono.verdict is expected[id(g)]
        # the two formulations must always agree on elliptic graphs
        wecc, ecc = (r.verdict for r in criteria_reports(g))
        assert wecc == ecc == expected[id(g)]
    assert "c8" in {r["node"] for r in monomial_condition(g_noecc).violations}


# -- 6. a graph beyond the elliptic range -----------------------------------

def test_criterion_6_classification_pole(g_pole):
    assert classify(g_pole).kind == "other"
    value = oracle.brute_min_chi(g_pole)
    assert value == -1


# -- 7. h1-level-set dimension tables ---------------------------------------

def test_criterion_7_wstrata(g_app):
    seq = elliptic_sequence(g_app)
    lprime = g_app.zero_cycle()
    out0 = w_strata(seq, lprime, 0).strata
    assert [(s.k, s.dim) for s in out0] == [(2, 0), (1, 1), (0, 2)]
    assert all(s.kind == "linear" for s in out0)
    out1 = w_strata(seq, lprime, 1).strata
    linear = [s for s in out1 if s.kind == "linear"]
    assert [(s.k, s.dim) for s in linear] == [(1, 0), (0, 1)]
    wandering = [s for s in out1 if s.kind == "wandering"]
    assert [(s.k, s.dim, s.count_max) for s in wandering] == [(1, 0, 1)]


# -- 8. consistency of the strata solver with the dimension tables ----------

@pytest.mark.parametrize("name", ["g_app", "g_new", "g_left"])
def test_criterion_8_strata_vs_partial_sums(name, request):
    """In wecc mode with alpha = 0 and Chern class l' = -C_{-1}, level
    p_g - j has a unique maximal entry for every 0 <= j <= m+1: its fixed
    component is C_{j-1} - C_{-1}, its Chern class l' - l is -C_{j-1}, and
    its dimension is j.

    The partial sums C_t all lie in the class [Z_K], so they pair with the
    Chern class -C_{-1} = -s_{[Z_K]}; on a numerically Gorenstein graph the
    pre-term C_{-1} vanishes and this is the statement at l' = 0. At l' = 0
    the claim fails whenever C_{-1} != 0: Pic^0 contains the trivial bundle,
    which has h^1 = p_g and no fixed component, so the maximal entry of
    level p_g there is l = 0 and never the fractional C_{-1}.
    """
    graph = request.getfixturevalue(name)
    seq = elliptic_sequence(graph)
    params = AnalyticParams(alpha=0, mode="wecc")
    zero = graph.zero_cycle()
    trivial = strata_index_sets(seq, zero, params)
    tops = [e for e in trivial.levels.get(trivial.pg, ())
            if e.excluded_by is None and e.maximal]
    assert [(e.l, e.dim) for e in tops] == [(zero, 0)]

    lprime = -seq.pre_term
    report = (trivial if lprime == zero
              else strata_index_sets(seq, lprime, params))
    for j in range(0, seq.m + 2):
        level = report.pg - j
        entries = [e for e in report.levels.get(level, ())
                   if e.excluded_by is None]
        tops = [e for e in entries if e.maximal]
        assert len(tops) == 1, (
            f"level {level} has no unique maximal element (j={j})")
        c_prev = partial_sums(seq, j - 1)[0]
        assert tops[0].l == c_prev - seq.pre_term
        assert tops[0].chern == -c_prev
        assert tops[0].dim == j


# -- 9. oracle equivalence over exhaustive and random corpora ---------------

def _check_all_ok(graph):
    report = oracle.verify(graph)
    bad = {k: v for k, v in report.items() if v != "ok"}
    assert not bad, bad
    if classify(graph).kind == "elliptic" and graph.is_minimal():
        seq = elliptic_sequence(graph)
        for t in range(-1, seq.m + 1):
            ct, cpt = partial_sums(seq, t)
            assert chi(ct) == 0 and chi(cpt) == 0
            for v in seq.support_at(t + 1):
                assert intersection_form(seq.cycle_at(t),
                                         graph.basis_cycle(v)) == 0


def test_criterion_9_exhaustive_small():
    count = 0
    for g in oracle.enumerate_trees(6, (-2, -3)):
        _check_all_ok(g)
        count += 1
    assert count == 263


def test_criterion_9_random():
    rng = random.Random(20260823)
    for _ in range(200):
        _check_all_ok(random_tree(rng, max_vertices=8))


# -- 10. the two end-curve formulations agree everywhere --------------------

def test_criterion_10_criteria_mass_check():
    """Also pins every monomial record (node, branch, and the witness's
    numerators over its denominator, or the note) by a SHA-256, in the
    corpus order, so that the first witness found stays the same; and
    every extension-criterion record (i, vertex, neighbours above) by a
    second one, so that the records and their order stay the same."""
    elliptic = 0
    digest = hashlib.sha256()
    ext_digest = hashlib.sha256()
    for g in oracle.enumerate_trees(7, range(-4, -1)):
        if classify(g).kind != "elliptic" or not g.is_minimal():
            continue
        elliptic += 1
        mono = monomial_condition(g)
        ext = extension_criterion(g)
        assert ext.verdict == mono.verdict, g.vertices
        for r in mono.witnesses + mono.violations:
            found = ((r["cycle"].num, r["cycle"].den) if "cycle" in r
                     else r["note"])
            digest.update(repr((r["node"], r["branch"], found)).encode())
        for r in ext.witnesses + ext.violations:
            ext_digest.update(repr(
                (r["i"], r["vertex"], r["neighbours_above"])).encode())
    assert elliptic == 1138
    assert digest.hexdigest() == (
        "3cdcb4e0e5a6d5b861b05c31872b42d0345bab8611ccde805490f9ed8b2eb94e")
    assert ext_digest.hexdigest() == (
        "a2112e47c12263b91c37032ed61bdb83d8915ad1d825230f7b6ae0a09978cfae")
