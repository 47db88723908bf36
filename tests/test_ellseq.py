"""Elliptic sequences and the derived enumerations."""

from __future__ import annotations

import dataclasses

import pytest

import resgraph.ellseq as ellseq_module
import resgraph.laufer as laufer_module
from resgraph.core import (build_graph, canonical_cycle, chi,
                           intersection_form, is_antinef)
from resgraph.ellseq import (antinef_in_class_below_ZK, elliptic_sequence,
                             numerically_gorenstein_subsupports, partial_sums,
                             pg_table)
from resgraph.errors import InvariantViolation, UserError
from resgraph.laufer import classify, fundamental_cycle
from resgraph.oracle import enumerate_trees

from conftest import full_subgraph


def test_sequence_app(g_app):
    seq = elliptic_sequence(g_app)
    assert seq.m == 1 and seq.length == 2
    assert seq.pre_term.is_zero()
    assert seq.supports[0] == frozenset(g_app.vertices)
    assert seq.supports[1] == frozenset(g_app.vertices) - {"a9"}
    assert seq.fundamental_cycles[0] == fundamental_cycle(g_app)
    seq.validate()


def test_sequence_new(g_new):
    seq = elliptic_sequence(g_new)
    assert seq.length == 2
    assert not seq.pre_term.is_zero()
    assert not seq.pre_term.is_integral()
    assert chi(seq.pre_term) == 0
    total = seq.pre_term
    for z in seq.fundamental_cycles:
        total = total + z
    assert total == canonical_cycle(g_new)


def test_support_and_cycle_conventions(g_app):
    seq = elliptic_sequence(g_app)
    assert seq.support_at(-1) == frozenset(g_app.vertices)
    assert seq.support_at(seq.m + 1) == frozenset()
    assert seq.cycle_at(-1) == seq.pre_term
    assert seq.cycle_at(seq.m) == seq.fundamental_cycles[-1]


def test_minimally_elliptic_cycle(g_app):
    c = elliptic_sequence(g_app).fundamental_cycles[-1]
    assert chi(c) == 0 and not c.is_zero()
    assert intersection_form(c, c) == -1


def test_partial_sums(g_app):
    seq = elliptic_sequence(g_app)
    zk = canonical_cycle(g_app)
    for t in range(-1, seq.m + 1):
        ct, cpt = partial_sums(seq, t)
        assert chi(ct) == 0 and chi(cpt) == 0
        assert ct + cpt == zk + seq.cycle_at(t)
    assert partial_sums(seq, -1)[0] == seq.pre_term
    assert partial_sums(seq, seq.m)[0] == zk
    with pytest.raises(UserError):
        partial_sums(seq, seq.m + 1)


def test_antinef_below_canonical_app(g_app):
    found = antinef_in_class_below_ZK(g_app)
    assert found == sorted(
        [g_app.zero_cycle(), fundamental_cycle(g_app), canonical_cycle(g_app)],
        key=lambda c: c.coeffs)


def test_subsupports_match_sequence(g_app, g_new):
    for g in (g_app, g_new):
        seq = elliptic_sequence(g)
        assert set(numerically_gorenstein_subsupports(g)) == set(seq.supports)


def test_sequence_sets_on_large_fixtures(g_left, g_right):
    """On the two largest fixtures, both sets are the sequence's {C_t} and
    {B_j}, and each member has its defining property: C_t is antinef, in
    [Z_K] and between 0 and Z_K; the full subgraph on B_j has an integral
    canonical cycle with support B_j."""
    for g in (g_left, g_right):
        seq = elliptic_sequence(g)
        zk = canonical_cycle(g)
        found = antinef_in_class_below_ZK(g)
        assert found == [partial_sums(seq, t)[0]
                         for t in range(-1, seq.m + 1)]
        for c in found:
            assert is_antinef(c) and (c - zk).is_integral()
            assert g.zero_cycle() <= c <= zk
        supports = numerically_gorenstein_subsupports(g)
        assert supports == list(seq.supports)
        for b in supports:
            sub_zk = canonical_cycle(full_subgraph(g, b))
            assert sub_zk.is_integral() and sub_zk.support() == b


def test_pg_table(g_app):
    seq = elliptic_sequence(g_app)
    rows = pg_table(seq, alpha=0)
    assert [r["pg_Xj"] for r in rows] == [2, 1, 0]
    assert rows[0]["h1_O_Cprime_j"] == 2 and rows[0]["h1_O_C_j"] == 1
    rows1 = pg_table(seq, alpha=1)
    assert [r["pg_Xj"] for r in rows1] == [1, 1, 0]
    assert "h1_O_C_j" not in rows1[0]
    with pytest.raises(UserError):
        pg_table(seq, alpha=2)


def test_pg_of_contractions(g_left):
    """p_g of the j-th contraction is m + 1 - max(j, alpha); pg_table reads
    its rows off it, and both refuse alpha outside [0, m]."""
    seq = elliptic_sequence(g_left)
    assert seq.m == 3
    for alpha in range(seq.m + 1):
        values = [seq.pg(alpha, j) for j in range(seq.m + 2)]
        assert values == [4 - max(j, alpha) for j in range(5)]
        assert [r["pg_Xj"] for r in pg_table(seq, alpha)] == values
    assert seq.pg(2) == 2
    for alpha in (-1, 4):
        with pytest.raises(UserError, match=r"alpha must lie in \[0, 3\]"):
            seq.pg(alpha)


def test_depths_match_supports(request):
    """depths[v] = max{j : v in B_j}, -1 outside B_0, in vertex order, on
    the fixtures and on the elliptic trees of the 263-tree corpus."""
    graphs = [request.getfixturevalue(name) for name in
              ("g_app", "g_new", "g_noecc", "g_left", "g_right")]
    graphs += [g for g in enumerate_trees(6, (-2, -3))
               if classify(g).kind == "elliptic" and g.is_minimal()]
    assert len(graphs) == 5 + 28
    for g in graphs:
        seq = elliptic_sequence(g)
        assert list(seq.depths) == list(g.vertices)
        for v, d in seq.depths.items():
            assert d == max((j for j, b in enumerate(seq.supports) if v in b),
                            default=-1)
    assert elliptic_sequence(graphs[0]).depths["a9"] == 0


@pytest.mark.parametrize("name, lifts", [
    ("g_app", 2), ("g_new", 3), ("g_noecc", 2)])
def test_sequence_reads_the_classification(name, lifts, monkeypatch,
                                           request):
    """After classify, elliptic_sequence lifts no Z_min again and takes
    Z_{B_0} = Z_min when B_0 is the whole vertex set (on g_app and
    g_noecc, not on g_new): `lifts` antinef_lift calls, one for the
    pre-term and one per other support, where each of the three made 4
    when it classified the graph again and lifted every support."""
    graph = request.getfixturevalue(name)
    fresh = full_subgraph(graph, graph.vertices)
    calls = []
    lift = laufer_module.antinef_lift

    def counted(*args, **kwargs):
        calls.append(args)
        return lift(*args, **kwargs)

    for module in (laufer_module, ellseq_module):
        monkeypatch.setattr(module, "antinef_lift", counted)
    zmin = classify(fresh).zmin
    assert len(calls) == 1
    seq = elliptic_sequence(fresh)
    assert len(calls) == 1 + lifts
    assert (seq.fundamental_cycles[0] is zmin) == (
        seq.supports[0] == frozenset(fresh.vertices))
    assert ([z.num for z in seq.fundamental_cycles]
            == [z.num for z in elliptic_sequence(graph).fundamental_cycles])


def test_sequence_requires_elliptic(g_pole, single_vertex):
    with pytest.raises(UserError):
        elliptic_sequence(g_pole)
    with pytest.raises(UserError):
        elliptic_sequence(single_vertex)


def _with_chain(graph, at, length):
    """`graph` with a chain of `length` (-2)-vertices attached at `at`."""
    chain = [f"c{i:03d}" for i in range(length)]
    return build_graph({
        "vertices": [(v, graph.euler[v]) for v in graph.vertices]
        + [(c, -2) for c in chain],
        "edges": [sorted(e) for e in graph.edges]
        + list(zip([at] + chain, chain))})


def test_long_sequence_sums(g_app):
    """g_app with a 200-vertex (-2)-chain at a9 has m = 201. The partial
    sums and the antinef cycles below Z_K agree with sums taken here."""
    graph = _with_chain(g_app, "a9", 200)
    seq = elliptic_sequence(graph)
    assert seq.m == 201
    seq.validate()
    terms = [seq.pre_term, *seq.fundamental_cycles]  # index t + 1

    def total(cycles):
        out = graph.zero_cycle()
        for c in cycles:
            out = out + c
        return out

    for t in (-1, 0, 100, seq.m):
        ct, cpt = partial_sums(seq, t)
        assert ct == total(terms[:t + 2])
        assert cpt == total(terms[t + 1:])
    running = [terms[0]]
    for c in terms[1:]:
        running.append(running[-1] + c)
    assert antinef_in_class_below_ZK(graph) == running


def _orthogonality_broken(seq):
    """(B_0, B_1, B_3) carrying (Z_0 + Z_2, Z_1, Z_3): the sum, the supports
    and every chi are as required, but Z_2 does not vanish on B_1."""
    z = seq.fundamental_cycles
    b = seq.supports
    return dataclasses.replace(seq, supports=(b[0], b[1], b[3]),
                               fundamental_cycles=(z[0] + z[2], z[1], z[3]))


@pytest.mark.parametrize("name, alter, message", [
    ("g_app", lambda seq: dataclasses.replace(
        seq, supports=seq.supports[:1],
        fundamental_cycles=seq.fundamental_cycles[:1]),
     "does not sum to Z_K"),
    ("g_app", lambda seq: dataclasses.replace(
        seq, supports=seq.supports[::-1],
        fundamental_cycles=seq.fundamental_cycles[::-1]),
     r"B_1 is not strictly inside B_0"),
    ("g_app", lambda seq: dataclasses.replace(
        seq, supports=(seq.supports[0], seq.supports[1] - {"a1"})),
     r"Z_B_1 support differs from B_1"),
    ("g_left", _orthogonality_broken,
     r"orthogonality fails: \(E_\w+, Z_B_0\)"),
], ids=["sum", "shrink", "support", "orthogonality"])
def test_validate_refuses_altered_sequences(request, name, alter, message):
    seq = alter(elliptic_sequence(request.getfixturevalue(name)))
    with pytest.raises(InvariantViolation, match=message):
        seq.validate()
