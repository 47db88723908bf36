"""Lattice core: graph validation, cycles, the form, chi, duals."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from resgraph.core import (Cycle, _antinef_cover, _ellipsoid_walk, _rooting,
                           _subtree_solve, _times_a, build_graph,
                           canonical_cycle, chi, dual_cycle,
                           estar_coordinates, estar_support,
                           intersection_form, is_antinef,
                           is_numerically_gorenstein)
from resgraph.errors import GraphValidationError, UserError
from resgraph.laufer import classify, fundamental_cycle
from resgraph.quadform import walk_rooting

from conftest import dense_ldl, full_subgraph, minus_a, random_trees


# -- dense reference, kept here and never in the package --------------------

def bareiss_elimination(matrix):
    """Leading principal minors of an integer matrix, by fraction-free
    (Bareiss) elimination; stops at a vanishing pivot, padding with zeros."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    minors = []
    prev_pivot = 1
    for k in range(n):
        pivot = m[k][k]
        minors.append(pivot)
        if pivot == 0:
            minors.extend([0] * (n - k - 1))
            break
        for i in range(k + 1, n):
            factor = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - factor * m[k][j]) // prev_pivot
        prev_pivot = pivot
    return minors


# -- validation -------------------------------------------------------------

_TWO = [("a", -2), ("b", -2)]
_THREE = _TWO + [("c", -2)]
# (spec, diagnostic, message); the later cases each hold two faults or
# more, and the first in validation order is the one reported
_REJECTIONS = [
    ({"vertices": [("a", -2), ("a", -3)], "edges": []}, "duplicate-vertex",
     "vertex 'a' repeated"),
    ({"vertices": [("a", 0)], "edges": []}, "bad-euler",
     "euler number of 'a' must be an integer <= -1, got 0"),
    ({"vertices": [("a", -2.0)], "edges": []}, "bad-euler",
     "euler number of 'a' must be an integer <= -1, got -2.0"),
    ({"vertices": [{"id": "a", "euler": -2, "genus": 1}], "edges": []},
     "genus-not-supported", "genus decorations are not modeled (links are "
     "assumed rational homology spheres)"),
    ({"vertices": [("a", -2)], "edges": [("a", "b")]}, "bad-edge",
     "edge ('a', 'b') references unknown vertex"),
    ({"vertices": _TWO, "edges": [("a", "a")]}, "bad-edge",
     "self-loop at 'a'"),
    ({"vertices": _THREE, "edges": [("a", "b"), ("b", "c"), ("a", "c")]},
     "not-a-tree", "3 vertices need 2 edges, got 3"),
    ({"vertices": _TWO, "edges": []}, "not-a-tree",
     "2 vertices need 1 edges, got 0"),
    ({"vertices": [("a", -1), ("b", -1)], "edges": [("a", "b")]},
     "not-negative-definite",
     "leaf elimination of -A gives a pivot <= 0 at vertex 'a'"),
    ({"vertices": _THREE + [("d", -2)],
      "edges": [("a", "b"), ("b", "c"), ("a", "c")]}, "not-connected",
     "graph is not connected"),
    ({"vertices": [], "edges": []}, "malformed-description", "no vertices"),
    ({"vertices": _TWO, "edges": [("a", "b"), ("b", "a")]}, "bad-edge",
     "duplicate edge ('b', 'a')"),
    ({"vertices": [{"euler": -2}], "edges": []}, "malformed-description",
     "a vertex id must be a string, got None"),
    ({"vertices": [(1, -2)], "edges": []}, "malformed-description",
     "a vertex id must be a string, got 1"),
    ({"vertices": [("a",)], "edges": []}, "malformed-description",
     "a vertex must be an (id, euler) pair or a record, got ('a',)"),
    ({"vertices": [5], "edges": []}, "malformed-description",
     "a vertex must be an (id, euler) pair or a record, got 5"),
    ({"vertices": [("a", -2)], "edges": [("a",)]}, "bad-edge",
     "an edge must be a pair of ids, got ('a',)"),
    ({"vertices": [("a", -2)], "edges": [("a", "a", "a")]}, "bad-edge",
     "an edge must be a pair of ids, got ('a', 'a', 'a')"),
    ({"vertices": _TWO, "edges": [("a", 1)]}, "bad-edge",
     "an edge must be a pair of ids, got ('a', 1)"),
    ({"vertices": _TWO, "edges": [("a", "b"), ("a", "b")]}, "bad-edge",
     "duplicate edge ('a', 'b')"),
    ({"vertices": [("a", -2)]}, "malformed-description",
     "expected vertices/edges keys ('edges')"),
    ({"vertices": {"a": -2}, "edges": []}, "malformed-description",
     "the vertices section must be a list, got {'a': -2}"),
    ({"vertices": b"a", "edges": []}, "malformed-description",
     "the vertices section must be a list, got b'a'"),
    ({"vertices": [("a", -2)], "edges": {}}, "malformed-description",
     "the edges section must be a list, got {}"),
    ({"vertices": [("a", -2)], "edges": ""}, "malformed-description",
     "the edges section must be a list, got ''"),
    ({"vertices": [("a", 0)], "edges": {}}, "malformed-description",
     "the edges section must be a list, got {}"),
    ({"vertices": [{"euler": -2, "genus": 1}], "edges": []},
     "genus-not-supported", "genus decorations are not modeled (links are "
     "assumed rational homology spheres)"),
    ({"vertices": [("a", -2), ("a", 0)], "edges": []}, "duplicate-vertex",
     "vertex 'a' repeated"),
    ({"vertices": [("a", 0)], "edges": [("a", "b")]}, "bad-euler",
     "euler number of 'a' must be an integer <= -1, got 0"),
    ({"vertices": _THREE, "edges": [("a", "b"), ("a", "b"), ("a", "d")]},
     "bad-edge", "duplicate edge ('a', 'b')"),
    ({"vertices": _THREE, "edges": [("a", "d"), ("b", "b")]}, "bad-edge",
     "edge ('a', 'd') references unknown vertex"),
    ({"vertices": _THREE + [("d", -2)],
      "edges": [("a", "b"), ("c", "d"), ("a", "a")]}, "bad-edge",
     "self-loop at 'a'"),
    ({"vertices": _THREE, "edges": [("a", "b")]}, "not-a-tree",
     "3 vertices need 2 edges, got 1"),
]


@pytest.mark.parametrize(
    "spec, diagnostic, message", _REJECTIONS,
    ids=[f"spec{i}-{case[1]}" for i, case in enumerate(_REJECTIONS)])
def test_build_graph_rejections(spec, diagnostic, message):
    with pytest.raises(GraphValidationError) as err:
        build_graph(spec)
    assert err.value.diagnostic == diagnostic
    assert str(err.value) == f"{diagnostic}: {message}"


def test_affine_d4_star_is_rejected():
    # four -2 legs on a -2 center: negative semi-definite, not definite
    spec = {"vertices": [("c", -2)] + [(f"l{i}", -2) for i in range(4)],
            "edges": [("c", f"l{i}") for i in range(4)]}
    with pytest.raises(GraphValidationError) as err:
        build_graph(spec)
    assert err.value.diagnostic == "not-negative-definite"
    # rooted at l0, the leaves l3, l2, l1 and then c keep positive pivots
    # and the root's pivot is 0, so the refusal names l0
    assert str(err.value).endswith("at vertex 'l0'")


def test_vertices_sorted_and_minors_positive(g_app):
    assert list(g_app.vertices) == sorted(g_app.vertices)
    minors = bareiss_elimination(minus_a(g_app))
    assert all(m > 0 for m in minors)
    assert g_app.det == minors[-1]


def test_bareiss_minors_match_naive_determinants(g_app, g_pole):
    def naive_det(m):
        n = len(m)
        if n == 0:
            return Fraction(1)
        if n == 1:
            return Fraction(m[0][0])
        total = Fraction(0)
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * naive_det(minor)
        return total

    for g in (g_app, g_pole):
        neg = minus_a(g)
        minors = bareiss_elimination(neg)
        # cofactor expansion is factorial; sizes up to 7 are plenty
        for k in range(1, min(7, len(neg)) + 1):
            top = [row[:k] for row in neg[:k]]
            assert naive_det(top) == minors[k - 1]


def test_direct_construction_refused(g_app):
    from resgraph.core import ResolutionGraph
    with pytest.raises(UserError):
        ResolutionGraph(g_app.vertices, g_app.euler, g_app.edges)


# -- cycles -----------------------------------------------------------------

def test_cycle_arithmetic(g_app):
    a = g_app.cycle({"a1": 1, "a2": Fraction(1, 2)})
    b = g_app.cycle({"a2": Fraction(1, 2), "u": 3})
    s = a + b
    assert s.coefficient("a2") == 1
    assert (s - b) == a
    assert (-a) + a == g_app.zero_cycle()
    assert (2 * a).coefficient("a1") == 2
    assert a * 2 == 2 * a
    assert not a.is_integral()
    assert s.support() == frozenset({"a1", "a2", "u"})
    assert a.floor() == g_app.cycle({"a1": 1})


def test_cycle_partial_order(g_app):
    a = g_app.cycle({"a1": 1})
    b = g_app.cycle({"a1": 2, "a2": 1})
    assert a <= b and b >= a and a < b
    c = g_app.cycle({"a2": 1})
    assert not a <= c and not c <= a  # incomparable


def test_cycle_unknown_vertex(g_app):
    with pytest.raises(UserError):
        g_app.cycle({"zzz": 1})
    with pytest.raises(UserError, match="unknown vertex: 'zzz'"):
        g_app.basis_cycle("zzz")
    with pytest.raises(UserError, match="unknown vertex: 'zzz'"):
        dual_cycle(g_app, "zzz")


def test_cycles_from_different_graphs_do_not_mix(g_app, g_new):
    """Also with one denominator on both sides, and between two graphs of
    one shape, which share every shape table."""
    sibling = g_app._with_euler((v, e - 1) for v, e in g_app.euler.items())
    for other in (g_new, sibling):
        half = other.from_vector([Fraction(1, 2)] * len(other.vertices))
        for a, b in ((g_app.zero_cycle(), other.zero_cycle()),
                     (g_app.cycle({"a1": Fraction(1, 2)}), half)):
            with pytest.raises(UserError):
                a + b
            with pytest.raises(UserError):
                a - b


_A4 = build_graph({"vertices": [(v, -2) for v in "abcd"],
                   "edges": [("a", "b"), ("b", "c"), ("c", "d")]})
_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=12)
_vectors = st.lists(_fractions, min_size=4, max_size=4)


def _assert_normal_form(c):
    assert c.den > 0 and math.gcd(c.den, *c.num) == 1
    assert c.coeffs == tuple(Fraction(x, c.den) for x in c.num)


@settings(max_examples=200, deadline=None)
@given(_vectors, _vectors, _fractions)
def test_cycle_matches_fraction_tuples(x, y, s):
    """Cycle arithmetic, order and views against plain Fraction tuples."""
    a, b = _A4.from_vector(x), _A4.from_vector(y)
    assert a.coeffs == tuple(x)
    assert [a.coefficient(v) for v in "abcd"] == x
    assert a.is_integral() == all(c.denominator == 1 for c in x)
    assert a.is_effective() == all(c >= 0 for c in x)
    assert a.is_zero() == (not any(x))
    results = [
        (a + b, [p + q for p, q in zip(x, y)]),
        (a - b, [p - q for p, q in zip(x, y)]),
        (-a, [-p for p in x]),
        (a * s, [p * s for p in x]),
        (s * b, [s * q for q in y]),
        (a.floor(), [Fraction(math.floor(p)) for p in x]),
        (_A4.cycle(dict(zip("abcd", y))), y),
    ]
    for cycle, expected in results:
        _assert_normal_form(cycle)
        assert cycle.coeffs == tuple(expected)
    assert (a <= b) == all(p <= q for p, q in zip(x, y))
    assert (a >= b) == all(p >= q for p, q in zip(x, y))
    assert (a < b) == (a <= b and x != y)
    assert (a == b) == (x == y)
    if x == y:
        assert hash(a) == hash(b)


_numerators = st.lists(st.integers(-30, 30), min_size=4, max_size=4)


@settings(max_examples=200, deadline=None)
@given(_numerators, _numerators, st.integers(1, 12), st.integers(1, 12))
@example([1, 2, 3, 0], [1, -2, 0, 5], 6, 4)
def test_cycle_sums_match_fraction_sums(x, y, den, other_den):
    """a + b and a - b against the Fraction coefficients, for a and b over
    one denominator (reduced, they mostly keep it) and over two."""
    a = Cycle(_A4, tuple(x), den)
    for b in (Cycle(_A4, tuple(y), den), Cycle(_A4, tuple(y), other_den)):
        for result, op in ((a + b, lambda p, q: p + q),
                           (a - b, lambda p, q: p - q)):
            _assert_normal_form(result)
            assert result.coeffs == tuple(map(op, a.coeffs, b.coeffs))


def test_cycle_normal_form():
    half = _A4.cycle({"a": Fraction(1, 2)})
    unreduced = Cycle(_A4, (2, 0, 0, 0), 4)
    assert unreduced == half and hash(unreduced) == hash(half)
    assert (unreduced.num, unreduced.den) == ((1, 0, 0, 0), 2)
    doubled = 2 * half
    assert doubled == _A4.basis_cycle("a") and doubled.den == 1
    assert (half - half).den == 1 and (half - half) == _A4.zero_cycle()
    assert (half * Fraction(-2, 3)).den == 3


# -- the form and chi -------------------------------------------------------

def test_intersection_form_matches_matrix(g_app):
    for v in g_app.vertices:
        for w in g_app.vertices:
            expected = -minus_a(g_app)[g_app._index[v]][g_app._index[w]]
            assert intersection_form(g_app.basis_cycle(v),
                                     g_app.basis_cycle(w)) == expected


def _check_chi_and_pairings(g, coeffs):
    """_times_a is -M z for the dense M = -A, which is built from the
    euler numbers and the edge set, not from the edge-pair table; and chi(l)
    is -(l, l - Z_K) / 2, for integral and for fractional l."""
    m = minus_a(g)
    n = len(g.vertices)
    z = [int(c) for c in coeffs[:n]]
    assert _times_a(g, z) == [-sum(a * b for a, b in zip(row, z))
                              for row in m]
    zk = canonical_cycle(g)
    for l in (g.from_vector(z), g.from_vector(coeffs[:n])):
        assert chi(l) == -intersection_form(l, l - zk) / 2


_coefficients = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    min_size=26, max_size=26)


@pytest.mark.parametrize("name", ["g_app", "g_new", "g_noecc", "g_pole",
                                  "g_left", "g_right"])
def test_pairings_and_chi_on_fixtures(name, request):
    g = request.getfixturevalue(name)
    _check_chi_and_pairings(g, [Fraction(i % 7 - 3, 1 + i % 4)
                                for i in range(26)])
    _check_chi_and_pairings(g, list(canonical_cycle(g).coeffs))


@settings(max_examples=80, deadline=None)
@given(random_trees(max_vertices=12), _coefficients, st.data())
def test_pairings_and_chi_on_random_trees(g, coeffs, data):
    """Also on a sibling with other euler numbers, which shares the
    edge-pair table."""
    assume(g is not None)
    _check_chi_and_pairings(g, coeffs)
    eulers = data.draw(st.lists(st.integers(-5, -1), min_size=len(g.vertices),
                                max_size=len(g.vertices)))
    try:
        sibling = g._with_euler(zip(g.vertices, eulers))
    except GraphValidationError:
        return
    assert sibling._edge_pairs is g._edge_pairs
    _check_chi_and_pairings(sibling, coeffs)


def test_chi_of_basis_cycles_is_one(g_app):
    for v in g_app.vertices:
        assert chi(g_app.basis_cycle(v)) == 1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=10, max_size=10),
       st.lists(st.integers(-4, 4), min_size=10, max_size=10))
def test_chi_quadratic_identity(coeffs_a, coeffs_b):
    g = build_graph({
        "vertices": [("a", -2), ("b", -3), ("c", -2), ("d", -2), ("e", -2),
                     ("f", -2), ("g", -2), ("h", -3), ("i", -2), ("j", -2)],
        "edges": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"),
                  ("f", "g"), ("g", "h"), ("h", "i"), ("c", "j")],
    })
    a = g.from_vector(coeffs_a)
    b = g.from_vector(coeffs_b)
    assert chi(a + b) == chi(a) + chi(b) - intersection_form(a, b)


# -- duals, canonical cycle, classes ---------------------------------------

def test_dual_cycle_pairings(g_app):
    for v in g_app.vertices:
        ev = dual_cycle(g_app, v)
        assert ev.is_effective() and is_antinef(ev)
        for w in g_app.vertices:
            expected = -1 if v == w else 0
            assert intersection_form(ev, g_app.basis_cycle(w)) == expected


def test_canonical_cycle_adjunction(g_app, g_new):
    for g in (g_app, g_new):
        zk = canonical_cycle(g)
        for v in g.vertices:
            assert intersection_form(zk, g.basis_cycle(v)) == g.euler[v] + 2


def test_numerically_gorenstein(g_app, g_new, g_noecc, g_left, g_right):
    assert is_numerically_gorenstein(g_app)
    assert not is_numerically_gorenstein(g_new)
    assert is_numerically_gorenstein(g_noecc)
    assert is_numerically_gorenstein(g_left)
    assert is_numerically_gorenstein(g_right)


def test_estar_coordinates_reconstruct(g_app):
    l = g_app.cycle({"a1": 2, "a5": -1, "u": Fraction(1, 3)})
    coords = estar_coordinates(l)
    rebuilt = g_app.zero_cycle()
    for v, c in coords.items():
        rebuilt = rebuilt + c * dual_cycle(g_app, v)
    assert rebuilt == l
    assert estar_support(l) == frozenset(v for v, c in coords.items() if c)


def test_same_class(g_app, g_new):
    """Two cycles lie in one class of L'/L iff their difference is
    integral."""
    l = g_app.cycle({"a1": Fraction(1, 2)})
    assert (l - (l + g_app.basis_cycle("a3"))).is_integral()
    assert not (canonical_cycle(g_new) - g_new.zero_cycle()).is_integral()


def test_is_antinef(g_app):
    assert is_antinef(g_app.zero_cycle())
    assert is_antinef(fundamental_cycle(g_app))
    assert not is_antinef(g_app.basis_cycle("a1"))


def _check_cover(l):
    """_antinef_cover(l) is integral and >= 0, and lifts l to a nonzero
    antinef cycle."""
    z = _antinef_cover(l)
    assert all(isinstance(c, int) and c >= 0 for c in z)
    y = l + l.graph.from_vector(z)
    assert is_antinef(y) and not y.is_zero()


@settings(max_examples=100, deadline=None)
@given(random_trees(max_vertices=10, min_euler=-4, max_euler=-1), st.data())
def test_antinef_cover_random_trees(graph, data):
    """Rational starts of either sign; -1 curves included."""
    assume(graph is not None)
    n = len(graph.vertices)
    den = data.draw(st.sampled_from([1, 2, 3, 7]))
    _check_cover(graph.from_vector(Fraction(c, den) for c in data.draw(
        st.lists(st.integers(-8, 8), min_size=n, max_size=n))))


def test_antinef_cover_one_vertex_and_zero(single_vertex, g_app):
    """A vertex with no neighbours still gets a nonzero cover: t >= 1."""
    minus_one = build_graph({"vertices": [("v", -1)], "edges": []})
    for graph in (single_vertex, minus_one, g_app):
        _check_cover(graph.zero_cycle())
    assert _antinef_cover(single_vertex.zero_cycle()) == [1]
    assert _antinef_cover(minus_one.zero_cycle()) == [1]
    assert _antinef_cover(single_vertex.cycle({"v": Fraction(-5, 2)})) == [3]


@settings(max_examples=60, deadline=None)
@given(random_trees(max_vertices=12))
def test_subtree_solve_gives_the_branch_duals(g):
    """Rooted at any vertex, the solve on the subtree below a child c gives
    D E*_w(branch) for D = det(branch) = sub[c]: the duals of the full
    subgraph on the branch, scaled by its determinant."""
    assume(g is not None)
    n = len(g.vertices)
    for root in range(n):
        _, parent, sub, kids, _ = _rooting(g._neighbours, g._pivots, root)
        for c in g._neighbours[root]:
            members = [c]
            for i in members:
                members.extend(j for j in g._neighbours[i] if parent[j] == i)
            branch = full_subgraph(g, (g.vertices[i] for i in members))
            assert sub[c] == branch.det
            for w in members:
                solved = _subtree_solve(members, parent, sub, kids,
                                        [int(i == w) for i in range(n)])
                dual = dual_cycle(branch, g.vertices[w])
                assert [solved[g._index[u]] for u in branch.vertices] == [
                    x * sub[c] for x in dual.coeffs]
                assert not any(solved[i] for i in range(n)
                               if i not in members)


@settings(max_examples=80, deadline=None)
@given(random_trees(max_vertices=10), st.data())
def test_with_euler_reuses_the_rooting(g, data):
    """Other euler numbers on a tree keep its order and parents, which
    cannot be written to; the graph equals build_graph's of its own spec
    table by table, or both refuse it naming the same vertex."""
    assume(g is not None)
    eulers = data.draw(st.lists(st.integers(-4, -1), min_size=len(g.vertices),
                                max_size=len(g.vertices)))
    spec = {"vertices": list(zip(g.vertices, eulers)),
            "edges": [tuple(sorted(e)) for e in g.edges]}
    try:
        ref = build_graph(spec)
    except GraphValidationError as exc:
        with pytest.raises(GraphValidationError) as refused:
            g._with_euler(spec["vertices"])
        assert (refused.value.diagnostic, str(refused.value)) \
            == (exc.diagnostic, str(exc))
        return
    other = g._with_euler(spec["vertices"])
    assert other._order is g._order and other._parent is g._parent
    for name in ("euler", "_pivots", "_order", "_parent", "_subdet",
                 "_childdet", "det"):
        assert getattr(other, name) == getattr(ref, name), name
    with pytest.raises(TypeError):
        other._order[0] = other._order[-1]
    with pytest.raises(TypeError):
        other._parent[0] = -1


@pytest.mark.parametrize("name,bound", [
    ("g_app", 1), ("g_new", 1), ("g_noecc", 1), ("g_pole", 1),
    ("g_left", 0), ("g_right", 0)])
def test_ellipsoid_walk_does_not_depend_on_the_rooting(name, bound, request):
    """Uncut, the walker yields one set of (point, slack) from the graph's
    own rooting, from the strata walk's widest leaf and, where those two
    share their root, from the own order's last vertex: the points of
    {chi <= bound}, each slack read in its rooting's own scale."""
    g = request.getfixturevalue(name)
    own = (g._order, g._parent, g._subdet, g._childdet, g.det)
    rootings = [own, walk_rooting(g)]
    if rootings[1][0][0] == g._order[0]:
        rootings[1] = _rooting(g._neighbours, g._pivots, g._order[-1])
    walks = []
    for rooting in rootings:
        unit, points = _ellipsoid_walk(rooting, g.zero_cycle(), bound,
                                       lambda i, xs: (0, None, (0, 0, 0, 0)))
        walks.append({(x, Fraction(left, unit)) for x, left in points})
    assert walks[0] and walks[0] == walks[1]


def test_graph_helpers(g_app):
    assert g_app.is_minimal()
    assert g_app.degree("a3") == 3
    assert set(g_app.nodes()) == {"a3"}
    assert set(g_app.end_vertices()) == {"a1", "a9", "u"}


# -- the tree kernel against an independent dense computation ---------------
#
# The oracle shares core with the fast path, so the kernel is pinned here
# against data rebuilt from the edge list: Bareiss minors and a dense LDL
# of -A, and the products A*x. The rooted order and the subtree
# determinants are checked as the orthogonalization of -A that the
# ellipsoid walker and the oracle's chi walk use.

def _lattice(spec):
    """Sorted vertex ids, euler numbers and neighbour lists of a spec."""
    euler = dict(spec["vertices"])
    neighbours = {v: [] for v in euler}
    for u, w in spec["edges"]:
        neighbours[u].append(w)
        neighbours[w].append(u)
    return sorted(euler), euler, neighbours


def _a_times_x(spec, cycle):
    """A * x from the edge list, as a dict over the vertices."""
    _, euler, neighbours = _lattice(spec)
    x = dict(cycle.items())
    return {v: e * x[v] + sum(x[w] for w in neighbours[v])
            for v, e in euler.items()}


def _check_block_order(names, neighbours, order, parent):
    """`order` lists every vertex once, every parent (a neighbour) before
    its children, and the children of each vertex next to each other."""
    assert sorted(order) == list(range(len(names)))
    assert parent[order[0]] == -1
    rank = {i: r for r, i in enumerate(order)}
    for i in order[1:]:
        assert names[parent[i]] in neighbours[names[i]]
        assert rank[parent[i]] < rank[i]
    for i in order:
        ranks = sorted(rank[c] for c in order if parent[c] == i)
        assert not ranks or ranks == list(range(ranks[0],
                                                ranks[0] + len(ranks)))


def _check_rooted_order(g, names, neighbours):
    """The graph's rooting starts at the first vertex of least degree; the
    walk's rooting at the widest leaf, a leaf v with the largest
    (M^-1)_vv = det(T - v) / det, the coefficient of E*_v at v, the least
    index on ties. Both are block orders."""
    _check_block_order(names, neighbours, g._order, g._parent)
    assert names[g._order[0]] == min(names,
                                     key=lambda v: (len(neighbours[v]), v))
    walk_order, walk_parent = walk_rooting(g)[:2]
    _check_block_order(names, neighbours, walk_order, walk_parent)
    leaves = [v for v in names if len(neighbours[v]) <= 1]
    assert names[walk_order[0]] == min(
        leaves, key=lambda v: (-dual_cycle(g, v).coefficient(v), v))


def _check_kernel(spec, coeffs):
    names, euler, neighbours = _lattice(spec)
    neg = [[-euler[v] if v == w else -(w in neighbours[v]) for w in names]
           for v in names]
    minors = bareiss_elimination(neg)
    definite = all(m > 0 for m in minors)
    try:
        g = build_graph(spec)
    except GraphValidationError as exc:
        assert exc.diagnostic == "not-negative-definite" and not definite
        return
    assert definite
    _check_rooted_order(g, names, neighbours)
    # for both rootings: D_v is det(-A) on the subtree below v, P_v the
    # product of the D_c, and the orthogonalization the ellipsoid walker
    # relies on, x^T (-A) x = sum_v (D_v x_v - P_v x_parent(v))^2 / (D_v P_v)
    x = coeffs[:len(names)]
    for order, parent, sub, kids, det in (
            (g._order, g._parent, g._subdet, g._childdet, g.det),
            walk_rooting(g)):
        assert det == g.det
        below = [{i} for i in range(len(names))]
        for i in reversed(order[1:]):
            below[parent[i]] |= below[i]
        for i in range(len(names)):
            rows = sorted(below[i])
            assert sub[i] == bareiss_elimination(
                [[neg[r][c] for c in rows] for r in rows])[-1]
            assert kids[i] == math.prod(sub[c] for c in range(len(names))
                                        if parent[c] == i)
        assert sum(x[i] * neg[i][j] * x[j] for i in range(len(x))
                   for j in range(len(x))) == sum(
            (sub[i] * x[i] - (kids[i] * x[parent[i]] if parent[i] >= 0
                              else 0)) ** 2 / (sub[i] * kids[i])
            for i in range(len(x)))
    assert g.det == minors[-1] == math.prod(dense_ldl(neg)[0])
    zk = canonical_cycle(g)
    assert _a_times_x(spec, zk) == {v: e + 2 for v, e in euler.items()}
    for v in names:
        assert _a_times_x(spec, dual_cycle(g, v)) == {
            w: -1 if w == v else 0 for w in names}
    l = g.from_vector(coeffs[:len(names)])
    al = _a_times_x(spec, l)
    assert intersection_form(l, zk) == sum(al[v] * zk.coefficient(v)
                                           for v in names)
    assert chi(l) == -sum(al[v] * (l - zk).coefficient(v) for v in names) / 2


@st.composite
def tree_specs(draw, max_vertices=30):
    """Random trees, Euler numbers -1..-6, labels in random order; many
    draws are not negative definite."""
    n = draw(st.integers(1, max_vertices))
    labels = draw(st.permutations([f"v{i:02d}" for i in range(n)]))
    eulers = draw(st.lists(st.integers(-6, -1), min_size=n, max_size=n))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    return {"vertices": list(zip(labels, eulers)),
            "edges": [(labels[i], labels[p])
                      for i, p in enumerate(parents, start=1)]}


cycle_coefficients = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    min_size=30, max_size=30)


@pytest.mark.parametrize("name", ["g_app", "g_new", "g_noecc", "g_pole",
                                  "g_left", "g_right"])
def test_kernel_cross_check_fixtures(name, request):
    g = request.getfixturevalue(name)
    spec = {"vertices": list(g.euler.items()),
            "edges": [tuple(e) for e in g.edges]}
    _check_kernel(spec, [Fraction(i % 5, 3) - 1 for i in range(30)])


@settings(max_examples=60, deadline=None)
@given(tree_specs(), cycle_coefficients)
def test_kernel_cross_check_random_trees(spec, coeffs):
    _check_kernel(spec, coeffs)


def _reference_rooting(names, neighbours, root):
    """The block order and parents of the tree rooted at `root`, from the
    edge list: parents by a breadth-first search, the order by listing the
    children of each vertex, in id order, as a depth-first preorder with
    children in id order reaches it."""
    parent = {root: None}
    queue = [root]
    for v in queue:
        for w in neighbours[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    children = {v: sorted(w for w in neighbours[v] if parent.get(w) == v)
                for v in names}
    order, stack = [root], [root]
    while stack:  # each vertex's block as the preorder reaches the vertex
        v = stack.pop()
        order.extend(children[v])
        stack.extend(reversed(children[v]))
    return order, parent


def _check_tables(spec):
    """Every shape table of build_graph(spec), and each view read off it,
    against the same rebuilt from the spec's edge list."""
    names, _, neighbours = _lattice(spec)
    g = build_graph(spec)
    index = {v: i for i, v in enumerate(names)}
    assert g.vertices == tuple(names) and g._index == index
    assert g._neighbours == tuple(tuple(sorted(index[w] for w in neighbours[v]))
                                  for v in names)
    assert g.adjacency == {v: tuple(sorted(neighbours[v])) for v in names}
    assert "adjacency" not in vars(g)  # derived, not stored
    assert [g.degree(v) for v in names] == [len(neighbours[v]) for v in names]
    assert g.nodes() == tuple(v for v in names if len(neighbours[v]) >= 3)
    assert g.end_vertices() == tuple(v for v in names
                                     if len(neighbours[v]) == 1)
    root = min(names, key=lambda v: (len(neighbours[v]), v))
    order, parent = _reference_rooting(names, neighbours, root)
    assert g._order == tuple(index[v] for v in order)
    assert g._parent == tuple(-1 if parent[v] is None else index[parent[v]]
                              for v in names)
    assert g._edge_pairs == tuple((index[v], index[parent[v]])
                                  for v in order[1:])
    assert {frozenset(names[i] for i in pair) for pair in g._edge_pairs} == {
        frozenset(e) for e in spec["edges"]}


@st.composite
def shuffled_tree_specs(draw, max_vertices=30):
    """Random trees whose edges come in random order and orientation, with
    e_v = -(deg v + 1), so every one is negative definite."""
    n = draw(st.integers(1, max_vertices))
    labels = draw(st.permutations([f"v{i:02d}" for i in range(n)]))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    degree = [0] * n
    edges = []
    for i, p in enumerate(parents, start=1):
        degree[i] += 1
        degree[p] += 1
        edges.append((labels[i], labels[p]) if draw(st.booleans())
                     else (labels[p], labels[i]))
    return {"vertices": [(v, -(d + 1)) for v, d in zip(labels, degree)],
            "edges": draw(st.permutations(edges))}


@settings(max_examples=100, deadline=None)
@given(shuffled_tree_specs())
def test_tables_agree_with_the_edge_list(spec):
    _check_tables(spec)


def _recursive_tree_spec(seed, n):
    """A random recursive tree on n vertices, each vertex's parent drawn
    uniformly from the earlier ones, with e_v = -(deg v + 1) - U{0,1}."""
    rng = random.Random(seed)
    parent = [rng.randrange(i) for i in range(1, n)]
    degree = [0] * n
    for child, p in enumerate(parent, start=1):
        degree[child] += 1
        degree[p] += 1
    names = [f"t{i:03d}" for i in range(n)]
    return {"vertices": [(names[i], -(degree[i] + 1) - rng.randint(0, 1))
                         for i in range(n)],
            "edges": [(names[c], names[p])
                      for c, p in enumerate(parent, start=1)]}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tables_agree_on_random_recursive_trees(seed):
    _check_tables(_recursive_tree_spec(seed, 200))


def test_tables_agree_on_a_long_chain():
    names = [f"c{i:04d}" for i in range(2000)]
    _check_tables({"vertices": [(v, -2) for v in names],
                   "edges": list(zip(names, names[1:]))})


def test_long_chain_closed_forms():
    """A_n with n = 2000: det = n+1, Z_K = 0, Z_min = sum E_v (rational),
    E*_end has coefficient (n+1-i)/(n+1) at the i-th vertex from that end.
    The tree kernel does this in milliseconds; a dense solve does not."""
    n = 2000
    names = [f"c{i:04d}" for i in range(1, n + 1)]
    g = build_graph({"vertices": [(v, -2) for v in names],
                     "edges": list(zip(names, names[1:]))})
    assert g.det == n + 1
    assert canonical_cycle(g).is_zero()
    cls = classify(g)
    assert cls.kind == "rational" and cls.zmin == g.from_vector([1] * n)
    first = dual_cycle(g, names[0])
    last = dual_cycle(g, names[-1])
    for i in range(1, n + 1):
        assert first.coefficient(names[i - 1]) == Fraction(n + 1 - i, n + 1)
        assert last.coefficient(names[-i]) == Fraction(n + 1 - i, n + 1)
