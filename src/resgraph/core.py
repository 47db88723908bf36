"""Lattice core: graphs, cycles, the intersection form, chi, ellipsoid walks.

A resolution graph is a connected weighted tree with negative-definite
intersection matrix A (A_vv = e_v, A_uv = 1 on edges). Cycles are exact
rational vectors in the vertex basis, held as integer numerators over one
denominator; Fractions appear only where values leave this module, and no
floating point is used anywhere. The one algorithm on A is the integer
leaf elimination up the rooted tree; no dense matrix is ever built.
The shape is stored once, as the integer neighbour table; the vertex-name
views (`adjacency`, degrees, nodes, end vertices) are read off it. Graphs
of one shape share its tables (`ResolutionGraph._with_euler`): the
vertices, edges, index and neighbour table, the rooting's block order and
parents, and the (child, parent) pair of each edge, over which every
pairing (z, E_v) = (A z)_v is summed.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from operator import add, mul, sub
from typing import Callable, Iterable, Iterator, Sequence

from .errors import GraphValidationError, UserError, quote

__all__ = [
    "ResolutionGraph",
    "Cycle",
    "build_graph",
    "intersection_form",
    "chi",
    "dual_cycle",
    "canonical_cycle",
    "estar_coordinates",
    "estar_support",
    "is_antinef",
    "is_numerically_gorenstein",
]


class ResolutionGraph:
    """Immutable weighted tree with a negative-definite intersection form.

    Construct through :func:`build_graph`, which validates the description;
    `_with_euler` gives the same tree other euler numbers.
    Vertex identifiers are opaque strings ordered lexicographically; that
    order fixes the matrix layout and all report orderings. Vertex i is
    `vertices[i]`, and the one stored form of the shape is `_neighbours`,
    each vertex's neighbour indices in id order, built in one pass over the
    edges; `adjacency` and the degree queries are read off it.
    """

    def __init__(self, vertices: tuple[str, ...], euler: dict[str, int],
                 edges: frozenset[frozenset[str]], _token=None):
        if _token is not _BUILD_TOKEN:
            raise UserError("use build_graph() to construct a ResolutionGraph")
        self.vertices = vertices
        self.edges = edges
        self._index = index = {v: i for i, v in enumerate(vertices)}
        neighbours: list[list[int]] = [[] for _ in vertices]
        for u, v in edges:
            i, j = index[u], index[v]
            neighbours[i].append(j)
            neighbours[j].append(i)
        # vertices are sorted, so index order is id order
        self._neighbours = tuple(map(tuple, map(sorted, neighbours)))
        # root the tree at its first vertex of least degree (a shorter
        # order means disconnected)
        degrees = list(map(len, self._neighbours))
        self._order, self._parent = _block_order(
            self._neighbours, degrees.index(min(degrees)))
        self._edge_pairs = tuple((c, self._parent[c]) for c in self._order[1:])
        self._set_euler(euler)

    def _set_euler(self, euler: dict[str, int]) -> None:
        """The tables that depend on the euler numbers (`euler`, which the
        graph keeps): the pivots, the elimination over the rooting and
        empty memos (E*_v, Z_K and the classification)."""
        self.euler = euler
        self._pivots = [-euler[v] for v in self.vertices]  # the diagonal of -A
        self._subdet, self._childdet, self.det = _eliminate(
            self._order, self._parent, self._pivots)
        self._dual_cache: dict[str, Cycle] = {}
        self._canonical: Cycle | None = None
        self._classification = None  # `laufer.classify` fills it

    def _with_euler(self, euler: Iterable[tuple[str, int]]
                    ) -> "ResolutionGraph":
        """This tree with other euler numbers, given as (vertex, number)
        pairs; the caller vouches that each is an integer <= -1.

        The new graph shares the tables that depend only on the shape
        (which are immutable): the vertices, edges, index, neighbour table
        and the rooting's order, parents and edge pairs. It runs only its
        own elimination and is refused like any graph of `build_graph`
        unless negative definite."""
        graph = object.__new__(ResolutionGraph)
        (graph.vertices, graph.edges, graph._index, graph._neighbours,
         graph._order, graph._parent, graph._edge_pairs) = (
            self.vertices, self.edges, self._index, self._neighbours,
            self._order, self._parent, self._edge_pairs)
        graph._set_euler(dict(euler))
        _check_definite(graph)
        return graph

    def _tree_solve(self, rhs: list[int]) -> list[int]:
        """det * x for -A x = rhs (integer rhs), on the whole tree."""
        return _subtree_solve(self._order, self._parent, self._subdet,
                              self._childdet, rhs)

    # -- cycle constructors -------------------------------------------------

    def cycle(self, coefficients: Mapping[str, object] | Iterable[tuple[str, object]]) -> "Cycle":
        items = dict(coefficients)
        for v in items:
            if v not in self._index:
                raise UserError(f"unknown vertex in cycle: {quote(v)}")
        return self.from_vector(items.get(v, 0) for v in self.vertices)

    def zero_cycle(self) -> "Cycle":
        return Cycle(self, (0,) * len(self.vertices))

    def basis_cycle(self, v: str) -> "Cycle":
        """E_v."""
        if v not in self._index:
            raise UserError(f"unknown vertex: {quote(v)}")
        return Cycle(self, tuple(int(w == v) for w in self.vertices))

    def from_vector(self, coeffs: Iterable) -> "Cycle":
        """The cycle with these rational coefficients, in vertex order."""
        fracs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in fracs))
        return Cycle(self, tuple(c.numerator * (den // c.denominator)
                                 for c in fracs), den)

    # -- derived structure --------------------------------------------------

    def is_minimal(self) -> bool:
        return all(e <= -2 for e in self.euler.values())

    @property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        """Each vertex's neighbours in id order, by name: a new dict read
        off the neighbour table on every access."""
        names = self.vertices
        return {v: tuple(names[j] for j in ws)
                for v, ws in zip(names, self._neighbours)}

    def degree(self, v: str) -> int:
        return len(self._neighbours[self._index[v]])

    def end_vertices(self) -> tuple[str, ...]:
        return tuple(v for v, ws in zip(self.vertices, self._neighbours)
                     if len(ws) == 1)

    def nodes(self) -> tuple[str, ...]:
        """Vertices of degree at least 3."""
        return tuple(v for v, ws in zip(self.vertices, self._neighbours)
                     if len(ws) >= 3)

    def __repr__(self):
        return f"ResolutionGraph({len(self.vertices)} vertices, det={self.det})"


def _rooting(neighbours: Sequence[Sequence[int]], pivots: list[int], root: int
             ) -> tuple:
    """Root the tree at `root`: `_block_order`, then `_eliminate`."""
    order, parent = _block_order(neighbours, root)
    return (order, parent, *_eliminate(order, parent, pivots))


def _block_order(neighbours: Sequence[Sequence[int]], root: int
                 ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The block order of the tree rooted at `root`, and the parents (-1 at
    the root and off the root's component).

    In the block order every parent comes before its children and the
    children of each vertex are listed together, in id order, the blocks
    following their parents' depth-first preorder. Both depend only on the
    shape, and both are tuples, so graphs of one shape can share them."""
    parent = [-1] * len(neighbours)
    preorder, stack = [], [root]
    while stack:
        i = stack.pop()
        preorder.append(i)
        for j in reversed(neighbours[i]):
            if j != root and parent[j] < 0:
                parent[j] = i
                stack.append(j)
    order = (root, *(j for i in preorder for j in neighbours[i]
                     if parent[j] == i))
    return order, tuple(parent)


def _eliminate(order: Sequence[int], parent: Sequence[int], pivots: list[int]
               ) -> tuple[list[int], list[int], int]:
    """The leaf elimination of -A, whose diagonal is `pivots`, in integers,
    up a rooting as `_block_order` gives it: (sub, kids, det).

    Once the children c of v are eliminated, v has the pivot
    d_v = -e_v - sum_c 1/d_c = D_v / P_v, where D_v = sub[v] is the
    determinant of -A on the subtree below v and P_v = kids[v] the product
    of the D_c. -A is positive definite iff every pivot is positive; det is
    D_root, or 0 from the first pivot that is not positive."""
    sub, kids = list(pivots), [1] * len(pivots)
    for i in reversed(order):
        if sub[i] <= 0:
            return sub, kids, 0
        p = parent[i]
        if p >= 0:  # d_p -= 1/d_i on the fraction sub[p] / kids[p]
            sub[p] = sub[p] * sub[i] - kids[i] * kids[p]
            kids[p] *= sub[i]
    return sub, kids, sub[order[0]]


def _subtree_solve(members: Sequence[int], parent: Sequence[int],
                   sub: list[int], kids: list[int], rhs: list[int]
                   ) -> list[int]:
    """D x for -A x = rhs, rhs zero off the subtree that `members` lists
    (root first, parents before children) in a rooting as `_rooting`
    returns it; D = sub[members[0]] is the subtree's determinant.
    Eliminate up the subtree, then substitute back down."""
    acc = [r * k for r, k in zip(rhs, kids)]  # i's right side: acc_i/kids_i
    for i in reversed(members[1:]):  # child i adds acc_i / sub_i
        acc[parent[i]] += acc[i] * (kids[parent[i]] // sub[i])
    det = sub[members[0]]
    for i in members[1:]:  # back substitution, parents first
        acc[i] = (acc[i] * det + kids[i] * acc[parent[i]]) // sub[i]
    return acc


def _ellipsoid_walk(rooting: tuple, center: "Cycle", radius2: Fraction,
                    partial_filter: Callable[[int, list[int]], tuple]
                    ) -> tuple:
    """Fincke-Pohst (Math. Comp. 44, 1985) on the leaf elimination: the
    integer x >= 0 with (x - center)^T M (x - center) <= radius2, M = -A,
    that `partial_filter` admits, as (unit, points); `points` yields each x
    lazily, in vertex order, with its slack radius2 - (x - center)^T M
    (x - center) as an integer over `unit`: the walk's remaining budget.

    With D_v the determinant of M on the subtree below v, P_v the product
    of the D_c over its children c, and y_parent = 0 at the root,

        y^T M y = sum_v (D_v y_v - P_v y_parent(v))^2 / (D_v P_v)

    in any rooting (as `_rooting` returns it) that puts parents before
    children, so each coordinate's range hangs on the budget and its
    parent's value alone. With s the center's denominator, radius2 scaled
    once by s^2 lcm(D_v P_v) makes every budget an integer and each range
    one interval from one isqrt, walked upwards. In the block order the
    children of a vertex come one after another, so a filter on the
    parent's inequality sees every earlier sibling.

    `partial_filter(i, xs)` narrows vertex i's range before it is walked,
    as `quadform.enumerate_ellipsoid_points` sets out. It is called once at
    every inner node of the walk and every leaf yields one point, so the
    filter calls and the points count the walk's nodes."""
    order, parent, sub, kids, _ = rooting
    # integer center coordinates: w_v = s*x_v - cn_v = s*y_v
    cn, s = center.num, center.den
    # global scale: sum_v coeff_v T_v^2 <= bound.numerator * scale, integers
    bound = Fraction(radius2) * s * s
    scale = math.lcm(*map(mul, sub, kids))
    coeff = [bound.denominator * scale // (d * p) for d, p in zip(sub, kids)]
    unit = bound.denominator * scale * s * s
    # per step of the walk: T_v = D_v w_v - P_v w_p = a*x_v + off with
    # a = D_v s and off = -D_v cn_v - P_v w_p; the root has no parent, so
    # its P_v is taken as 0
    steps = [(v, parent[v], sub[v] * s, sub[v] * cn[v],
              kids[v] if parent[v] >= 0 else 0, coeff[v], cn[v])
             for v in order]
    depth = len(order)
    ws, xs = [0] * depth, [0] * depth

    def rec(k: int, budget: int, need: int) -> Iterator[tuple]:
        # every point below must leave `need` of the budget
        if k == depth:
            yield tuple(xs), budget
            return
        v, p, a, a_cn, kid, c, cn_v = steps[k]
        off = -a_cn - kid * ws[p]
        # exact: c*T_v^2 <= budget - need iff |T_v| <= t_max
        t_max = math.isqrt((budget - need) // c)
        lo, hi, cut = partial_filter(v, xs)
        high = (t_max - off) // a
        if hi is not None and hi < high:
            high = hi
        start = -((t_max + off) // a)
        if start < lo:
            start = lo
        if start < 0:
            start = 0
        if start > high:
            return
        # the need of a value at lo, at hi, and strictly between them
        at_lo = at_hi = between = need
        if cut[3] * unit > need:
            every, above_lo, below_hi, top = cut
            every = max(need, every * unit)
            between = max(need, top * unit)
            at_lo = max(every, below_hi * unit if hi != lo else 0)
            at_hi = max(every, above_lo * unit if hi != lo else 0)
        for value in range(start, high + 1):
            t = a * value + off
            left = budget - c * t * t
            floor = (at_lo if value == lo else at_hi if value == hi
                     else between)
            if left < floor:
                continue
            xs[v] = value
            ws[v] = s * value - cn_v
            yield from rec(k + 1, left, floor)

    return unit, rec(0, bound.numerator * scale, 0) if bound >= 0 else iter(())


_BUILD_TOKEN = object()


class Cycle:
    """Exact-rational vertex-indexed vector over a fixed graph, stored as
    integer numerators `num` (in vertex order) over one positive
    denominator `den`, in lowest terms: gcd(den, *num) = 1, so equal
    cycles have equal (num, den). `coeffs` is the Fraction view.

    Supports addition, subtraction, integer/rational scaling, and the
    coefficientwise partial order (>= / <= return False on incomparable
    pairs)."""

    __slots__ = ("graph", "num", "den")

    def __init__(self, graph: ResolutionGraph, num: tuple[int, ...],
                 den: int = 1):
        g = math.gcd(den, *num)
        self.graph = graph
        self.num = num if g == 1 else tuple(c // g for c in num)
        self.den = den // g

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    def coefficient(self, v: str) -> Fraction:
        return Fraction(self.num[self.graph._index[v]], self.den)

    def items(self):
        return zip(self.graph.vertices, self.coeffs)

    def support(self) -> frozenset[str]:
        return frozenset(v for v, c in zip(self.graph.vertices, self.num) if c)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_integral(self) -> bool:
        return self.den == 1

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.num)

    def _check(self, other: "Cycle"):
        if self.graph is not other.graph:
            raise UserError("cycles belong to different graphs")

    def _common(self, other: "Cycle"):
        """Both numerator lists over the lcm d of the denominators, and d."""
        self._check(other)
        d = math.lcm(self.den, other.den)
        return ([c * (d // self.den) for c in self.num],
                [c * (d // other.den) for c in other.num], d)

    def __add__(self, other: "Cycle") -> "Cycle":
        if self.den == other.den and self.graph is other.graph:
            return Cycle(self.graph, tuple(map(add, self.num, other.num)),
                         self.den)
        a, b, d = self._common(other)
        return Cycle(self.graph, tuple(map(add, a, b)), d)

    def __sub__(self, other: "Cycle") -> "Cycle":
        if self.den == other.den and self.graph is other.graph:
            return Cycle(self.graph, tuple(map(sub, self.num, other.num)),
                         self.den)
        a, b, d = self._common(other)
        return Cycle(self.graph, tuple(map(sub, a, b)), d)

    def __neg__(self) -> "Cycle":
        return Cycle(self.graph, tuple(-c for c in self.num), self.den)

    def __mul__(self, scalar) -> "Cycle":
        s = Fraction(scalar)
        return Cycle(self.graph, tuple(c * s.numerator for c in self.num),
                     self.den * s.denominator)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, Cycle) and self.graph is other.graph
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash((id(self.graph), self.num, self.den))

    def __ge__(self, other: "Cycle") -> bool:
        a, b, _ = self._common(other)
        return all(x >= y for x, y in zip(a, b))

    def __le__(self, other: "Cycle") -> bool:
        a, b, _ = self._common(other)
        return all(x <= y for x, y in zip(a, b))

    def __gt__(self, other: "Cycle") -> bool:
        return self >= other and self != other

    def __lt__(self, other: "Cycle") -> bool:
        return self <= other and self != other

    def floor(self) -> "Cycle":
        if self.den == 1:
            return self
        return Cycle(self.graph, tuple(c // self.den for c in self.num))

    def __repr__(self):
        inner = ", ".join(f"{v}: {c}" for v, c in self.items() if c != 0)
        return f"Cycle({{{inner}}})"


def build_graph(spec) -> ResolutionGraph:
    """Validate a graph description and build the ResolutionGraph.

    Accepts a mapping with "vertices" (list of (id, euler) pairs or of
    {"id": ..., "euler": ...} records) and "edges" (list of id pairs); ids
    are strings. A section may be any iterable but a str, bytes or mapping.
    Rejections carry a named diagnostic: malformed-description,
    duplicate-vertex, bad-euler, genus-not-supported, bad-edge, not-a-tree,
    not-connected, not-negative-definite.
    """
    try:
        raw_vertices = _section(spec, "vertices")
        raw_edges = _section(spec, "edges")
    except (TypeError, KeyError) as exc:
        raise GraphValidationError("malformed-description",
                                   f"expected vertices/edges keys ({exc})")
    euler: dict[str, int] = {}
    for entry in raw_vertices:
        # a pair is never a record: the (costly) ABC check only for others
        if not isinstance(entry, (list, tuple)) and isinstance(entry, Mapping):
            if "genus" in entry:
                raise GraphValidationError(
                    "genus-not-supported",
                    "genus decorations are not modeled (links are assumed "
                    "rational homology spheres)")
            entry = entry.get("id"), entry.get("euler")
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise GraphValidationError(
                "malformed-description",
                f"a vertex must be an (id, euler) pair or a record, got {quote(entry)}")
        vid, e = entry
        if not isinstance(vid, str):
            raise GraphValidationError("malformed-description",
                                       f"a vertex id must be a string, got {quote(vid)}")
        if vid in euler:
            raise GraphValidationError("duplicate-vertex", f"vertex {quote(vid)} repeated")
        if not isinstance(e, int) or isinstance(e, bool) or e > -1:
            raise GraphValidationError("bad-euler",
                                       f"euler number of {quote(vid)} must be an integer <= -1, got {quote(e)}")
        euler[vid] = e
    if not euler:
        raise GraphValidationError("malformed-description", "no vertices")
    vertices = tuple(sorted(euler))
    edge_set: set[frozenset[str]] = set()
    for pair in raw_edges:
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not isinstance(pair[0], str) or not isinstance(pair[1], str)):
            raise GraphValidationError("bad-edge", f"an edge must be a pair of ids, got {quote(pair)}")
        u, v = pair
        if u not in euler or v not in euler:
            raise GraphValidationError("bad-edge", f"edge ({quote(u)}, {quote(v)}) references unknown vertex")
        if u == v:
            raise GraphValidationError("bad-edge", f"self-loop at {quote(u)}")
        e = frozenset((u, v))
        if e in edge_set:
            raise GraphValidationError("bad-edge", f"duplicate edge ({quote(u)}, {quote(v)})")
        edge_set.add(e)
    if len(edge_set) != len(vertices) - 1:
        raise GraphValidationError(
            "not-a-tree", f"{len(vertices)} vertices need {len(vertices) - 1} edges, "
            f"got {len(edge_set)}")
    graph = ResolutionGraph(vertices, euler, frozenset(edge_set), _token=_BUILD_TOKEN)
    # connectivity (together with the edge count this certifies a tree)
    if len(graph._order) != len(vertices):
        raise GraphValidationError("not-connected", "graph is not connected")
    _check_definite(graph)
    return graph


def _section(spec, name: str) -> list:
    """The list `spec[name]`; a str, bytes or mapping there is refused,
    which `list` would read as its characters, bytes or keys."""
    section = spec[name]
    if isinstance(section, (str, bytes, Mapping)):
        raise GraphValidationError(
            "malformed-description",
            f"the {name} section must be a list, got {quote(section)}")
    return list(section)


def _check_definite(graph: ResolutionGraph) -> None:
    """Refuse a connected graph whose -A is not positive definite."""
    if graph.det <= 0:
        bad = next(i for i in reversed(graph._order) if graph._subdet[i] <= 0)
        raise GraphValidationError(
            "not-negative-definite",
            f"leaf elimination of -A gives a pivot <= 0 at vertex "
            f"{quote(graph.vertices[bad])}")


def _times_a(graph: ResolutionGraph, z: Sequence[int]) -> list[int]:
    """A z for an integer vector z, in vertex order: the diagonal of A is
    minus the pivots, and each edge (c, p) adds z_p to row c and z_c to
    row p."""
    out = [-p * x for p, x in zip(graph._pivots, z)]
    for c, p in graph._edge_pairs:
        out[c] += z[p]
        out[p] += z[c]
    return out


def intersection_form(l1: Cycle, l2: Cycle) -> Fraction:
    """(l1, l2) = l1^T A l2 in the E_v basis."""
    l1._check(l2)
    return Fraction(sum(map(mul, _times_a(l1.graph, l1.num), l2.num)),
                    l1.den * l2.den)


def chi(l: Cycle) -> Fraction:
    """Riemann-Roch value chi(l) = -(l, l - Z_K) / 2, evaluated by
    adjunction as (sum_v l_v (e_v + 2) - (l, l)) / 2, so without Z_K; the
    pivots are -e_v."""
    g = l.graph
    z, s = l.num, l.den
    linear = 2 * sum(z) - sum(map(mul, g._pivots, z))
    square = sum(map(mul, _times_a(g, z), z))
    return Fraction(s * linear - square, 2 * s * s)


def dual_cycle(graph: ResolutionGraph, v: str) -> Cycle:
    """E*_v: the column v of -A^{-1}; satisfies (E*_v, E_w) = -delta_vw.
    All coefficients are strictly positive."""
    if v not in graph._index:
        raise UserError(f"unknown vertex: {quote(v)}")
    cached = graph._dual_cache.get(v)
    if cached is None:
        cached = graph._dual_cache[v] = Cycle(graph, tuple(graph._tree_solve(
            [int(w == v) for w in graph.vertices])), graph.det)
    return cached


def canonical_cycle(graph: ResolutionGraph) -> Cycle:
    """The unique Z_K with (Z_K, E_v) = e_v + 2 for all v (adjunction)."""
    if graph._canonical is None:
        graph._canonical = Cycle(graph, tuple(graph._tree_solve(
            [-(graph.euler[v] + 2) for v in graph.vertices])), graph.det)
    return graph._canonical


def estar_coordinates(l: Cycle) -> dict[str, Fraction]:
    """Coordinates a_v = -(l, E_v) of l in the dual basis: l = sum a_v E*_v."""
    return {v: Fraction(-p, l.den)
            for v, p in zip(l.graph.vertices, _times_a(l.graph, l.num)) if p}


def estar_support(l: Cycle) -> frozenset[str]:
    """E*-support I(l) = {v : (l, E_v) != 0}."""
    return frozenset(v for v, p in zip(l.graph.vertices,
                                       _times_a(l.graph, l.num)) if p)


def is_antinef(l: Cycle) -> bool:
    """Membership in the Lipman cone S': (l, E_v) <= 0 for all v."""
    return all(p <= 0 for p in _times_a(l.graph, l.num))


def _antinef_cover(l: Cycle) -> list[int]:
    """Integers z >= 0 with l + z antinef and nonzero: z_v = ceil(t x_v - l_v)
    for x = sum_v E*_v and t = max(1, the largest degree, max_v l_v / x_v).

    y = l + z is t x + r with r in [0, 1)^V, and (x, E_v) = -1, so
    (y, E_v) = -t + e_v r_v + sum_{w ~ v} r_w < -t + deg v <= 0, or
    (y, E_v) <= -t < 0 at a vertex with no neighbours; y >= t x > 0."""
    g = l.graph
    x = g._tree_solve([1] * len(g.vertices))  # det * sum_v E*_v
    t = max(1, max(map(len, g._neighbours)),
            *(Fraction(c * g.det, l.den * xv) for c, xv in zip(l.num, x)))
    return [math.ceil(t * xv / g.det - Fraction(c, l.den))
            for c, xv in zip(l.num, x)]


def is_numerically_gorenstein(graph: ResolutionGraph) -> bool:
    """True iff Z_K is integral."""
    return canonical_cycle(graph).is_integral()
