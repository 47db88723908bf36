"""Lattice core: resolution graphs, cycles, the intersection form and chi.

A resolution graph is a connected weighted tree with negative-definite
intersection matrix A (A_vv = e_v, A_uv = 1 on edges). Cycles are exact
rational vectors in the vertex basis; no floating point is used anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import GraphValidationError, UserError

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
    "same_class",
    "is_numerically_gorenstein",
    "bareiss_elimination",
]


def bareiss_elimination(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Leading principal minors of an integer matrix, by fraction-free
    (Bareiss) elimination. Stops early (padding with zeros) if a pivot
    vanishes, which for a symmetric candidate-positive-definite matrix
    already certifies failure. The dense reference behind `minors`."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    minors: list[int] = []
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


class ResolutionGraph:
    """Immutable weighted tree with a negative-definite intersection form.

    Construct through :func:`build_graph`, which validates the description.
    Vertex identifiers are opaque strings ordered lexicographically; that
    order fixes the matrix layout and all report orderings.
    """

    def __init__(self, vertices: tuple[str, ...], euler: dict[str, int],
                 edges: frozenset[frozenset[str]], _token=None):
        if _token is not _BUILD_TOKEN:
            raise UserError("use build_graph() to construct a ResolutionGraph")
        self.vertices = vertices
        self.euler = dict(euler)
        self.edges = edges
        self._index = index = {v: i for i, v in enumerate(vertices)}
        adj: dict[str, list[str]] = {v: [] for v in vertices}
        for u, v in map(sorted, edges):
            adj[u].append(v)
            adj[v].append(u)
        self.adjacency = {v: tuple(sorted(ws)) for v, ws in adj.items()}
        self._neighbours = [[index[w] for w in self.adjacency[v]]
                            for v in vertices]
        # root the tree at its first vertex of least degree; depth-first
        # preorder, children by id, puts every parent before its children
        # (a shorter order means disconnected)
        degrees = [len(ws) for ws in self._neighbours]
        root = degrees.index(min(degrees))
        self._parent = parent = [-1] * len(vertices)
        self._order = order = []
        stack = [root]
        while stack:
            i = stack.pop()
            order.append(i)
            for j in reversed(self._neighbours[i]):
                if j != root and parent[j] < 0:
                    parent[j] = i
                    stack.append(j)
        self._eliminate()
        self._dual_cache: dict[str, Cycle] = {}
        self._canonical: Cycle | None = None

    def _eliminate(self) -> None:
        """Leaf elimination of -A up the rooted tree, in integers.

        Once the children c of v are eliminated, v has the pivot
        d_v = -e_v - sum_c 1/d_c = D_v / P_v, where D_v is the determinant
        of -A on the subtree below v and P_v the product of the D_c.
        -A is positive definite iff every pivot is positive; det = D_root,
        or 0 from the first pivot that is not positive."""
        self._subdet = sub = [-self.euler[v] for v in self.vertices]
        self._childdet = kids = [1] * len(self.vertices)
        self.det = 0
        for i in reversed(self._order):
            if sub[i] <= 0:
                return
            p = self._parent[i]
            if p >= 0:  # d_p -= 1/d_i on the fraction sub[p] / kids[p]
                sub[p] = sub[p] * sub[i] - kids[i] * kids[p]
                kids[p] *= sub[i]
        self.det = sub[self._order[0]]

    def _tree_solve(self, rhs: list[int]) -> "Cycle":
        """x with -A x = rhs (integer rhs): eliminate up the tree as in
        _eliminate, then substitute back down; det * x is integral."""
        parent, sub, kids = self._parent, self._subdet, self._childdet
        acc, den = list(rhs), [1] * len(rhs)
        for i in reversed(self._order[1:]):
            p = parent[i]
            acc[p] = acc[p] * sub[i] + acc[i] * den[p]
            den[p] *= sub[i]
        for i in self._order[1:]:  # back substitution, parents first
            acc[i] = (acc[i] * self.det + kids[i] * acc[parent[i]]) // sub[i]
        return Cycle(self, tuple(Fraction(c, self.det) for c in acc))

    @cached_property
    def matrix(self) -> list[list[int]]:
        """The intersection matrix A in vertex order."""
        return [[self.euler[v] if v == w else int(w in self.adjacency[v])
                 for w in self.vertices] for v in self.vertices]

    @cached_property
    def neg_matrix(self) -> list[list[int]]:
        return [[-x for x in row] for row in self.matrix]

    @cached_property
    def minors(self) -> tuple[int, ...]:
        """Leading principal minors of -A, by Bareiss elimination."""
        return tuple(bareiss_elimination(self.neg_matrix))

    # -- cycle constructors -------------------------------------------------

    def cycle(self, coefficients: Mapping[str, object] | Iterable[tuple[str, object]]) -> "Cycle":
        items = dict(coefficients)
        for v in items:
            if v not in self._index:
                raise UserError(f"unknown vertex in cycle: {v!r}")
        coeffs = tuple(Fraction(items.get(v, 0)) for v in self.vertices)
        return Cycle(self, coeffs)

    def zero_cycle(self) -> "Cycle":
        return Cycle(self, (Fraction(0),) * len(self.vertices))

    def basis_cycle(self, v: str) -> "Cycle":
        """E_v."""
        if v not in self._index:
            raise UserError(f"unknown vertex: {v!r}")
        i = self._index[v]
        return Cycle(self, tuple(Fraction(1 if j == i else 0)
                                 for j in range(len(self.vertices))))

    def from_vector(self, coeffs: Iterable) -> "Cycle":
        return Cycle(self, tuple(Fraction(c) for c in coeffs))

    # -- derived structure --------------------------------------------------

    def is_minimal(self) -> bool:
        return all(e <= -2 for e in self.euler.values())

    def degree(self, v: str) -> int:
        return len(self.adjacency[v])

    def end_vertices(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if self.degree(v) == 1)

    def nodes(self) -> tuple[str, ...]:
        """Vertices of degree at least 3."""
        return tuple(v for v in self.vertices if self.degree(v) >= 3)

    def subgraph(self, vertex_subset: Iterable[str]) -> "ResolutionGraph":
        """Full subgraph on the given vertices (must induce a connected,
        negative-definite tree; subgraphs of valid graphs always are,
        provided connectivity)."""
        keep = set(vertex_subset)
        for v in keep:
            if v not in self._index:
                raise UserError(f"unknown vertex: {v!r}")
        sub_edges = [tuple(sorted(e)) for e in self.edges if set(e) <= keep]
        return build_graph({
            "vertices": [(v, self.euler[v]) for v in sorted(keep)],
            "edges": sub_edges,
        })

    def embed(self, sub_cycle: "Cycle") -> "Cycle":
        """Lift a cycle on a subgraph (same vertex ids) to this graph."""
        return self.cycle({v: c for v, c in sub_cycle.items() if c != 0})

    def __repr__(self):
        return f"ResolutionGraph({len(self.vertices)} vertices, det={self.det})"


_BUILD_TOKEN = object()


class Cycle:
    """Exact-rational vertex-indexed vector over a fixed graph.

    Supports addition, subtraction, integer/rational scaling, and the
    coefficientwise partial order (>= / <= return False on incomparable
    pairs)."""

    __slots__ = ("graph", "coeffs")

    def __init__(self, graph: ResolutionGraph, coeffs: tuple[Fraction, ...]):
        self.graph = graph
        self.coeffs = coeffs

    def coefficient(self, v: str) -> Fraction:
        return self.coeffs[self.graph._index[v]]

    def items(self):
        return zip(self.graph.vertices, self.coeffs)

    def as_dict(self) -> dict[str, Fraction]:
        return {v: c for v, c in self.items() if c != 0}

    def support(self) -> frozenset[str]:
        return frozenset(v for v, c in self.items() if c != 0)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def _check(self, other: "Cycle"):
        if self.graph is not other.graph:
            raise UserError("cycles belong to different graphs")

    def __add__(self, other: "Cycle") -> "Cycle":
        self._check(other)
        return Cycle(self.graph, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Cycle") -> "Cycle":
        self._check(other)
        return Cycle(self.graph, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Cycle":
        return Cycle(self.graph, tuple(-a for a in self.coeffs))

    def __mul__(self, scalar) -> "Cycle":
        s = Fraction(scalar)
        return Cycle(self.graph, tuple(a * s for a in self.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, Cycle) and self.graph is other.graph
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.graph), self.coeffs))

    def __ge__(self, other: "Cycle") -> bool:
        self._check(other)
        return all(a >= b for a, b in zip(self.coeffs, other.coeffs))

    def __le__(self, other: "Cycle") -> bool:
        self._check(other)
        return all(a <= b for a, b in zip(self.coeffs, other.coeffs))

    def __gt__(self, other: "Cycle") -> bool:
        return self >= other and self != other

    def __lt__(self, other: "Cycle") -> bool:
        return self <= other and self != other

    def floor(self) -> "Cycle":
        return Cycle(self.graph, tuple(Fraction(math.floor(c)) for c in self.coeffs))

    def __repr__(self):
        inner = ", ".join(f"{v}: {c}" for v, c in self.items() if c != 0)
        return f"Cycle({{{inner}}})"


def build_graph(spec) -> ResolutionGraph:
    """Validate a graph description and build the ResolutionGraph.

    Accepts a mapping with "vertices" (list of (id, euler) pairs or of
    {"id": ..., "euler": ...} records) and "edges" (list of id pairs); ids
    are strings.
    Rejections carry a named diagnostic: duplicate-vertex, bad-euler,
    genus-not-supported, bad-edge, not-a-tree, not-connected,
    not-negative-definite.
    """
    try:
        raw_vertices = list(spec["vertices"])
        raw_edges = list(spec["edges"])
    except (TypeError, KeyError) as exc:
        raise GraphValidationError("malformed-description",
                                   f"expected vertices/edges keys ({exc})")
    euler: dict[str, int] = {}
    order: list[str] = []
    for entry in raw_vertices:
        if isinstance(entry, Mapping):
            if "genus" in entry:
                raise GraphValidationError(
                    "genus-not-supported",
                    "genus decorations are not modeled (links are assumed "
                    "rational homology spheres)")
            entry = entry.get("id"), entry.get("euler")
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise GraphValidationError(
                "malformed-description",
                f"a vertex must be an (id, euler) pair or a record, got {entry!r}")
        vid, e = entry
        if not isinstance(vid, str):
            raise GraphValidationError("malformed-description",
                                       f"a vertex id must be a string, got {vid!r}")
        if vid in euler:
            raise GraphValidationError("duplicate-vertex", f"vertex {vid!r} repeated")
        if not isinstance(e, int) or isinstance(e, bool) or e > -1:
            raise GraphValidationError("bad-euler",
                                       f"euler number of {vid!r} must be an integer <= -1, got {e!r}")
        euler[vid] = e
        order.append(vid)
    if not order:
        raise GraphValidationError("malformed-description", "no vertices")
    vertices = tuple(sorted(order))
    edge_set: set[frozenset[str]] = set()
    for pair in raw_edges:
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not isinstance(pair[0], str) or not isinstance(pair[1], str)):
            raise GraphValidationError("bad-edge", f"an edge must be a pair of ids, got {pair!r}")
        u, v = pair
        if u not in euler or v not in euler:
            raise GraphValidationError("bad-edge", f"edge ({u!r}, {v!r}) references unknown vertex")
        if u == v:
            raise GraphValidationError("bad-edge", f"self-loop at {u!r}")
        e = frozenset((u, v))
        if e in edge_set:
            raise GraphValidationError("bad-edge", f"duplicate edge ({u!r}, {v!r})")
        edge_set.add(e)
    if len(edge_set) != len(vertices) - 1:
        raise GraphValidationError(
            "not-a-tree", f"{len(vertices)} vertices need {len(vertices) - 1} edges, "
            f"got {len(edge_set)}")
    graph = ResolutionGraph(vertices, euler, frozenset(edge_set), _token=_BUILD_TOKEN)
    # connectivity (together with the edge count this certifies a tree)
    if len(graph._order) != len(vertices):
        raise GraphValidationError("not-connected", "graph is not connected")
    if graph.det <= 0:
        raise GraphValidationError(
            "not-negative-definite",
            f"leading principal minors of -A must all be positive, got {graph.minors}")
    return graph


def _numerators(l: Cycle) -> tuple[list[int], int]:
    """(z, s) with l = z / s: integer numerators over the lcm s of the
    denominators, so that sums and products below stay in integers."""
    s = math.lcm(*(c.denominator for c in l.coeffs))
    return [c.numerator * (s // c.denominator) for c in l.coeffs], s


def _times_a(graph: ResolutionGraph, z: list[int]) -> list[int]:
    """A z for an integer vector z, in vertex order."""
    return [graph.euler[v] * z[i] + sum(z[j] for j in graph._neighbours[i])
            for i, v in enumerate(graph.vertices)]


def _pairing_with_basis(l: Cycle) -> list[Fraction]:
    """[(l, E_v)] for all v, in vertex order."""
    z, s = _numerators(l)
    return [Fraction(p, s) for p in _times_a(l.graph, z)]


def intersection_form(l1: Cycle, l2: Cycle) -> Fraction:
    """(l1, l2) = l1^T A l2 in the E_v basis."""
    l1._check(l2)
    (z1, s1), (z2, s2) = _numerators(l1), _numerators(l2)
    return Fraction(sum(p * c for p, c in zip(_times_a(l1.graph, z1), z2)),
                    s1 * s2)


def chi(l: Cycle) -> Fraction:
    """Riemann-Roch value chi(l) = -(l, l - Z_K) / 2, evaluated by
    adjunction as (sum_v l_v (e_v + 2) - (l, l)) / 2, so without Z_K."""
    g = l.graph
    z, s = _numerators(l)
    linear = sum(c * (g.euler[v] + 2) for v, c in zip(g.vertices, z))
    square = sum(p * c for p, c in zip(_times_a(g, z), z))
    return Fraction(s * linear - square, 2 * s * s)


def dual_cycle(graph: ResolutionGraph, v: str) -> Cycle:
    """E*_v: the column v of -A^{-1}; satisfies (E*_v, E_w) = -delta_vw.
    All coefficients are strictly positive."""
    if v not in graph._index:
        raise UserError(f"unknown vertex: {v!r}")
    cached = graph._dual_cache.get(v)
    if cached is None:
        cached = graph._dual_cache[v] = graph._tree_solve(
            [int(w == v) for w in graph.vertices])
    return cached


def canonical_cycle(graph: ResolutionGraph) -> Cycle:
    """The unique Z_K with (Z_K, E_v) = e_v + 2 for all v (adjunction)."""
    if graph._canonical is None:
        graph._canonical = graph._tree_solve(
            [-(graph.euler[v] + 2) for v in graph.vertices])
    return graph._canonical


def estar_coordinates(l: Cycle) -> dict[str, Fraction]:
    """Coordinates a_v = -(l, E_v) of l in the dual basis: l = sum a_v E*_v."""
    return {v: -p for v, p in zip(l.graph.vertices, _pairing_with_basis(l))
            if p != 0}


def estar_support(l: Cycle) -> frozenset[str]:
    """E*-support I(l) = {v : (l, E_v) != 0}."""
    return frozenset(estar_coordinates(l))


def is_antinef(l: Cycle) -> bool:
    """Membership in the Lipman cone S': (l, E_v) <= 0 for all v."""
    return all(p <= 0 for p in _times_a(l.graph, _numerators(l)[0]))


def same_class(l1: Cycle, l2: Cycle) -> bool:
    """Same class in L'/L, i.e. l1 - l2 is integral."""
    return (l1 - l2).is_integral()


def is_numerically_gorenstein(graph: ResolutionGraph) -> bool:
    """True iff Z_K is integral."""
    return canonical_cycle(graph).is_integral()
