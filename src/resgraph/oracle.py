"""Brute-force oracles for every minimality and enumeration claim.

Every function here recomputes a result by direct, bounded search using only
the lattice core (graphs, cycles, the form, chi and the ellipsoid walk). No
fast algorithm is consulted: the point is that an agreement between an
oracle and its fast counterpart is evidence, not circularity. The single
exception is :func:`verify`, which exists to compare the two sides and
therefore imports the fast modules locally.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .core import (Cycle, ResolutionGraph, _antinef_cover, _ellipsoid_walk,
                   _rooting, _subtree_solve, _times_a, build_graph,
                   canonical_cycle, chi, dual_cycle, intersection_form,
                   is_antinef)
from .errors import (GraphValidationError, InvariantViolation,
                     ResourceCapExceeded, UserError)

__all__ = [
    "brute_min_antinef",
    "brute_fundamental_cycle",
    "brute_min_chi",
    "brute_minimally_elliptic",
    "brute_antinef_sublevel",
    "brute_lemci",
    "brute_subsupports",
    "enumerate_trees",
    "verify",
    "DEFAULT_CAP",
]

DEFAULT_CAP = 10 ** 7
SUBSET_BUDGET = 10 ** 5  # connected subsets; g_right has 16 343


def _antinef_hits(graph: ResolutionGraph, base: Cycle, lower: Sequence[int],
                  upper: Sequence[int], cap: int) -> Iterator[tuple[int, ...]]:
    """All integer z with lower <= z <= upper (inclusive, per coordinate)
    and base + z antinef, by depth-first search.

    The search keeps a per-coordinate interval and restores bounds
    consistency after every assignment: the inequality at vertex j is
    monotone increasing in the neighbours of j and decreasing in z_j, so it
    lower-bounds z_j (neighbours at their interval minima) and upper-bounds
    each neighbour (z_j at its interval maximum). Iterating these two rules
    to a fixed point only ever discards values that lie in no solution
    inside the current box, so the enumeration stays exhaustive; branches
    whose intervals empty out die immediately.

    The inequalities are scaled by the base's denominator D, so the search
    runs on integers: p_j + D e_j z_j + D sum_{w ~ j} z_w <= 0 with
    p_j = D (base, E_j). Every rec call, one per partial assignment that
    survives propagation, counts one visited node against `cap`. The
    antinef pruning is part of the searched predicate itself, not of the
    algorithms under test."""
    n = len(graph.vertices)
    adj = graph._neighbours
    scale = base.den
    pairing = _times_a(graph, list(base.num))
    weight = [scale * graph.euler[v] for v in graph.vertices]  # D e_j < 0
    visited = 0

    def propagate(lo: list[int], hi: list[int]) -> bool:
        changed = True
        while changed:
            changed = False
            for j in range(n):
                nb_min = scale * sum(map(lo.__getitem__, adj[j]))
                need = pairing[j] + nb_min  # D e_j z_j + need <= 0
                if need > 0:
                    floor_j = -(need // weight[j])  # ceil(need / -D e_j)
                    if floor_j > lo[j]:
                        if floor_j > hi[j]:
                            return False
                        lo[j] = floor_j
                        changed = True
                room = (-pairing[j] - weight[j] * hi[j] - nb_min) // scale
                for w in adj[j]:
                    cap_w = room + lo[w]
                    if cap_w < hi[w]:
                        if cap_w < lo[w]:
                            return False
                        hi[w] = cap_w
                        changed = True
        return True

    def rec(i: int, lo: list[int], hi: list[int]) -> Iterator[tuple[int, ...]]:
        nonlocal visited
        visited += 1
        if visited > cap:
            raise ResourceCapExceeded(
                f"boxed antinef search exceeded its budget ({cap})")
        if i == n:
            yield tuple(lo)
            return
        for value in range(lo[i], hi[i] + 1):
            nlo, nhi = lo.copy(), hi.copy()
            nlo[i] = nhi[i] = value
            if propagate(nlo, nhi):
                yield from rec(i + 1, nlo, nhi)

    lo0, hi0 = list(lower), list(upper)
    if propagate(lo0, hi0):
        yield from rec(0, lo0, hi0)


def _certified_meet(hits: set[tuple[int, ...]], what: str) -> tuple[int, ...]:
    """The meet of `hits`, certified to be a hit: their unique minimum."""
    meet = tuple(map(min, zip(*hits)))
    if meet not in hits:
        raise InvariantViolation(f"{what} is not unique",
                                 payload={"hits": sorted(hits)})
    return meet


def _certified_minimum(base: Cycle, cap: int, nonzero: bool) -> Cycle:
    """Minimum of (base + L_{>=0}) cap S' by exhaustive boxed search; with
    `nonzero`, of (base + L_{>=0} - {0}) cap S'.

    The box [0, z], z = `core._antinef_cover(base)`, holds a hit: base + z
    is antinef and nonzero. The first depth-first hit inside it is the
    lexicographic minimum, which coincides with the componentwise minimum
    whenever one exists; the claim is then certified by `_certified_meet` on
    every hit below it (meets of antinef cycles are antinef, so the
    certificate is complete)."""
    graph = base.graph
    zero = (0,) * len(graph.vertices)
    kind = "nonzero antinef element" if nonzero else "antinef element"

    def hits(upper: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        return (h for h in _antinef_hits(graph, base, zero, upper, cap)
                if h != zero or not nonzero)

    upper = tuple(_antinef_cover(base))
    first = next(hits(upper), None)
    if first is None:
        raise InvariantViolation(f"safe search box contained no {kind}",
                                 payload={"upper": upper})
    return base + Cycle(graph, _certified_meet(set(hits(first)),
                                               f"minimal {kind}"))


def brute_min_antinef(l: Cycle, cap: int = DEFAULT_CAP) -> Cycle:
    """Minimum of (l + L_{>=0}) cap S', by `_certified_minimum`."""
    return _certified_minimum(l, cap, nonzero=False)


def brute_fundamental_cycle(graph: ResolutionGraph,
                            cap: int = DEFAULT_CAP) -> Cycle:
    """Minimum of S - {0}, by the same search from 0 (nonzero antinef
    cycles on a connected graph have full support, so the all-zero hit is
    simply skipped)."""
    return _certified_minimum(graph.zero_cycle(), cap, nonzero=True)


_Walk = Callable[..., Iterator[tuple[Cycle, int]]]  # `_chi_sublevel`'s walk


def _chi_sublevel(graph: ResolutionGraph, cap: int) -> _Walk:
    """walk(t) yields each integral l >= 0 with chi(l) <= t, and the integer
    chi(l), lazily; walk(t, upper), with `upper` integers in vertex order,
    only those with l <= upper.

    The sublevel set is the ellipsoid {chi <= t} that `core`'s walker walks
    at l' = 0, on the graph's own rooting, cut to `upper`; a point's slack
    is t - chi(l). Each filter call and each point is one node of the walk,
    counted against `cap`."""
    rooting = (graph._order, graph._parent, graph._subdet, graph._childdet,
               graph.det)
    refusal = f"chi sublevel enumeration exceeded its budget ({cap})"

    def walk(t: int, upper: Sequence[int] | None = None
             ) -> Iterator[tuple[Cycle, int]]:
        cut, nodes = upper or [None] * len(graph.vertices), 0

        def narrow(v: int, xs: list[int]) -> tuple:  # once per inner node
            nonlocal nodes
            nodes += 1
            if nodes > cap:
                raise ResourceCapExceeded(refusal)
            return 0, cut[v], (0, 0, 0, 0)

        unit, points = _ellipsoid_walk(rooting, graph.zero_cycle(), t, narrow)
        for x, left in points:  # once per leaf
            nodes += 1
            if nodes > cap:
                raise ResourceCapExceeded(refusal)
            yield Cycle(graph, x), t - left // unit

    return walk


def brute_min_chi(graph: ResolutionGraph, cap: int = DEFAULT_CAP) -> int:
    """min chi over integral l > 0, by `_min_chi`."""
    return _min_chi(_chi_sublevel(graph, cap))


def _min_chi(walk: _Walk) -> int:
    """min chi over integral l > 0 on `_chi_sublevel`'s walk. chi is an
    integer on integral cycles and chi(E_v) = 1, so the chi <= 1 walk is
    probed for a nonzero point, then the chi <= chi(that point) - 1 walk,
    until one has none."""
    best, t = None, 1
    while (found := next((k for l, k in walk(t) if not l.is_zero()),
                         None)) is not None:
        best, t = found, found - 1
    if best is None:
        raise InvariantViolation("chi sublevel set missed the basis cycles")
    return best


def brute_minimally_elliptic(graph: ResolutionGraph,
                             cap: int = DEFAULT_CAP) -> Cycle:
    """Unique minimum of {0 < l <= Z_min : chi(l) = 0}, by
    `_minimally_elliptic` below the oracle's own Z_min."""
    return _minimally_elliptic(brute_fundamental_cycle(graph, cap),
                               _chi_sublevel(graph, cap))


def _minimally_elliptic(zmin: Cycle, walk: _Walk) -> Cycle:
    """Unique minimum of {0 < l <= zmin : chi(l) = 0}, by direct search:
    the chi <= 0 locus is a finite ellipsoid, walked by `_chi_sublevel`'s
    `walk` only below `zmin` (the oracle's Z_min, integral, so its
    numerators are its coefficients), and certified by `_certified_meet`
    on the hits' numerators."""
    graph = zmin.graph
    hits = {l.num for l, k in walk(0, zmin.num)
            if k == 0 and not l.is_zero()}
    if not hits:
        raise UserError("no nonzero cycle with chi = 0 below the fundamental "
                        "cycle (graph is not elliptic)")
    return Cycle(graph, _certified_meet(hits, "minimally elliptic cycle"))


def brute_antinef_sublevel(graph: ResolutionGraph, lprime: Cycle,
                           bound) -> list[Cycle]:
    """All integral l >= 0 with l - l' antinef and chi(l) + (l, l') <= bound.

    With M = -A, b = Z_K/2 + l' and R = 2 bound - (b, b), chi(l) + (l, l')
    = ((l-b)^T M (l-b) + (b, b)) / 2, so the set lies in the ellipsoid
    (l-b)^T M (l-b) <= R and in its box |l_v - b_v|^2 <= R (M^{-1})_vv,
    where (M^{-1})_vv is the coefficient of E*_v at v; all read off `core`.
    When -l' is antinef, (l, l') = sum_v l_v (E_v, l') >= 0 for l >= 0,
    so the set also lies in the box of {l >= 0 : chi(l) <= bound}, the same
    with b = Z_K/2, much the smaller far from 0. `_antinef_hits` searches
    the boxes' intersection, cut to l >= 0, with base -l', and the hits are
    filtered by the value."""
    half = canonical_cycle(graph) * Fraction(1, 2)
    centres = [half + lprime, half] if is_antinef(-lprime) else [half + lprime]
    lower, upper = [0] * len(half.num), [math.inf] * len(half.num)
    for b in centres:
        radius2 = 2 * Fraction(bound) - intersection_form(b, b)
        if radius2 < 0:
            return []
        q = b.den
        for i, (v, p) in enumerate(zip(graph.vertices, b.num)):
            # integers x with (q x - p)^2 <= q^2 R (M^{-1})_vv, b_v = p / q
            t = math.isqrt(math.floor(
                q * q * radius2 * dual_cycle(graph, v).coefficient(v)))
            lower[i] = max(lower[i], -((t - p) // q))
            upper[i] = min(upper[i], (p + t) // q)
            if lower[i] > upper[i]:
                return []
    hits = (Cycle(graph, z) for z in
            _antinef_hits(graph, -lprime, lower, upper, DEFAULT_CAP))
    return [l for l in hits if chi(l) + intersection_form(l, lprime) <= bound]


def brute_lemci(graph: ResolutionGraph, cap: int = DEFAULT_CAP) -> list[Cycle]:
    """{l' in S' : [l'] = [Z_K], 0 <= l' <= Z_K}, by direct box search.

    Any such l' has the same fractional parts as Z_K, hence lies in
    frac(Z_K) + [0, floor(Z_K)]^V."""
    zk = canonical_cycle(graph)
    frac = zk - zk.floor()
    upper = [int(c) for c in zk.floor().coeffs]
    return sorted((frac + Cycle(graph, z) for z in
                   _antinef_hits(graph, frac, [0] * len(upper), upper, cap)),
                  key=lambda c: c.coeffs)


def _connected_subsets(graph: ResolutionGraph) -> Iterator[tuple[int, ...]]:
    """Each nonempty connected vertex subset of the tree once, as indices.

    The subsets whose least vertex is r grow from (r,): the first vertex on
    the frontier (the undecided neighbours above r) is either barred for
    good or taken, when its other neighbours above r, new in a tree, join
    the frontier. An explicit stack keeps the depth flat."""
    adj = graph._neighbours
    for r in range(len(adj)):
        stack = [((r,), tuple((w, r) for w in adj[r] if w > r))]
        while stack:
            members, frontier = stack.pop()
            if not frontier:
                yield members
                continue
            (v, came_from), rest = frontier[0], frontier[1:]
            stack.append((members, rest))
            stack.append((members + (v,), rest + tuple(
                (w, v) for w in adj[v] if w != came_from and w > r)))


def brute_subsupports(graph: ResolutionGraph) -> list[frozenset[str]]:
    """All nonempty connected vertex subsets whose full subgraph has an
    integral canonical cycle with full support: one `core._subtree_solve` on
    the subset's own rooting gives det * Z_K, with no graph built. They are
    counted before any is solved, so a refusal costs one bounded count."""
    beyond = itertools.islice(_connected_subsets(graph), SUBSET_BUDGET, None)
    if next(beyond, None) is not None:
        raise ResourceCapExceeded(f"subsupport oracle refuses graphs with "
                                  f"over {SUBSET_BUDGET} connected subsets")
    hits = []
    for members in _connected_subsets(graph):
        local = {g: i for i, g in enumerate(members)}
        pivots = [graph._pivots[g] for g in members]
        order, parent, sub, kids, det = _rooting(
            [[local[w] for w in graph._neighbours[g] if w in local]
             for g in members], pivots, 0)
        zk = _subtree_solve(order, parent, sub, kids, [p - 2 for p in pivots])
        if all(z and not z % det for z in zk):
            hits.append(frozenset(graph.vertices[g] for g in members))
    return sorted(hits, key=lambda s: (-len(s), sorted(s)))


def _pruefer_edges(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    leaves = sorted(i for i in range(n) if degree[i] == 1)
    for x in seq:
        edges.append((leaves.pop(0), x))
        degree[x] -= 1
        if degree[x] == 1:
            # keep the leaf pool sorted so the construction is deterministic
            bisect.insort(leaves, x)
    edges.append((leaves[0], leaves[1]))
    return edges


def _centre_plan(adj: dict[int, list[int]]
                 ) -> tuple[list[tuple[int, list[int]]], list[int]]:
    """The plan of `_tree_form` for a tree: peel its leaves layer by layer
    and list each vertex with its neighbours in earlier layers (its
    children), so every child comes before its parent; and the last
    layer, the one or two centres, which are not each other's children."""
    degree = {v: len(ws) for v, ws in adj.items()}
    layer = [v for v, d in degree.items() if d <= 1]
    steps, done, left = [], set(), len(adj)
    while True:
        steps += [(v, [w for w in adj[v] if w in done]) for v in layer]
        if left <= 2:
            return steps, layer
        done.update(layer)
        left -= len(layer)
        peeled = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    peeled.append(w)
        layer = peeled


def _tree_form(plan: tuple[list[tuple[int, list[int]]], list[int]],
               labels: Sequence[int]) -> tuple:
    """Isomorphism-invariant form of a labelled tree, given its
    `_centre_plan`: the (label, sorted child forms) encoding of the tree
    rooted at its centre, built bottom-up (Aho-Hopcroft-Ullman tree
    coding); with two centres, the sorted pair of the encodings of the two
    halves that cutting the edge between them leaves. An isomorphism maps
    centres to centres, so equal forms mean isomorphic trees."""
    steps, centres = plan
    forms: list = [None] * len(labels)
    for v, children in steps:
        forms[v] = (labels[v], tuple(sorted([forms[w] for w in children]))
                    if children else ())
    return tuple(sorted([forms[c] for c in centres]))


def _free_tree_count(n: int) -> int:
    """Otter's count t(n) of unlabelled trees on n >= 1 vertices, from the
    rooted counts r(k) of the Euler transform:
    t(n) = r(n) - (sum_{i<n} r(i) r(n-i) - [n even] r(n/2)) / 2."""
    r = [0, 1]
    for m in range(1, n):
        # m r(m+1) = sum_{k=1..m} (sum_{d | k} d r(d)) r(m-k+1)
        r.append(sum(sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
                     * r[m - k + 1] for k in range(1, m + 1)) // m)
    pairs = sum(r[i] * r[n - i] for i in range(1, n))
    if n % 2 == 0:
        pairs -= r[n // 2]
    return r[n] - pairs // 2


def _tree_shapes(n: int, count=lambda: None) -> list[dict[int, list[int]]]:
    """All unlabelled trees on n vertices, as adjacency dicts: the first
    tree of each shape in Pruefer-sequence order. The scan stops once it
    holds Otter's count of shapes; `count()` is called once per sequence
    scanned."""
    if n == 1:
        return [{0: []}]
    total = _free_tree_count(n)
    shapes, seen = [], set()
    for seq in itertools.product(range(n), repeat=n - 2):
        count()
        adj: dict[int, list[int]] = {i: [] for i in range(n)}
        for u, v in _pruefer_edges(seq, n):
            adj[u].append(v)
            adj[v].append(u)
        key = _tree_form(_centre_plan(adj), [0] * n)
        if key not in seen:
            seen.add(key)
            shapes.append(adj)
            if len(shapes) == total:
                break
    return shapes


def _shape_generators(adj: dict[int, list[int]]) -> list[tuple[int, ...]]:
    """Generators of a tree's automorphism group, as vertex permutations:
    swaps of isomorphic sibling subtrees (Jordan, 1869). With the tree
    rooted at its centre (`_centre_plan`) and children sorted by subtree
    form, each two adjacent children of equal form give the swap of their
    subtrees along that order, and two centres of equal form the swap of
    the halves."""
    steps, centres = _centre_plan(adj)
    forms: list = [None] * len(adj)
    kids = {}
    for v, children in steps:
        kids[v] = sorted(children, key=forms.__getitem__)
        forms[v] = tuple(forms[w] for w in kids[v])

    def swap(a: int, b: int) -> tuple[int, ...]:
        perm, pairs = list(range(len(adj))), [(a, b)]
        while pairs:
            a, b = pairs.pop()
            perm[a], perm[b] = b, a
            pairs += zip(kids[a], kids[b])
        return tuple(perm)

    gens = [swap(a, b) for ws in kids.values() for a, b in zip(ws, ws[1:])
            if forms[a] == forms[b]]
    if len(centres) == 2 and forms[centres[0]] == forms[centres[1]]:
        gens.append(swap(*centres))
    return gens


def _orbit_minima(generators: list[tuple[int, ...]], values: Sequence[int],
                  n: int) -> Iterator[list[int]]:
    """The first labelling of each orbit, in product order over values**n,
    of the group the position permutations generate: each generator has a
    table of image indices, and each index a mark, set as the orbit of each
    first one is walked."""
    k = len(values)
    weights = [k ** (n - 1 - v) for v in range(n)]
    tables = []
    for perm in generators:
        table = [0]
        for v in range(n):
            w = weights[perm[v]]
            table = [t + d for t in table for d in range(0, k * w, w)]
        tables.append(table)
    marks = bytearray(k ** n)
    i = marks.find(0)
    while i >= 0:
        marks[i] = 1
        stack = [i]
        while stack:
            j = stack.pop()
            for table in tables:
                m = table[j]
                if not marks[m]:
                    marks[m] = 1
                    stack.append(m)
        yield [values[i // w % k] for w in weights]
        i = marks.find(0, i + 1)


def enumerate_trees(max_vertices: int, euler_range,
                    cap: int = DEFAULT_CAP) -> Iterator[ResolutionGraph]:
    """All non-isomorphic negative-definite weighted trees with at most
    max_vertices vertices and euler numbers from euler_range: on each shape,
    the first euler assignment in product order of each orbit under the
    shape's automorphisms (`_orbit_minima`), with no form per assignment.
    Each Pruefer sequence scanned counts one against `cap`, and each shape
    its k**n assignments (k values) when it is reached, before any table
    is built. Each value is checked as it is read; a range of more values
    than `cap` is refused then, and none is held when no tree has a vertex,
    nor read past its ends when it is a `range`."""
    over = (f"tree enumeration exceeded cap {cap} (Pruefer sequences and "
            f"euler assignments scanned)")
    invalid = "euler_range must be a nonempty set of integers <= -1"
    if isinstance(euler_range, range) and max_vertices < 1:
        # a range is monotone: all its values pass iff both its ends do
        euler_range = (*euler_range[:1], *euler_range[-1:])
    values, read = set(), False
    for e in euler_range:
        if not isinstance(e, int) or e > -1:
            raise UserError(invalid)
        read = True
        if max_vertices >= 1:
            values.add(e)
            if len(values) > cap:
                raise ResourceCapExceeded(over)
    if not read:
        raise UserError(invalid)
    euler_values = sorted(values)
    scanned = 0

    def count(work: int = 1) -> None:
        nonlocal scanned
        scanned += work
        if scanned > cap:
            raise ResourceCapExceeded(over)

    for n in range(1, max_vertices + 1):
        names = [f"v{i + 1}" for i in range(n)]
        for adj in _tree_shapes(n, count):
            count(len(euler_values) ** n)
            # the shape is validated once, with euler -n on every vertex
            # (diagonally dominant, so definite); each assignment shares it
            shape = build_graph({
                "vertices": [(name, -n) for name in names],
                "edges": [(names[u], names[v]) for u in adj for v in adj[u]
                          if u < v]})
            generators = _shape_generators(adj)
            for assignment in _orbit_minima(generators, euler_values, n):
                try:
                    yield shape._with_euler(zip(names, assignment))
                except GraphValidationError as exc:
                    if exc.diagnostic != "not-negative-definite":
                        raise


def verify(graph: ResolutionGraph, cap: int = DEFAULT_CAP) -> dict[str, str]:
    """Run every oracle against its fast counterpart on one graph.

    Returns {check name: "ok" | "skipped: reason"}; raises
    InvariantViolation on any disagreement."""
    # local imports: verify is the only place the oracle side may look at
    # the fast path, and only to compare against it
    from .laufer import (antinef_lift, classify, cube_representative,
                         fundamental_cycle, minimal_class_representative)

    report: dict[str, str] = {}

    def check(name: str, fast_fn, brute_fn):
        """The brute value, or the cap refusal that skipped the check."""
        try:
            fast, brute = fast_fn(), brute_fn()
        except ResourceCapExceeded as exc:
            report[name] = f"skipped: {exc}"
            return exc
        if fast != brute:
            raise InvariantViolation(f"oracle disagreement: {name}",
                                     payload={"fast": fast, "brute": brute})
        report[name] = "ok"
        return brute

    ones = graph.from_vector([1] * len(graph.vertices))
    fast_lift, trace = antinef_lift(ones)
    if not trace.replay():
        raise InvariantViolation("computation sequence trace does not replay")
    check("antinef-lift", lambda: fast_lift,
          lambda: brute_min_antinef(ones, cap))
    cls = classify(graph)  # `fundamental_cycle` is `classify(graph).zmin`
    zmin = check("fundamental-cycle", lambda: fundamental_cycle(graph),
                 lambda: brute_fundamental_cycle(graph, cap))
    zk = canonical_cycle(graph)
    check("class-representative",
          lambda: minimal_class_representative(zk),
          lambda: brute_min_antinef(cube_representative(zk), cap))
    walk = _chi_sublevel(graph, cap)  # set up once for both chi searches
    check("classification", lambda: cls.kind,
          lambda: ("rational" if (v := _min_chi(walk)) == 1
                   else "elliptic" if v == 0 else "other"))
    if cls.kind == "elliptic" and graph.is_minimal():
        from .ellseq import elliptic_sequence
        # one validated sequence; the three ellseq wrappers read these fields
        seq = elliptic_sequence(graph)

        def below_brute_zmin():
            if isinstance(zmin, ResourceCapExceeded):
                raise zmin  # the brute Z_min this search needs was refused
            return _minimally_elliptic(zmin, walk)

        check("minimally-elliptic", lambda: seq.fundamental_cycles[-1],
              below_brute_zmin)
        check("antinef-below-canonical", lambda: list(seq.sums),
              lambda: brute_lemci(graph, cap))
        check("gorenstein-subsupports", lambda: list(seq.supports),
              lambda: brute_subsupports(graph))
        report["elliptic-sequence"] = "ok"
    return report
