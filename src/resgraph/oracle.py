"""Brute-force oracles for every minimality and enumeration claim.

Every function here recomputes a result by direct, bounded search using only
the lattice core (graphs, cycles, the intersection form and chi). None of
the fast algorithms are consulted: the point is that an agreement between an
oracle and its fast counterpart is evidence, not circularity. The single
exception is :func:`verify`, which exists to compare the two sides and
therefore imports the fast modules locally.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from typing import Iterator, Sequence

from .core import (Cycle, ResolutionGraph, _times_a, build_graph,
                   canonical_cycle, chi, dual_cycle, intersection_form)
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
                nb_min = scale * sum(lo[w] for w in adj[j])
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
            nlo = lo.copy()
            nhi = hi.copy()
            nlo[i] = nhi[i] = value
            if propagate(nlo, nhi):
                yield from rec(i + 1, nlo, nhi)

    lo0 = list(lower)
    hi0 = list(upper)
    if propagate(lo0, hi0):
        yield from rec(0, lo0, hi0)


def _safe_upper(graph: ResolutionGraph, l: Cycle) -> tuple[int, ...]:
    """A box [0, upper]^V certain to contain an antinef element of l + L_{>=0}.

    x = sum_v E*_v pairs to -1 with every basis cycle; for t at least the
    maximum vertex degree plus max(l_v / x_v), the rounded-up cycle
    c_v = l_v + ceil(t x_v - l_v) stays antinef (the rounding perturbs each
    pairing by less than deg_v) and dominates l."""
    x = graph.zero_cycle()
    for v in graph.vertices:
        x = x + dual_cycle(graph, v)
    t = max(1, max(graph.degree(v) for v in graph.vertices))
    t += max([math.ceil(lv / xv) for lv, xv in zip(l.coeffs, x.coeffs)
              if lv > 0], default=0)
    return tuple(math.ceil(t * xv - lv) for xv, lv in zip(x.coeffs, l.coeffs))


def _certified_minimum(base: Cycle, cap: int, nonzero: bool) -> Cycle:
    """Minimum of (base + L_{>=0}) cap S' by exhaustive boxed search; with
    `nonzero`, of (base + L_{>=0} - {0}) cap S'.

    The first depth-first hit inside a provably hit-containing box is the
    lexicographic minimum, which coincides with the componentwise minimum
    whenever one exists; the claim is then certified by enumerating every
    hit below it and checking that their meet is the hit itself (meets of
    antinef cycles are antinef, so the certificate is complete)."""
    graph = base.graph
    zero = (0,) * len(graph.vertices)
    kind = "nonzero antinef element" if nonzero else "antinef element"

    def hits(upper: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        return (h for h in _antinef_hits(graph, base, zero, upper, cap)
                if h != zero or not nonzero)

    upper = _safe_upper(graph, base)
    first = next(hits(upper), None)
    if first is None:
        raise InvariantViolation(f"safe search box contained no {kind}",
                                 payload={"upper": upper})
    below = list(hits(first))
    meet = tuple(map(min, zip(*below)))
    if meet not in below:
        raise InvariantViolation(f"minimal {kind} is not unique",
                                 payload={"hits": sorted(below)})
    return base + graph.from_vector(meet)


def brute_min_antinef(l: Cycle, cap: int = DEFAULT_CAP) -> Cycle:
    """Minimum of (l + L_{>=0}) cap S', by `_certified_minimum`."""
    return _certified_minimum(l, cap, nonzero=False)


def brute_fundamental_cycle(graph: ResolutionGraph,
                            cap: int = DEFAULT_CAP) -> Cycle:
    """Minimum of S - {0}, by the same search from 0 (nonzero antinef
    cycles on a connected graph have full support, so the all-zero hit is
    simply skipped)."""
    return _certified_minimum(graph.zero_cycle(), cap, nonzero=True)


def _minus_a(graph: ResolutionGraph) -> list[list[int]]:
    """M = -A in vertex order, from the euler numbers and the edge list."""
    return [[-graph.euler[v] if v == w else -(frozenset((v, w)) in graph.edges)
             for w in graph.vertices] for v in graph.vertices]


def _own_ldl(matrix: Sequence[Sequence[int]]):
    # deliberately re-implemented here (not shared with the fast path)
    n = len(matrix)
    s = [[Fraction(x) for x in row] for row in matrix]
    d: list[Fraction] = []
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d.append(s[i][i])
        if d[i] <= 0:
            raise InvariantViolation("oracle LDL hit a non-positive pivot")
        for j in range(i + 1, n):
            u[i][j] = s[i][j] / d[i]
        for a in range(i + 1, n):
            for b in range(i + 1, n):
                s[a][b] -= d[i] * u[i][a] * u[i][b]
    return d, u


def _ellipsoid(graph: ResolutionGraph, lprime: Cycle, bound):
    """(b, R, d, u) for the set chi(l) + (l, l') <= bound: with M = -A and
    b = Z_K/2 + l', chi(l) + (l, l') = ((l-b)^T M (l-b) - b^T M b) / 2, so
    the set is the ellipsoid (l-b)^T M (l-b) <= R = 2*bound + b^T M b, empty
    when R < 0; M = U^T D U from `_own_ldl`."""
    m = _minus_a(graph)
    n = len(m)
    b = [c / 2 + p for c, p in zip(canonical_cycle(graph).coeffs,
                                    lprime.coeffs)]
    radius2 = 2 * Fraction(bound) + sum(
        b[i] * sum(m[i][j] * b[j] for j in range(n)) for i in range(n))
    return (b, radius2, *_own_ldl(m))


def _chi_sublevel(graph: ResolutionGraph, bound: Fraction, cap: int,
                  upper: tuple[int, ...] | None = None
                  ) -> tuple[list[tuple[Cycle, int]], int]:
    """All integral l >= 0 with chi(l) <= bound, each with chi(l) as a
    numerator over one denominator: returns ([(l, k)], den), chi(l) = k/den.
    With `upper` (integers in vertex order), only those with l <= upper.

    The sublevel set is the ellipsoid of `_ellipsoid` at l' = 0. It is walked
    coordinate by coordinate from the last one down (Fincke-Pohst), each
    coordinate's integer interval around its centre
    c_i = b_i - sum_{j>i} u_ij (l_j - b_j) read off the remaining budget.

    The walk runs on integers: with S the lcm of the denominators of the
    u_ij and b_j, and L that of the d_i and of R, it carries S^2 c_i,
    the weights L d_i and the budget scaled by L S^4, and takes each
    interval from one isqrt, cut to upper_i. Every rec call counts one
    visited node against `cap`, leaves included; the remaining budget at a
    leaf is (R - (l-b)^T M (l-b)) L S^4, so
    chi(l) = bound - remainder/(2 L S^4)."""
    n = len(graph.vertices)
    b, radius2, d, u = _ellipsoid(graph, graph.zero_cycle(), bound)
    if radius2 < 0:
        return [], 1
    s = math.lcm(*(x.denominator for x in b),
                 *(x.denominator for row in u for x in row))
    s2 = s * s
    lcm_l = math.lcm(radius2.denominator, *(x.denominator for x in d))
    scale = lcm_l * s2 * s2
    sb = [int(x * s) for x in b]
    su = [[int(x * s) for x in row] for row in u]
    centre = [x * s for x in sb]  # S^2 b_i
    weight = [int(x * lcm_l) for x in d]  # L d_i
    chi_den = 2 * scale
    top = int(chi_den * Fraction(bound))
    xs = [0] * n
    sx = [0] * n  # S l_j - S b_j for the assigned j
    out: list[tuple[Cycle, int]] = []
    visited = 0

    def rec(i: int, budget: int):
        nonlocal visited
        visited += 1
        if visited > cap:
            raise ResourceCapExceeded(
                f"chi sublevel enumeration exceeded its budget ({cap})")
        if i < 0:
            out.append((Cycle(graph, tuple(xs)), top - budget))
            return
        row = su[i]
        c = centre[i] - sum(row[j] * sx[j] for j in range(i + 1, n))
        w = weight[i]
        t = math.isqrt(budget // w)  # |S^2 x - c| <= t
        hi = (c + t) // s2 if upper is None else min((c + t) // s2, upper[i])
        for value in range(max(-((t - c) // s2), 0), hi + 1):
            xs[i] = value
            sx[i] = s * value - sb[i]
            e = s2 * value - c
            rec(i - 1, budget - w * e * e)

    rec(n - 1, int(radius2 * scale))
    return out, chi_den


def brute_min_chi(graph: ResolutionGraph,
                  cap: int = DEFAULT_CAP) -> tuple[Fraction, list[Cycle]]:
    """(min chi over integral l > 0, list of argmins).

    chi(E_v) = 1 for any vertex, so the minimum is at most 1 and the whole
    chi <= 1 sublevel set suffices; chi is read off the walk."""
    points, den = _chi_sublevel(graph, Fraction(1), cap)
    candidates = [(l, k) for l, k in points if not l.is_zero()]
    if not candidates:
        raise InvariantViolation("chi sublevel set missed the basis cycles")
    best = min(k for _, k in candidates)
    argmins = sorted((l for l, k in candidates if k == best),
                     key=lambda l: l.num)
    return Fraction(best, den), argmins


def brute_minimally_elliptic(graph: ResolutionGraph,
                             cap: int = DEFAULT_CAP) -> Cycle:
    """Unique minimum of {0 < l <= Z_min : chi(l) = 0}, by direct search:
    the chi <= 0 locus is a finite ellipsoid, walked only below the
    oracle's own Z_min (integral, so its numerators are its coefficients)."""
    zmin = brute_fundamental_cycle(graph, cap)
    points, _ = _chi_sublevel(graph, Fraction(0), cap, zmin.num)
    hits = [l for l, k in points if k == 0 and not l.is_zero()]
    if not hits:
        raise UserError("no nonzero cycle with chi = 0 below the fundamental "
                        "cycle (graph is not elliptic)")
    minima = [h for h in hits if all(h <= other for other in hits)]
    if len(minima) != 1:
        raise InvariantViolation(
            "minimally elliptic cycle is not a unique minimum",
            payload={"hits": sorted(h.coeffs for h in hits)})
    return minima[0]


def brute_antinef_sublevel(graph: ResolutionGraph, lprime: Cycle,
                           bound) -> list[Cycle]:
    """All integral l >= 0 with l - l' antinef and chi(l) + (l, l') <= bound.

    The set lies in the bounding box |l_i - b_i|^2 <= R (M^{-1})_ii of the
    ellipsoid of `_ellipsoid`. That box, cut to l >= 0, is searched by
    `_antinef_hits` with base -l', and the hits filtered by the value."""
    n = len(graph.vertices)
    b, radius2, d, u = _ellipsoid(graph, lprime, bound)
    if radius2 < 0:
        return []
    # (M^{-1})_ii = sum_k w_k^2 / d_k with M = U^T D U and U^T w = e_i
    lower, upper = [], []
    for i in range(n):
        w = [Fraction(0)] * n
        for k in range(i, n):
            w[k] = int(k == i) - sum(u[j][k] * w[j] for j in range(i, k))
        r2 = radius2 * sum(wk * wk / dk for wk, dk in zip(w, d))
        # integers x with (q x - p)^2 <= q^2 r2, for b_i = p / q
        p, q = b[i].numerator, b[i].denominator
        t = math.isqrt(math.floor(q * q * r2))
        lower.append(max(0, -((t - p) // q)))
        upper.append((p + t) // q)
        if lower[-1] > upper[-1]:
            return []
    hits = (graph.from_vector(z) for z in
            _antinef_hits(graph, -lprime, lower, upper, DEFAULT_CAP))
    return [l for l in hits if chi(l) + intersection_form(l, lprime) <= bound]


def brute_lemci(graph: ResolutionGraph, cap: int = DEFAULT_CAP) -> list[Cycle]:
    """{l' in S' : [l'] = [Z_K], 0 <= l' <= Z_K}, by direct box search.

    Any such l' has the same fractional parts as Z_K, hence lies in
    frac(Z_K) + [0, floor(Z_K)]^V."""
    zk = canonical_cycle(graph)
    frac = zk - zk.floor()
    upper = [int(c) for c in zk.floor().coeffs]
    return sorted((frac + graph.from_vector(z) for z in
                   _antinef_hits(graph, frac, [0] * len(upper), upper, cap)),
                  key=lambda c: c.coeffs)


def _connected_subsets(graph: ResolutionGraph) -> Iterator[tuple[str, ...]]:
    """Every nonempty connected vertex subset of the tree, each once.

    The subsets whose least vertex is r grow from (r,): the first vertex on
    the frontier (the undecided neighbours above r) is either barred for
    good or taken, when its other neighbours above r, new in a tree, join
    the frontier. An explicit stack keeps the depth flat."""
    rank = {v: i for i, v in enumerate(graph.vertices)}
    adj = graph.adjacency
    for r in graph.vertices:
        stack = [((r,), tuple((w, r) for w in adj[r] if rank[w] > rank[r]))]
        while stack:
            members, frontier = stack.pop()
            if not frontier:
                yield members
                continue
            (v, came_from), rest = frontier[0], frontier[1:]
            stack.append((members, rest))
            stack.append((members + (v,), rest + tuple(
                (w, v) for w in adj[v] if w != came_from and rank[w] > rank[r])))


def brute_subsupports(graph: ResolutionGraph) -> list[frozenset[str]]:
    """All nonempty connected vertex subsets whose full subgraph has an
    integral canonical cycle with full support. The subsets are counted
    before any subgraph is built, so a refusal costs one bounded count."""
    beyond = itertools.islice(_connected_subsets(graph), SUBSET_BUDGET, None)
    if next(beyond, None) is not None:
        raise ResourceCapExceeded(f"subsupport oracle refuses graphs with "
                                  f"over {SUBSET_BUDGET} connected subsets")
    hits = []
    for members in map(frozenset, _connected_subsets(graph)):
        zk = canonical_cycle(build_graph({
            "vertices": [(v, graph.euler[v]) for v in members],
            "edges": [tuple(e) for e in graph.edges if e <= members]}))
        if zk.is_integral() and zk.support() == members:
            hits.append(members)
    return sorted(hits, key=lambda s: (-len(s), sorted(s)))


def _pruefer_edges(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    seq_list = list(seq)
    leaves = sorted(i for i in range(n) if degree[i] == 1)
    for x in seq_list:
        leaf = leaves.pop(0)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            # keep the leaf pool sorted so the construction is deterministic
            bisect.insort(leaves, x)
    edges.append((leaves[0], leaves[1]))
    return edges


def _centres(adj: dict[int, list[int]]) -> list[int]:
    """The one or two centres of a tree: what is left after peeling its
    leaves layer by layer."""
    degree = {v: len(ws) for v, ws in adj.items()}
    layer = [v for v, d in degree.items() if d <= 1]
    left = len(adj)
    while left > 2:
        left -= len(layer)
        peeled = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    peeled.append(w)
        layer = peeled
    return layer


def _canonical_form(adj: dict[int, list[int]], labels: Sequence[int],
                    centres: Sequence[int] | None = None):
    """Isomorphism-invariant form of a labelled tree: the minimum over its
    centres of the recursive (label, sorted child forms) encoding. An
    isomorphism maps centres to centres, so this is as complete as the
    minimum over all roots (Aho-Hopcroft-Ullman tree coding)."""

    def rooted(v: int, parent: int):
        return (labels[v], tuple(sorted(rooted(w, v)
                                        for w in adj[v] if w != parent)))

    return min(rooted(v, -1) for v in (centres or _centres(adj)))


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
    shapes = []
    seen = set()
    for seq in itertools.product(range(n), repeat=n - 2):
        count()
        adj: dict[int, list[int]] = {i: [] for i in range(n)}
        for u, v in _pruefer_edges(seq, n):
            adj[u].append(v)
            adj[v].append(u)
        key = _canonical_form(adj, [0] * n)
        if key not in seen:
            seen.add(key)
            shapes.append(adj)
            if len(shapes) == total:
                break
    return shapes


def enumerate_trees(max_vertices: int, euler_range,
                    cap: int = DEFAULT_CAP) -> Iterator[ResolutionGraph]:
    """All non-isomorphic negative-definite weighted trees with at most
    max_vertices vertices and euler numbers from euler_range. Each Pruefer
    sequence scanned and each euler assignment walked counts one against
    `cap`."""
    euler_values = sorted(set(euler_range))
    if not euler_values or any(not isinstance(e, int) or e > -1
                               for e in euler_values):
        raise UserError("euler_range must be a nonempty set of integers <= -1")
    scanned = 0

    def count() -> None:
        nonlocal scanned
        scanned += 1
        if scanned > cap:
            raise ResourceCapExceeded(
                f"tree enumeration exceeded cap {cap} (Pruefer sequences "
                f"and euler assignments scanned)")

    for n in range(1, max_vertices + 1):
        names = [f"v{i + 1}" for i in range(n)]
        for adj in _tree_shapes(n, count):
            centres = _centres(adj)
            edges = [(names[u], names[v]) for u in adj for v in adj[u] if u < v]
            seen = set()
            for assignment in itertools.product(euler_values, repeat=n):
                count()
                key = _canonical_form(adj, assignment, centres)
                if key in seen:
                    continue
                seen.add(key)
                try:
                    yield build_graph({"vertices": list(zip(names, assignment)),
                                       "edges": edges})
                except GraphValidationError as exc:
                    if exc.diagnostic != "not-negative-definite":
                        raise


def _expect(report: dict, name: str, fast, brute):
    if fast != brute:
        raise InvariantViolation(
            f"oracle disagreement: {name}",
            payload={"fast": fast, "brute": brute})
    report[name] = "ok"


def verify(graph: ResolutionGraph, cap: int = DEFAULT_CAP) -> dict[str, str]:
    """Run every oracle against its fast counterpart on one graph.

    Returns {check name: "ok" | "skipped: reason"}; raises
    InvariantViolation on any disagreement."""
    # local imports: verify is the only place the oracle side may look at
    # the fast path, and only to compare against it
    from .laufer import (antinef_lift, classify, cube_representative,
                         fundamental_cycle, minimal_class_representative)

    report: dict[str, str] = {}

    def check(name: str, fast_fn, brute_fn) -> None:
        try:
            _expect(report, name, fast_fn(), brute_fn())
        except ResourceCapExceeded as exc:
            report[name] = f"skipped: {exc}"

    n = len(graph.vertices)
    ones = graph.from_vector([1] * n)
    fast_lift, trace = antinef_lift(ones)
    if not trace.replay():
        raise InvariantViolation("computation sequence trace does not replay")
    check("antinef-lift", lambda: fast_lift,
          lambda: brute_min_antinef(ones, cap))
    check("fundamental-cycle", lambda: fundamental_cycle(graph),
          lambda: brute_fundamental_cycle(graph, cap))
    zk = canonical_cycle(graph)
    check("class-representative",
          lambda: minimal_class_representative(zk),
          lambda: brute_min_antinef(cube_representative(zk), cap))
    cls = classify(graph)
    check("classification", lambda: cls.kind,
          lambda: ("rational" if (v := brute_min_chi(graph, cap)[0]) == 1
                   else "elliptic" if v == 0 else "other"))
    if cls.kind == "elliptic" and graph.is_minimal():
        from .ellseq import (antinef_in_class_below_ZK, elliptic_sequence,
                             minimally_elliptic_cycle,
                             numerically_gorenstein_subsupports)
        check("minimally-elliptic",
              lambda: minimally_elliptic_cycle(graph),
              lambda: brute_minimally_elliptic(graph, cap))
        check("antinef-below-canonical",
              lambda: antinef_in_class_below_ZK(graph),
              lambda: brute_lemci(graph, cap))
        check("gorenstein-subsupports",
              lambda: numerically_gorenstein_subsupports(graph),
              lambda: brute_subsupports(graph))
        elliptic_sequence(graph).validate()
        report["elliptic-sequence"] = "ok"
    return report
