"""Elliptic sequences and their derived cycles.

The sequence is built uniformly: the pre-term is s_{[Z_K]} (zero exactly in
the numerically Gorenstein case), and the supports B_0 ⊋ ... ⊋ B_m are the
supports of the successive residuals of Z_K, each carrying the fundamental
cycle of its full subgraph. Enumerative consequences (the antinef cycles in
[Z_K] below Z_K, and the numerically Gorenstein connected subsupports) are
computed by direct bounded search and cross-asserted against the sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (Cycle, ResolutionGraph, canonical_cycle, chi,
                   intersection_form, is_numerically_gorenstein)
from .errors import InvariantViolation, ResourceCapExceeded, UserError
from .laufer import (cube_representative, fundamental_cycle,
                     minimal_class_representative, require_elliptic_minimal)

__all__ = [
    "EllipticSequence",
    "elliptic_sequence",
    "minimally_elliptic_cycle",
    "partial_sums",
    "antinef_in_class_below_ZK",
    "numerically_gorenstein_subsupports",
    "pg_table",
]

SUBSUPPORT_VERTEX_CAP = 14


@dataclass(frozen=True)
class EllipticSequence:
    """pre_term = s_{[Z_K]} (the cycle Z_{B_{-1}}), supports [B_0..B_m],
    fundamental cycles [Z_{B_0}..Z_{B_m}] lifted to the full graph."""

    graph: ResolutionGraph
    pre_term: Cycle
    supports: tuple[frozenset[str], ...]
    fundamental_cycles: tuple[Cycle, ...]

    @property
    def m(self) -> int:
        return len(self.supports) - 1

    @property
    def length(self) -> int:
        return len(self.supports)

    def support_at(self, j: int) -> frozenset[str]:
        """B_j with the conventions B_{-1} = full vertex set and
        B_{m+1} = empty set."""
        if j <= -1:
            return frozenset(self.graph.vertices)
        if j > self.m:
            return frozenset()
        return self.supports[j]

    def cycle_at(self, j: int) -> Cycle:
        """Z_{B_j}, with Z_{B_{-1}} = pre_term."""
        if j == -1:
            return self.pre_term
        return self.fundamental_cycles[j]

    def validate(self) -> None:
        """Assert every structural invariant; raises InvariantViolation."""
        g = self.graph
        zk = canonical_cycle(g)
        total = self.pre_term
        for zb in self.fundamental_cycles:
            total = total + zb
        if total != zk:
            raise InvariantViolation("elliptic sequence does not sum to Z_K")
        if (self.pre_term.is_zero()) != is_numerically_gorenstein(g):
            raise InvariantViolation(
                "pre-term must vanish exactly in the numerically Gorenstein case")
        if not self.pre_term.is_zero() and chi(self.pre_term) != 0:
            raise InvariantViolation("chi(pre_term) must vanish when nonzero")
        previous = None
        for j, (b, zb) in enumerate(zip(self.supports, self.fundamental_cycles)):
            if previous is not None and not (b < previous):
                raise InvariantViolation(f"B_{j} is not strictly inside B_{j - 1}")
            if zb.support() != b:
                raise InvariantViolation(f"Z_B_{j} support differs from B_{j}")
            if chi(zb) != 0:
                raise InvariantViolation(f"chi(Z_B_{j}) != 0")
            previous = b
        # orthogonality: (E_v, Z_{B_j}) = 0 for v in B_{j+1}, -1 <= j < m
        for j in range(-1, self.m):
            zb = self.cycle_at(j)
            for v in self.support_at(j + 1):
                if intersection_form(zb, g.basis_cycle(v)) != 0:
                    raise InvariantViolation(
                        f"orthogonality fails: (E_{v}, Z_B_{j}) != 0")


def elliptic_sequence(graph: ResolutionGraph) -> EllipticSequence:
    """Build and validate the elliptic sequence (elliptic, minimal graphs)."""
    require_elliptic_minimal(graph)
    zk = canonical_cycle(graph)
    pre = minimal_class_representative(zk)
    supports: list[frozenset[str]] = []
    cycles: list[Cycle] = []
    running = pre
    while running != zk:
        residual = zk - running
        if not residual.is_effective():
            raise InvariantViolation("elliptic sequence residual not effective")
        b = residual.support()
        if supports and not (b < supports[-1]):
            raise InvariantViolation("elliptic sequence supports do not shrink")
        sub = graph.subgraph(b)
        zb = graph.embed(fundamental_cycle(sub))
        supports.append(b)
        cycles.append(zb)
        running = running + zb
    seq = EllipticSequence(graph=graph, pre_term=pre,
                           supports=tuple(supports),
                           fundamental_cycles=tuple(cycles))
    seq.validate()
    return seq


def minimally_elliptic_cycle(graph: ResolutionGraph) -> Cycle:
    """C = Z_{B_m}: the unique minimal nonzero cycle with chi = 0."""
    return elliptic_sequence(graph).fundamental_cycles[-1]


def partial_sums(seq: EllipticSequence, t: int) -> tuple[Cycle, Cycle]:
    """(C_t, C'_t) with C_t = sum_{i<=t} Z_{B_i} and C'_t = sum_{i>=t} Z_{B_i}
    (both sums including the pre-term at index -1); -1 <= t <= m.

    C_t lies in the class [Z_K], and is fractional when the graph is not
    numerically Gorenstein (C_{-1} = s_{[Z_K]} is then nonzero). The
    integral fixed-component cycles are C_t - C_{-1}; they pair with the
    Chern class -C_{-1}."""
    if not -1 <= t <= seq.m:
        raise UserError(f"t must lie in [-1, {seq.m}], got {t}")
    c = seq.pre_term
    for i in range(0, t + 1):
        c = c + seq.fundamental_cycles[i]
    cp = seq.graph.zero_cycle() if t >= 0 else seq.pre_term
    for i in range(max(t, 0), seq.m + 1):
        cp = cp + seq.fundamental_cycles[i]
    return c, cp


def _enumerate_below(graph: ResolutionGraph, upper: Cycle, base: Cycle,
                     cap: int) -> list[Cycle]:
    """All antinef cycles of the form base + z (z integral >= 0) lying below
    `upper`, by depth-first search with early antinef pruning.

    Vertices are assigned in graph order. Pruning uses partial pairings:
    once the coefficient at a vertex is assigned, the antinef inequality
    there is monotone increasing in every still-unassigned neighbour, so the
    running partial sum caps each later neighbour directly; the inequality
    at the vertex being assigned yields a lower bound the same way. `cap`
    bounds the number of visited search nodes, not the raw box volume."""
    g = graph.vertices
    n = len(g)
    euler = [graph.euler[v] for v in g]
    adj = graph._neighbours
    earlier = [[j for j in adj[i] if j < i] for i in range(n)]
    lows = [base.coefficient(v) for v in g]
    steps = []
    for v, lo in zip(g, lows):
        hi = upper.coefficient(v)
        span = hi - lo
        if span < 0:
            return []
        steps.append(int(span))
    # partial[j] = pairing of the assignment with E_j, unassigned
    # coordinates counted at their lower bound
    partial = [euler[j] * lows[j] + sum(lows[w] for w in adj[j])
               for j in range(n)]
    coeffs: list[Fraction] = list(lows)
    found: list[Cycle] = []
    visited = 0

    def rec(i: int):
        nonlocal visited
        visited += 1
        if visited > cap:
            raise ResourceCapExceeded(
                f"bounded antinef enumeration exceeded its budget ({cap})")
        if i == n:
            found.append(graph.from_vector(coeffs))
            return
        # need euler[i] * (lows[i] + step) + rest <= 0
        rest = partial[i] - euler[i] * lows[i]
        lo_step = 0
        need = (rest / (-euler[i])) - lows[i]
        if need > 0:
            lo_step = math.ceil(need)
        hi_step = steps[i]
        for j in earlier[i]:
            room = -partial[j]
            if room < hi_step:
                hi_step = math.floor(room)
        for step in range(lo_step, hi_step + 1):
            coeffs[i] = lows[i] + step
            partial[i] += euler[i] * step
            for j in adj[i]:
                partial[j] += step
            rec(i + 1)
            partial[i] -= euler[i] * step
            for j in adj[i]:
                partial[j] -= step
        coeffs[i] = lows[i]

    rec(0)
    return found


def antinef_in_class_below_ZK(graph: ResolutionGraph,
                              cap: int = 10 ** 7) -> list[Cycle]:
    """{l' in S' : [l'] = [Z_K], 0 <= l' <= Z_K}, by direct bounded search;
    asserts the result is exactly {C_{-1}, ..., C_m}."""
    seq = elliptic_sequence(graph)
    zk = canonical_cycle(graph)
    base = cube_representative(zk)
    found = _enumerate_below(graph, zk, base, cap)
    expected = {partial_sums(seq, t)[0] for t in range(-1, seq.m + 1)}
    if set(found) != expected:
        raise InvariantViolation(
            "antinef cycles in [Z_K] below Z_K differ from {C_t}",
            payload={"found": found, "expected": sorted_cycles(expected)})
    return sorted_cycles(found)


def sorted_cycles(cycles) -> list[Cycle]:
    return sorted(cycles, key=lambda c: c.coeffs)


def _connected_subsets(graph: ResolutionGraph) -> list[frozenset[str]]:
    n = len(graph.vertices)
    index = graph._index
    out: list[frozenset[str]] = []
    for mask in range(1, 1 << n):
        members = [graph.vertices[i] for i in range(n) if mask >> i & 1]
        seen = {members[0]}
        stack = [members[0]]
        member_set = set(members)
        while stack:
            for w in graph.adjacency[stack.pop()]:
                if w in member_set and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == len(members):
            out.append(frozenset(members))
    return out


def numerically_gorenstein_subsupports(
        graph: ResolutionGraph,
        vertex_cap: int = SUBSUPPORT_VERTEX_CAP) -> list[frozenset[str]]:
    """All nonempty connected full subgraphs whose own canonical cycle is
    integral with full support; asserts the result equals {B_0, ..., B_m}.

    The full-support requirement excludes subgraphs with vanishing or
    partially supported canonical cycle (e.g. ADE configurations, where
    Z_K = 0 is trivially integral): the universal property is about
    subgraphs genuinely carrying their canonical cycle."""
    seq = elliptic_sequence(graph)
    if len(graph.vertices) > vertex_cap:
        raise ResourceCapExceeded(
            f"subsupport enumeration refuses graphs over {vertex_cap} vertices")

    def qualifies(s: frozenset[str]) -> bool:
        sub = graph.subgraph(s)
        zk = canonical_cycle(sub)
        return zk.is_integral() and zk.support() == s

    hits = [s for s in _connected_subsets(graph) if qualifies(s)]
    if set(hits) != set(seq.supports):
        raise InvariantViolation(
            "numerically Gorenstein subsupports differ from the sequence "
            "supports", payload={"found": hits, "expected": seq.supports})
    return sorted(hits, key=lambda s: (-len(s), sorted(s)))


def pg_table(seq: EllipticSequence, alpha: int) -> list[dict]:
    """Rows (j, p_g of the j-th contraction) for 0 <= j <= m+1; when
    alpha = 0 the Gorenstein cohomology columns are included as well."""
    if not 0 <= alpha <= seq.m:
        raise UserError(f"alpha must lie in [0, {seq.m}], got {alpha}")
    rows = []
    m = seq.m
    for j in range(0, m + 2):
        row = {"j": j, "pg_Xj": m + 1 - max(j, alpha)}
        if alpha == 0 and j <= m:
            row["h1_O_Cprime_j"] = m - j + 1
            row["h1_O_C_j"] = j + 1
            row["h1_O_minus_C_j"] = m - j
        rows.append(row)
    return rows
