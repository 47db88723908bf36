"""Elliptic sequences and their derived cycles.

The sequence is built uniformly: the pre-term is s_{[Z_K]} (zero exactly in
the numerically Gorenstein case), and the supports B_0 ⊋ ... ⊋ B_m are the
supports of the successive residuals of Z_K, each carrying the fundamental
cycle of its full subgraph. The sequence also fixes two enumerative sets,
which are read off it rather than searched for: the antinef cycles in [Z_K]
below Z_K are the partial sums C_{-1}, ..., C_m, and the numerically
Gorenstein connected subsupports are B_0, ..., B_m. The brute-force oracles
`oracle.brute_lemci` and `oracle.brute_subsupports` recompute both sets
independently, and `oracle.verify` checks them against these.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .core import (Cycle, ResolutionGraph, _times_a, canonical_cycle, chi,
                   is_numerically_gorenstein)
from .errors import InvariantViolation, UserError, quote
from .laufer import (antinef_lift, minimal_class_representative,
                     require_elliptic_minimal)

__all__ = [
    "EllipticSequence",
    "elliptic_sequence",
    "partial_sums",
    "antinef_in_class_below_ZK",
    "numerically_gorenstein_subsupports",
    "pg_table",
]

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

    @cached_property
    def sums(self) -> tuple[Cycle, ...]:
        """The partial sums (C_{-1}, C_0, ..., C_m), C_t = sum_{i<=t} Z_{B_i}
        with the pre-term at index -1, kept once derived from the cycles."""
        return tuple(itertools.accumulate(self.fundamental_cycles,
                                          initial=self.pre_term))

    @cached_property
    def depths(self) -> dict[str, int]:
        """{v: max{j : v in B_j}} in vertex order, -1 outside B_0; the
        supports are nested, so this counts the B_j holding v."""
        return {v: sum(v in b for b in self.supports) - 1
                for v in self.graph.vertices}

    def pg(self, alpha: int, j: int = 0) -> int:
        """p_g of the j-th contraction for the minimal Gorenstein index
        0 <= alpha <= m, an int; j = 0 gives p_g itself, m + 1 - alpha."""
        if type(alpha) is not int or not 0 <= alpha <= self.m:
            raise UserError(
                f"alpha must lie in [0, {self.m}], got {quote(alpha)}")
        return self.m + 1 - max(j, alpha)

    def validate(self) -> None:
        """Assert every structural invariant, reading C_m off `sums` and the
        pairings of Z_{B_j} off one A Z_{B_j}; raises InvariantViolation."""
        g = self.graph
        if self.sums[-1] != canonical_cycle(g):
            raise InvariantViolation("elliptic sequence does not sum to Z_K")
        if (self.pre_term.is_zero()) != is_numerically_gorenstein(g):
            raise InvariantViolation(
                "pre-term must vanish exactly in the numerically Gorenstein case")
        if not self.pre_term.is_zero() and chi(self.pre_term) != 0:
            raise InvariantViolation("chi(pre_term) must vanish when nonzero")
        for j, (b, zb) in enumerate(zip(self.supports, self.fundamental_cycles)):
            if j and not b < self.supports[j - 1]:
                raise InvariantViolation(f"B_{j} is not strictly inside B_{j - 1}")
            if zb.support() != b:
                raise InvariantViolation(f"Z_B_{j} support differs from B_{j}")
            if chi(zb) != 0:
                raise InvariantViolation(f"chi(Z_B_{j}) != 0")
        # orthogonality: (E_v, Z_{B_j}) = 0 for v in B_{j+1}, -1 <= j < m
        for j in range(-1, self.m):
            pairings = _times_a(g, self.cycle_at(j).num)
            for v in self.support_at(j + 1):
                if pairings[g._index[v]]:
                    raise InvariantViolation(
                        f"orthogonality fails: (E_{v}, Z_B_{j}) != 0")


def elliptic_sequence(graph: ResolutionGraph) -> EllipticSequence:
    """Build and validate the elliptic sequence (elliptic, minimal graphs).
    Z_{B_j} is the lift of sum_{v in B_j} E_v with support B_j; on
    B_0 = V that lift is Z_min, read off the graph's classification."""
    zmin = require_elliptic_minimal(graph).zmin
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
        if len(b) == len(graph.vertices):
            zb = zmin
        else:
            ones = Cycle(graph, tuple(int(v in b) for v in graph.vertices))
            zb = antinef_lift(ones, support=b)[0]
        supports.append(b)
        cycles.append(zb)
        running = running + zb
    seq = EllipticSequence(graph=graph, pre_term=pre,
                           supports=tuple(supports),
                           fundamental_cycles=tuple(cycles))
    seq.validate()
    return seq


def partial_sums(seq: EllipticSequence, t: int) -> tuple[Cycle, Cycle]:
    """(C_t, C'_t) with C_t = sum_{i<=t} Z_{B_i} and C'_t = sum_{i>=t} Z_{B_i}
    (both sums including the pre-term at index -1); -1 <= t <= m.

    Both are read off `seq.sums`, as C'_t = Z_K - C_{t-1}. C_t lies in [Z_K],
    and is fractional when the graph is not numerically Gorenstein (C_{-1} =
    s_{[Z_K]} is then nonzero). The integral fixed-component cycles are
    C_t - C_{-1}; they pair with the Chern class -C_{-1}."""
    if not -1 <= t <= seq.m:
        raise UserError(f"t must lie in [-1, {seq.m}], got {t}")
    sums = seq.sums
    return sums[t + 1], (sums[-1] - sums[t] if t >= 0 else sums[-1])


def antinef_in_class_below_ZK(graph: ResolutionGraph) -> list[Cycle]:
    """{l' in S' : [l'] = [Z_K], 0 <= l' <= Z_K}, read off the sequence as
    the partial sums [C_{-1}, ..., C_m] (increasing, so also sorted by
    coefficients). `oracle.brute_lemci` recomputes this set by box search,
    and `oracle.verify` compares the two."""
    return list(elliptic_sequence(graph).sums)


def numerically_gorenstein_subsupports(
        graph: ResolutionGraph) -> list[frozenset[str]]:
    """All nonempty connected full subgraphs whose own canonical cycle is
    integral with full support, read off the sequence as its supports
    [B_0, ..., B_m] (largest first). `oracle.brute_subsupports` recomputes
    this set over all connected vertex subsets, and `oracle.verify`
    compares the two.

    The full-support requirement excludes subgraphs with vanishing or
    partially supported canonical cycle (e.g. ADE configurations, where
    Z_K = 0 is trivially integral): the universal property is about
    subgraphs genuinely carrying their canonical cycle."""
    return list(elliptic_sequence(graph).supports)


def pg_table(seq: EllipticSequence, alpha: int) -> list[dict]:
    """Rows (j, p_g of the j-th contraction) for 0 <= j <= m+1; when
    alpha = 0 the Gorenstein cohomology columns are included as well."""
    rows = []
    m = seq.m
    for j in range(0, m + 2):
        row = {"j": j, "pg_Xj": seq.pg(alpha, j)}
        if alpha == 0 and j <= m:
            row["h1_O_Cprime_j"] = m - j + 1
            row["h1_O_C_j"] = j + 1
            row["h1_O_minus_C_j"] = m - j
        rows.append(row)
    return rows
