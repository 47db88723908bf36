"""Computation sequences and the minimal antinef machinery.

Implements the generalized Laufer algorithm: for any rational cycle l the
sequence z_0 = l, z_{i+1} = z_i + E_{v(i)} with (z_i, E_{v(i)}) > 0 reaches
the unique minimal element s(l) of (l + L_{>=0}) cap S'. From it: the
fundamental cycle Z_min, cube representatives r_h, minimal class
representatives s_h, and the rational / elliptic classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterable, Sequence

from .core import (Cycle, ResolutionGraph, _antinef_cover, _times_a,
                   intersection_form)
from .errors import InvariantViolation, UserError, quote

__all__ = [
    "ComputationTrace",
    "Classification",
    "antinef_lift",
    "fundamental_cycle",
    "cube_representative",
    "minimal_class_representative",
    "classify",
]


@dataclass(frozen=True)
class ComputationTrace:
    """Replayable record of a computation sequence, as runs.

    Each run (v, k) adds k >= 1 unit steps E_v; result = start + sum of
    k E_v over the runs, and at each unit step the running cycle pairs
    positively with the vertex added."""

    start: Cycle
    runs: tuple[tuple[str, int], ...]
    result: Cycle

    @property
    def steps(self) -> tuple[str, ...]:
        """The unit steps, one vertex each, in order."""
        return tuple(chain.from_iterable(repeat(v, k) for v, k in self.runs))

    def replay(self) -> bool:
        """Re-run the sequence and confirm every unit step was legal. The
        pairing with E_v falls by |e_v| at each unit step of a run (v, k),
        so the run is legal iff its last unit step is:
        (z, E_v) + (k - 1) e_v > 0."""
        z = self.start
        g = z.graph
        for v, k in self.runs:
            e = g.basis_cycle(v)
            if k < 1 or intersection_form(z, e) + (k - 1) * g.euler[v] <= 0:
                return False
            z = z + k * e
        return z == self.result


@dataclass(frozen=True)
class Classification:
    """Graph class by chi(Z_min): rational (1), elliptic (0), other."""

    kind: str
    chi_zmin: Fraction
    zmin: Cycle


def antinef_lift(l: Cycle, support: Iterable[str] | None = None
                 ) -> tuple[Cycle, ComputationTrace]:
    """s(l): unique minimal element of (l + L_{>=0}) cap S'.

    With a `support` B only the vertices of B are eligible: for l
    supported on B, that is the lift on the full subgraph on B. The steps
    are `_lift`'s, recorded as a replayable trace."""
    g = l.graph
    if support is None:
        members = range(len(g.vertices))
    elif unknown := set(support) - g._index.keys():
        raise UserError(f"unknown vertex in support: {quote(min(unknown))}")
    else:
        members = sorted(g._index[v] for v in support)
    z, runs, _ = _lift(g, l.num, l.den, members)
    result = Cycle(g, tuple(z), l.den)
    return result, ComputationTrace(start=l, runs=tuple(runs), result=result)


def _lift(g: ResolutionGraph, num: tuple[int, ...], scale: int,
          members: Sequence[int]) -> tuple[list[int], list, list[int]]:
    """The lift of l = num / scale over the vertex indices `members`: the
    numerators of s(l) over `scale`, the runs, and the pairings
    scale * (s(l), E_v).

    Sweeps visit the members in vertex order until one adds nothing; at v
    with (z, E_v) = p > 0 a visit adds ceil(p/|e_v|) legal unit steps E_v
    at once. They stay below s(l): s(l) - z = c E_v + y with y >= 0 off
    v, so 0 >= (s(l), E_v) >= p + c e_v. The steps run on the integer
    numerators of l over its denominator."""
    z = list(num)
    pair = _times_a(g, z)
    euler = [g.euler[v] * scale for v in g.vertices]
    runs: list[tuple[str, int]] = []
    count = 0  # the unit steps so far
    # a cheap first guard; a lift that reaches it computes the true bound
    guard = (2 * g.det * (max(map(abs, z)) // scale + 1) + 1) * len(z)
    bounded = False
    swept = False
    while not swept:
        swept = True
        for i in members:
            if pair[i] <= 0:
                continue
            k = -(pair[i] // euler[i])
            if count + k > guard and not bounded:
                guard, bounded = _step_bound(Cycle(g, num, scale)), True
            if count + k > guard:
                raise InvariantViolation(
                    "computation sequence exceeded its termination guard; "
                    "the graph data violates negative definiteness")
            runs.append((g.vertices[i], k))
            count += k
            z[i] += k * scale
            pair[i] += k * euler[i]
            for j in g._neighbours[i]:
                pair[j] += k * scale
            swept = False
    return z, runs, pair


def _step_bound(l: Cycle) -> int:
    """An upper bound on the steps of the lift of l: sum_v (y_v - l_v) for
    the antinef y = l + `core._antinef_cover(l)` in l + L_{>=0}, since no
    step passes such a y.

    It also bounds a lift restricted to a support B, as y' = l + (y - l)|_B
    is antinef on B: for v in B, (y', E_v) = (y, E_v) - sum_{w not in B}
    (y_w - l_w)(E_w, E_v) <= (y, E_v), so no step on B passes y'."""
    return sum(_antinef_cover(l))


def fundamental_cycle(graph: ResolutionGraph) -> Cycle:
    """Z_min = min(S - {0}), computed as s(sum_v E_v); valid because every
    nonzero antinef cycle on a connected graph has full support. It is
    `classify(graph).zmin`: the classification lifts sum_v E_v."""
    return classify(graph).zmin


def cube_representative(l: Cycle) -> Cycle:
    """r_h: the componentwise fractional part of l (coefficients in [0,1))."""
    return l - l.floor()


def minimal_class_representative(l: Cycle) -> Cycle:
    """s_h: unique minimal antinef cycle in the class h = [l]; s_0 = 0,
    as 0 is antinef."""
    r = cube_representative(l)
    return r if r.is_zero() else antinef_lift(r)[0]


def classify(graph: ResolutionGraph) -> Classification:
    """rational iff chi(Z_min) = 1, elliptic iff chi(Z_min) = 0, otherwise
    "other" carrying the value. Memoized on the graph. Z_min = s(sum_v E_v)
    and chi(Z_min) comes off the lift's pairings p_v = (Z_min, E_v) by
    adjunction, 2 chi(z) = sum_v z_v (e_v + 2 - p_v); the pivots are -e_v."""
    if graph._classification is None:
        n = len(graph.vertices)
        z, _, pair = _lift(graph, (1,) * n, 1, range(n))
        zmin = Cycle(graph, tuple(z))
        value = Fraction(sum(c * (2 - q - p) for c, q, p
                             in zip(z, graph._pivots, pair)), 2)
        kind = ("rational" if value == 1 else "elliptic" if value == 0
                else "other")
        graph._classification = Classification(kind, value, zmin)
    return graph._classification


def require_elliptic_minimal(graph: ResolutionGraph) -> Classification:
    """Shared precondition check for the elliptic-sequence consumers."""
    if not graph.is_minimal():
        raise UserError(
            "operation requires a minimal resolution graph (all euler "
            "numbers <= -2)")
    cls = classify(graph)
    if cls.kind != "elliptic":
        raise UserError(f"operation requires an elliptic graph, got {cls.kind}")
    return cls
