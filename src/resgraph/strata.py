"""Numeric Brill-Noether machinery over the elliptic sequence.

Everything here is the combinatorial shadow of the analytic stratification:
the W-strata report (the reduction index, h1 on the image and the
stratification dimension table), candidate fixed-component cycles, and the
solver for the compatibility system

    (i)  l >= 0 integral, l' - l antinef-negative,
    (ii) k + chi(l) + (l, l') = pg - dim V(I(l' - l)),
    (iii) exclusion of candidates whose subspace is already indexed at a
          higher level, decided through the declared trivializable set T.

The solver is three steps: the W-strata report (`w_strata`) gives p_g and
the levels to fill, the candidate walk (`quadform.antinef_points`) gives
every l of (i) with its slack, and `strata_index_sets` levels them by (ii)
and applies (iii). The analytic inputs are exactly alpha (the minimal
Gorenstein index) and T.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (Cycle, estar_coordinates, estar_support, intersection_form,
                   is_antinef, is_numerically_gorenstein)
from .ellseq import EllipticSequence
from .errors import InvariantViolation, UserError, quote
from .quadform import antinef_points

__all__ = [
    "AnalyticParams",
    "StrataEntry",
    "StrataReport",
    "WStratum",
    "WStrataReport",
    "FixedComponentCandidate",
    "w_strata",
    "fixed_component_candidates",
    "strata_index_sets",
]

MODES = ("generic", "wecc", "custom")

# Open problems stated in the source material; surfaced, never asserted.
NOTE_SUPERSET = ("generic mode assumes no subspace coincidences; the output "
                 "is a superset of the true strata ledger")
NOTE_F0 = ("open question: whether the F-stratum equals the Abel-image "
           "exactly (only the closure identity is known)")


@dataclass(frozen=True)
class AnalyticParams:
    """alpha: minimal Gorenstein index (user input, 0 = Gorenstein).
    trivializable: declared set T of integral antinef cycles whose natural
    bundles degenerate to the origin; only read in custom mode.
    mode: generic (T empty) | wecc (T = all antinef) | custom."""

    alpha: int = 0
    mode: str = "generic"
    trivializable: tuple[Cycle, ...] = ()

    def __post_init__(self):
        if self.mode not in MODES:
            raise UserError(f"mode must be one of {MODES}, got {quote(self.mode)}")
        if self.mode != "custom" and self.trivializable:
            raise UserError(
                "trivializable cycles may only be supplied in custom mode")
        for t in self.trivializable:
            if not (t.is_integral() and t.is_effective() and is_antinef(t)
                    and not t.is_zero()):
                raise UserError(
                    "every trivializable cycle must be a nonzero integral "
                    "effective antinef cycle")


def _weights(seq: EllipticSequence, alpha: int) -> dict[str, int]:
    """{v: max(0, depth(v) - alpha + 1)} in vertex order; dim V(I) is the
    largest weight on I."""
    return {v: max(0, d - alpha + 1) for v, d in seq.depths.items()}


@dataclass(frozen=True)
class WStratum:
    k: int
    dim: int
    kind: str  # "linear" or "wandering"
    count_max: int | None = None


@dataclass(frozen=True)
class WStrataReport:
    pg: int
    reduction_index: int
    h1_on_image: int
    strata: tuple[WStratum, ...]


def w_strata(seq: EllipticSequence, lprime: Cycle,
             alpha: int) -> WStrataReport:
    """p_g, the reduction index i = i(l'), the uniform h1 = p_g - dim V(I(l'))
    on the image closure, and the dimension table of the h1-level sets in
    the Picard group for Chern class l': one linear stratum per level, plus
    the wandering-point caveat when alpha exceeds i.

    Checks alpha, then l': its E* coordinates a_v = -(l', E_v) must be
    integers (l' in L' = H^2(X~, Z)), then a_v <= 0 (l' in -S'). The index
    is the largest 0 <= i <= m+1 with I(l') meeting B_{i-1} (B_{-1} = full
    set), 0 iff I(l') is empty. The weight max(0, depth - alpha + 1) grows
    with depth, so dim V(I(l')) = max(0, i - alpha) and h1 is p_g(X_i) =
    m + 1 - max(i, alpha)."""
    total = seq.pg(alpha)
    coords = estar_coordinates(lprime)
    if any(a.denominator != 1 for a in coords.values()):
        raise UserError("lprime must lie in L' (its E* coordinates must be "
                        "integers)")
    if any(a > 0 for a in coords.values()):
        raise UserError("lprime must lie in -S' (its negative must be antinef)")
    i = max((seq.depths[v] + 1 for v in coords), default=0)
    h1 = seq.pg(alpha, i)
    table = [WStratum(k=seq.m + 1 - j, dim=j - alpha, kind="linear")
             for j in range(max(i, alpha), seq.m + 2)]
    if alpha > i:
        table.append(WStratum(k=h1, dim=0, kind="wandering",
                              count_max=alpha - i))
    return WStrataReport(pg=total, reduction_index=i, h1_on_image=h1,
                         strata=tuple(table))


@dataclass(frozen=True)
class FixedComponentCandidate:
    cycle: Cycle
    exceptional: bool = False


def fixed_component_candidates(seq: EllipticSequence, alpha: int
                               ) -> list[FixedComponentCandidate]:
    """Possible nonzero-or-zero fixed-component cycles of degree-zero line
    bundles: {0, C_0, ..., C_m}; when the minimally elliptic cycle has
    self-intersection -1 and the structure is non-Gorenstein (alpha >= 1),
    the exceptional candidate 2 Z_min is appended, flagged."""
    seq.pg(alpha)  # refuses an alpha outside [0, m]
    if not is_numerically_gorenstein(seq.graph):
        raise UserError("fixed-component candidates require a numerically "
                        "Gorenstein graph")
    # numerically Gorenstein: C_{-1} = 0, so the sums are {0, C_0, ..., C_m}
    out = [FixedComponentCandidate(c) for c in seq.sums]
    c = seq.fundamental_cycles[-1]
    if intersection_form(c, c) == -1 and alpha >= 1:
        out.append(FixedComponentCandidate(2 * seq.fundamental_cycles[0],
                                           exceptional=True))
    return out


@dataclass(frozen=True)
class StrataEntry:
    l: Cycle
    chern: Cycle
    dim: int
    k: int
    maximal: bool
    excluded_by: tuple[int, Cycle] | None


@dataclass(frozen=True)
class StrataReport:
    pg: int
    levels: dict[int, tuple[StrataEntry, ...]]
    notes: tuple[str, ...] = ()


def _decomposes_over(difference: Cycle, pool: tuple[Cycle, ...]) -> bool:
    """Whether `difference` is a non-negative integral combination of pool.
    Pool cycles are effective, so a difference that is not effective never
    decomposes."""
    seen = set()

    def rec(current: Cycle) -> bool:
        if current.is_zero():
            return True
        if current in seen:
            return False
        seen.add(current)
        for t in pool:
            nxt = current - t
            if nxt.is_effective() and rec(nxt):
                return True
        return False

    return rec(difference)


def strata_index_sets(seq: EllipticSequence, lprime: Cycle,
                      params: AnalyticParams) -> StrataReport:
    """Solve the compatibility system for every level k down from pg.

    Candidates come from the finite ellipsoid {l >= 0 : chi(l)+(l,l') <= pg};
    each candidate determines its level through (ii), k = slack - dim V,
    with the slack pg - chi(l) - (l, l') that the walk leaves. dim V is
    the largest weight max(0, depth(j) - alpha + 1) on the E*-support of
    l' - l, so the walk, given the weights, yields only the l with k >= 0
    (`quadform.antinef_points`). Rule (iii)
    is applied from the top level down: a candidate is excluded when its
    subspace is already indexed at a higher level, where subspace
    containment is decided by equal flag dimensions plus a T-decomposable
    difference (and, in wecc mode, by flag-dimension comparison alone,
    since every subspace then passes through the origin and lies in the
    flag). Excluded candidates are retained with a reference to their
    excluder; per-level entries of maximal dimension are flagged.

    p_g and the levels come from the W-strata table (`w_strata`, which
    checks alpha, then l'). The levels holding an accepted entry must be
    exactly those of its linear strata, and the largest accepted dim at
    each such level must be that stratum's dim; otherwise
    InvariantViolation."""
    table = w_strata(seq, lprime, params.alpha)
    wecc = params.mode == "wecc"
    pool = params.trivializable  # empty outside custom mode
    weights = _weights(seq, params.alpha)
    by_level: dict[int, list[tuple[Cycle, Cycle, int]]] = {}
    for point, slack in antinef_points(seq.graph, lprime, table.pg,
                                       list(weights.values())):
        l = Cycle(seq.graph, point)
        # l is integral and l' in L', so chi(l) and (l, l') are integers
        if slack.denominator != 1:
            raise InvariantViolation("a strata candidate has a non-integral "
                                     "slack", payload={"l": l, "slack": slack})
        chern = lprime - l
        dim = max((weights[v] for v in estar_support(chern)), default=0)
        by_level.setdefault(int(slack) - dim, []).append((l, chern, dim))
    levels: dict[int, tuple[StrataEntry, ...]] = {}
    accepted_above: list[StrataEntry] = []
    # with T empty only a zero difference decomposes, and the walk's points
    # are distinct: outside wecc mode nothing is excluded then
    excluders = accepted_above if wecc or pool else ()
    tops: dict[int, int] = {}
    for k in range(table.pg, -1, -1):
        entries = []
        # the ranking puts the largest dim first, so the first accepted
        # entry holds the level's top dim
        for l, chern, dim in sorted(by_level.get(k, []),
                                    key=lambda c: (-c[2], c[0].num)):
            excluder = next(((prior.k, prior.l) for prior in excluders
                             if (dim <= prior.dim if wecc else dim == prior.dim
                                 and _decomposes_over(l - prior.l, pool))),
                            None)
            if excluder is None:
                tops.setdefault(k, dim)
            entries.append(StrataEntry(
                l=l, chern=chern, dim=dim, k=k, excluded_by=excluder,
                maximal=excluder is None and dim == tops[k]))
        levels[k] = tuple(entries)
        accepted_above.extend(e for e in entries if e.excluded_by is None)
    expected = {s.k: s.dim for s in table.strata if s.kind == "linear"}
    if tops != expected:
        raise InvariantViolation(
            "the strata levels disagree with the W-strata table",
            payload={"lprime": lprime, "alpha": params.alpha,
                     "mode": params.mode, "levels": tops,
                     "expected": expected})
    notes = [NOTE_F0]
    if params.mode == "generic":
        notes.append(NOTE_SUPERSET)
    return StrataReport(pg=table.pg, levels=levels, notes=tuple(notes))
