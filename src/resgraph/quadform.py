"""Exact integer-point enumeration in the chi-ellipsoid of a resolution
graph, cut by the antinef cone.

The strata solver reads its candidates off the finite set
{ x >= 0 integral : chi(x) + (x, l') <= bound, x - l' antinef }. With -l'
antinef (Lipman's cone, where the solver takes l') each (E_v, l') >= 0,
so `core`'s Fincke-Pohst walker walks the one ellipsoid {chi <= bound}
around Z_K/2 and charges (x, l') to its budget; only `core` completes the
square. This module owns the walk's rooting and its antinef and level
cuts (`antinef_points`). The rooting is the widest leaf (`walk_rooting`),
a rule chosen by counting filter calls from every root of the fixtures.

The strata solver also cuts by level. A candidate l enters a stratum only
if its slack pg - chi(l) - (l, l') is at least dim V(I(l - l')), the
largest w_j = max(0, depth(j) - alpha + 1) over the j with
(l - l', E_j) != 0. That pairing is final once j and all its neighbours
are assigned: in the block order at j's last child, or at j itself when j
has no children. From then on every completion has dim >= w_j if it is
nonzero, and the walk's remaining budget (the slack at a leaf) only falls
along a path. So a value that leaves less budget than w_j, over the
nonzero final pairings, leads to no candidate and is dropped; the walk
keeps exactly the points of level k >= 0, in the uncut walk's order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .core import (Cycle, ResolutionGraph, _ellipsoid_walk, _rooting,
                   _times_a)

__all__ = ["walk_rooting", "antinef_points", "enumerate_ellipsoid_points"]


def walk_rooting(graph: ResolutionGraph) -> tuple:
    """The rooting of the ellipsoid walk, as `core._rooting` returns it:
    from the widest leaf, the leaf v that maximizes (M^-1)_vv =
    det(T-v)/det for M = -A, least index on ties.

    det(T-v) = P_v U_v, with U_v = det(T minus the subtree below v) read off
    the graph's own elimination: U = 1 at its root and, for a child c of p,
    det = D_c U_c - P_c U_p P_p / D_c, so U_c is an exact quotient."""
    parent, sub, kids = graph._parent, graph._subdet, graph._childdet
    upper = [1] * len(parent)
    for c in graph._order[1:]:
        p = parent[c]
        upper[c] = ((graph.det * sub[c] + kids[c] * upper[p] * kids[p])
                    // (sub[c] * sub[c]))
    leaves = [i for i, ws in enumerate(graph._neighbours) if len(ws) <= 1]
    root = max(leaves, key=lambda v: (kids[v] * upper[v], -v))
    return _rooting(graph._neighbours, graph._pivots, root)


def antinef_points(graph: ResolutionGraph, lprime: Cycle, bound: int,
                   weights: Sequence[int]
                   ) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """The strata walk from the widest leaf: every integral x >= 0 with
    chi(x) + (x, l') <= bound and x - l' antinef whose slack
    bound - chi(x) - (x, l') is at least max{w_j : (x - l', E_j) != 0}
    (0 when x = l') for the vertex-indexed `weights` w >= 0, as
    (x in vertex order, slack); zero weights leave the walk uncut.

    The walk runs in {chi <= bound} and charges (x, l') to its budget
    (`core._ellipsoid_walk`, which refuses l' outside -S'); the slack is
    the budget left, so the level cut asks the walk for w_j.

    The antinef inequalities of x - l' cut each coordinate's range to one
    interval. With l' = num/den and X = den*x, (x - l', E_j) <= 0 reads
    e_j X_j + sum_{w ~ j} X_w <= cap_j. The walk puts every parent before
    its children, so when x_i's range is walked, its children are
    unassigned. An unassigned child c of an assigned vertex v counts at a
    lower bound that every antinef completion meets: eliminating the
    inequalities of the subtree below c, as the leaf elimination does the
    form, gives D_c X_c >= P_c X_v - low_c. With all of its children
    there, x_i's own inequality reads D_i X_i >= P_i X_parent - low_i, a
    floor on x_i. x_i's coefficient is positive only in its parent p's
    inequality, which with p's later children at their bounds reads
    den*(a_p x_p + P_p sum_w x_w) <= top_p over p's assigned neighbours w,
    i among them: a ceiling on x_i. Every other inequality waits for a
    later coordinate.

    The weights cut by level (module docstring). x_i completes at most two
    pairings: its own when it has no children, which is then exactly the
    inequality of its floor, and its parent's when it is the last child,
    which is then exactly the inequality of its ceiling. So each vanishes
    only at that end of x_i's interval, and only when the end is exact.
    Every other value must leave the walk a budget of w_j, and the filter
    says which values these are."""
    order, parent, sub, kids, _ = rooting = walk_rooting(graph)
    den, cap = lprime.den, _times_a(graph, lprime.num)
    children: list[list[int]] = [[] for _ in order]
    for c in order[1:]:
        children[parent[c]].append(c)
    low = [0] * len(order)
    for c in reversed(order):
        low[c] = kids[c] * cap[c] + sum(kids[c] // sub[w] * low[w]
                                        for w in children[c])
    # the parent's inequality as x_i's range is walked: (a_p, the other
    # assigned neighbours w of p, top_p); children[p] is in walk order
    ceiling: list[tuple] = [()] * len(order)
    for p in order:
        for n, i in enumerate(children[p]):
            later = children[p][n + 1:]
            ceiling[i] = (
                kids[p] * graph.euler[graph.vertices[p]]
                + sum(kids[p] // sub[c] * kids[c] for c in later),
                children[p][:n] + ([parent[p]] if parent[p] >= 0 else []),
                kids[p] * cap[p] + sum(kids[p] // sub[c] * low[c]
                                       for c in later))

    # x_i's cut, fixed per vertex up to whether its floor and its ceiling
    # are exact: (w of every value, of the values above lo, of those
    # below hi, the largest of the three), all zero where no weight binds.
    # A pairing whose end is not exact vanishes at no value, so its w
    # binds every value.
    cuts: list[list] = []
    for i in range(len(order)):
        p = parent[i]
        own = 0 if children[i] else weights[i]
        up = weights[p] if p >= 0 and children[p][-1] == i else 0
        top = max(own, up)
        # indexed [floor exact][ceiling exact]
        cuts.append([[(top, 0, 0, top), (own, 0, up, top)],
                     [(up, own, 0, top), (0, own, up, top)]])

    def partial_filter(i: int, xs: list[int]) -> tuple:
        p = parent[i]
        # r and t are 0 when the floor and the ceiling are exact
        floor, r = divmod(low[i] - (den * kids[i] * xs[p] if p >= 0 else 0),
                          den * sub[i])
        hi, t = None, 1
        if p >= 0:
            a, ws, top = ceiling[i]
            hi, t = divmod(top - den * (a * xs[p] + kids[p]
                                        * sum(map(xs.__getitem__, ws))),
                           den * kids[p])
        return -floor, hi, cuts[i][r == 0][t == 0]

    return enumerate_ellipsoid_points(rooting, lprime, bound, partial_filter)


def enumerate_ellipsoid_points(
    rooting: tuple, lprime: Cycle, bound: int,
    partial_filter: Callable[[int, list[int]], tuple],
) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """Yield every integer x >= 0 with chi(x) + (x, l') <= bound that
    `partial_filter` admits, as a tuple in vertex order, with its slack
    bound - chi(x) - (x, l'), which is the walk's remaining budget at x.
    -l' must be antinef (`core._ellipsoid_walk`).

    Coordinates are assigned in the block order of `rooting` (as
    `walk_rooting` returns it), each over its range of values in
    increasing order. Before the range of vertex index i is walked,
    `partial_filter(i, xs)` narrows the range: it is called with the
    vertex-indexed assignment list `xs` (entries of i and of the vertices
    after it are not valid) and returns (lo, hi, (every, above_lo,
    below_hi, top)): the interval of values it admits, hi None when it
    admits every value from lo up, and the cut on them. Each value must
    leave a slack of at least `every`, and of `above_lo` when it is above
    lo and `below_hi` when it is below hi (`top` is the largest of the
    three, and (0, 0, 0, 0) cuts nothing). So must every point below the
    value, since the slack only falls along a path; the walker carries
    that need down.
    """
    unit, points = _ellipsoid_walk(rooting, lprime, bound, partial_filter)
    for point, left in points:
        yield point, Fraction(left, unit)
