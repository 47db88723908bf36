"""Exact integer-point enumeration in the ellipsoids of a resolution graph,
cut by the antinef cone.

The strata solver reads its candidates off the finite set
{ x >= 0 integral : chi(x) + (x, l') <= bound, x - l' antinef }, which is
{ x >= 0 integral : (x - b)^T M (x - b) <= R, x - l' antinef } for M = -A,
the negated intersection form of the graph, b = Z_K/2 + l' and
R = 2*bound + b^T M b. This module owns that walk: the ellipsoid's set-up
(`antinef_points`), a Fincke-Pohst enumeration (Math. Comp. 44, 1985), its
rooting and its antinef cut. Everything is exact: the center b is a
`core.Cycle`, so it arrives as integer numerators over one denominator s,
and after scaling R by s^2 once up front the whole recursion runs in
integer arithmetic (integer square roots, never floats). No dense matrix
is built.

The form is orthogonalized by the tree's own leaf elimination (`core`):
with D_v the determinant of M on the subtree below v, P_v the product of
the D_c over the children c of v, and y_parent = 0 at the root,

    y^T M y = sum_v (D_v y_v - P_v y_parent(v))^2 / (D_v P_v),

for any rooting whose order puts every parent before its children. After
multiplying through by lcm(D_v P_v) every partial budget stays an integer.

The walk uses `core`'s block order, in which the children of each vertex
are assigned together, one after another, so a filter on the parent's
inequality sees every earlier sibling. It is rooted at the widest leaf
(`walk_rooting`), a rule chosen by counting filter calls from every root
of the fixtures. Each coordinate's range is one integer interval, walked
in increasing order; a `partial_filter` narrows the range to an interval
of its own, once per range, before any value of it is tried.

The strata solver also cuts by level. A candidate l enters a stratum only
if its slack pg - chi(l) - (l, l') is at least dim V(I(l - l')), the
largest w_j = max(0, depth(j) - alpha + 1) over the j with
(l - l', E_j) != 0. That pairing is final once j and all its neighbours
are assigned: in the block order at j's last child, or at j itself when j
has no children. From then on every completion has dim >= w_j if it is
nonzero, and the walk's remaining budget (twice the slack at a leaf) only
falls along a path. So a value that leaves less budget than 2 w_j, over
the nonzero final pairings, leads to no candidate and is dropped; the
walk keeps exactly the points of level k >= 0, in the uncut walk's order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .core import (Cycle, ResolutionGraph, _rooting, _times_a,
                   canonical_cycle, intersection_form)

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

    Completing the square: with M = -A and b = Z_K/2 + l',
    chi(x) + (x, l') = (x-b)^T M (x-b) / 2 - b^T M b / 2, so the points lie
    in the ellipsoid of radius^2 R = 2*bound + b^T M b around b, cut by the
    antinef cone at the apex l', and the slack is half the walk's
    R - (x-b)^T M (x-b), so the level cut asks the walk's budget for 2 w_j.

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
    Every other value must leave the walk a budget of 2 w_j, and the
    filter says which values these are."""
    center = canonical_cycle(graph) * Fraction(1, 2) + lprime
    radius2 = 2 * Fraction(bound) - intersection_form(center, center)
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
    # are exact: (2 w of every value, of the values above lo, of those
    # below hi, the largest of the three), all zero where no weight binds.
    # A pairing whose end is not exact vanishes at no value, so its 2 w
    # binds every value.
    cuts: list[list] = []
    for i in range(len(order)):
        p = parent[i]
        own = 0 if children[i] else 2 * weights[i]
        up = 2 * weights[p] if p >= 0 and children[p][-1] == i else 0
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

    return ((point, left / 2) for point, left in enumerate_ellipsoid_points(
        rooting, center, radius2, partial_filter))


def enumerate_ellipsoid_points(
    rooting: tuple, center: Cycle, radius2: Fraction,
    partial_filter: Callable[[int, list[int]], tuple],
) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """Yield every integer x >= 0 with (x - center)^T (-A) (x - center)
    <= radius2 that `partial_filter` admits, as a tuple in vertex order,
    with its slack radius2 - (x - center)^T (-A) (x - center), which is the
    walk's remaining budget at x.

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
    if radius2 < 0:
        return
    order, parent, sub, kids, _ = rooting
    # integer center coordinates: w_v = s*x_v - cn_v = s*y_v
    cn, s = center.num, center.den
    # global scale: sum_v coeff_v T_v^2 <= bound.numerator * scale, integers
    bound = Fraction(radius2) * s * s
    scale = math.lcm(*(d * p for d, p in zip(sub, kids)))
    coeff = [bound.denominator * scale // (d * p) for d, p in zip(sub, kids)]
    # a leaf's budget over `unit` is radius2 - (x - center)^T M (x - center)
    unit = bound.denominator * scale * s * s
    # per step of the walk: T_v = D_v w_v - P_v w_p = a*x_v + off with
    # a = D_v s and off = -D_v cn_v - P_v w_p; the root has no parent, so
    # its P_v is taken as 0
    steps = [(v, parent[v], sub[v] * s, sub[v] * cn[v],
              kids[v] if parent[v] >= 0 else 0, coeff[v], cn[v])
             for v in order]
    depth = len(order)
    ws = [0] * depth
    xs = [0] * depth

    def rec(k: int, budget: int, need: int) -> Iterator[tuple]:
        # every point below must leave `need` of the budget
        if k == depth:
            yield tuple(xs), Fraction(budget, unit)
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

    yield from rec(0, bound.numerator * scale, 0)
