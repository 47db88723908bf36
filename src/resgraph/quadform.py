"""Exact integer-point enumeration in the ellipsoids of a resolution graph,
cut by the antinef cone.

The strata solver reads its candidates off the finite set
{ x >= 0 integral : (x - b)^T M (x - b) <= R, x - l' antinef } for M = -A,
the negated intersection form of the graph. This module owns that walk: a
Fincke-Pohst enumeration (Math. Comp. 44, 1985), its rooting and its
antinef cut. Everything is exact: the center b is a `core.Cycle`, so it
arrives as integer numerators over one denominator s, and after scaling R
by s^2 once up front the whole recursion runs in integer arithmetic
(integer square roots, never floats). No dense matrix is built.

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
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator

from .core import Cycle, ResolutionGraph, _rooting, _times_a

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


def antinef_points(graph: ResolutionGraph, center: Cycle, radius2: Fraction,
                   apex: Cycle) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """The walker's (point, slack) items, from the widest leaf, for the
    points x with x - apex antinef.

    The antinef inequalities of x - apex cut each coordinate's range to one
    interval. With apex = num/den and X = den*x, (x - apex, E_j) <= 0 reads
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
    later coordinate."""
    order, parent, sub, kids, _ = rooting = walk_rooting(graph)
    den, cap = apex.den, _times_a(graph, apex.num)
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

    def partial_filter(i: int, xs: list[int]) -> tuple[int, int | None]:
        p = parent[i]
        if p < 0:
            return -(low[i] // (den * sub[i])), None
        a, ws, top = ceiling[i]
        return (-((low[i] - den * kids[i] * xs[p]) // (den * sub[i])),
                (top - den * (a * xs[p] + kids[p] * sum(xs[w] for w in ws)))
                // (den * kids[p]))

    return enumerate_ellipsoid_points(rooting, center, radius2,
                                      partial_filter)


def enumerate_ellipsoid_points(
    rooting: tuple, center: Cycle, radius2: Fraction,
    partial_filter: Callable[[int, list[int]], tuple[int, int | None]],
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
    after it are not valid) and returns the interval (lo, hi) of values it
    admits, hi None when it admits every value from lo up.
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
    ws = [0] * len(order)
    xs = [0] * len(order)

    def rec(k: int, budget: int) -> Iterator[tuple]:
        if k == len(order):
            yield tuple(xs), Fraction(budget, unit)
            return
        v = order[k]
        p = parent[v]
        # T_v = D_v w_v - P_v w_p = a*x_v + off, and coeff_v*T_v^2 <= budget
        off = -sub[v] * cn[v] - (kids[v] * ws[p] if p >= 0 else 0)
        a = sub[v] * s
        t_max = math.isqrt(budget // coeff[v])  # exact: |T_v| <= t_max
        lo, hi = partial_filter(v, xs)
        high = (t_max - off) // a
        if hi is not None:
            high = min(high, hi)
        for value in range(max(0, -((t_max + off) // a), lo), high + 1):
            xs[v] = value
            t = a * value + off
            ws[v] = s * value - cn[v]
            yield from rec(k + 1, budget - coeff[v] * t * t)

    yield from rec(0, bound.numerator * scale)
