"""Exact integer-point enumeration in the ellipsoids of a resolution graph.

Used by the strata solver to walk the finite candidate set
{ x >= 0 integral : (x - b)^T M (x - b) <= R } for M = -A, the negated
intersection form of the graph. Everything is exact: the center b is a
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
inequality sees every earlier sibling. It is rooted at the widest leaf,
the leaf with the largest (M^-1)_vv, a rule chosen by counting filter
calls from every root of the fixtures. Each coordinate's range is one
integer interval, walked in increasing order; the caller's
`partial_filter` narrows the range to an interval of its own, once per
range, before any value of it is tried.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator

from .core import Cycle, ResolutionGraph

__all__ = ["enumerate_ellipsoid_points"]


def enumerate_ellipsoid_points(
    graph: ResolutionGraph,
    center: Cycle,
    radius2: Fraction,
    partial_filter: (Callable[[int, list[int]], tuple[int, int | None]]
                     | None) = None,
) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """Yield every integer x >= 0 with (x - center)^T (-A) (x - center)
    <= radius2, as a tuple in vertex order, with its slack
    radius2 - (x - center)^T (-A) (x - center), which is the walk's
    remaining budget at x.

    Coordinates are assigned in the block order of the walk rooting
    (`graph._walk_rooting()`), each over its range of values in increasing
    order. Before the range of vertex index i is walked,
    `partial_filter(i, xs)` narrows the range: it is called with the
    vertex-indexed assignment list `xs` (entries of i and of the vertices
    after it are not valid) and returns the interval (lo, hi) of values it
    admits, hi None when it admits every value from lo up.
    """
    if radius2 < 0:
        return
    order, parent, sub, kids, _ = graph._walk_rooting()
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
        low, high = max(0, -((t_max + off) // a)), (t_max - off) // a
        if partial_filter is not None:
            lo, hi = partial_filter(v, xs)
            low = max(low, lo)
            if hi is not None:
                high = min(high, hi)
        for value in range(low, high + 1):
            xs[v] = value
            t = a * value + off
            ws[v] = s * value - cn[v]
            yield from rec(k + 1, budget - coeff[v] * t * t)

    yield from rec(0, bound.numerator * scale)
