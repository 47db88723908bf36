"""Exact integer-point enumeration in ellipsoids of a positive-definite form.

Used by the strata solver to walk the finite candidate set
{ l >= 0 integral : (l - b)^T M (l - b) <= R } for M = -A positive definite.
Everything is exact: M is an integer matrix, and after clearing the
denominators of b and R once up front the whole recursion runs in integer
arithmetic (integer square roots, never floats).

The form is orthogonalized fraction-free by `core.bareiss_elimination`:
with p_k the leading principal minors of M (p_0 = 1) and U the
upper-triangular outcome (U_kk = p_{k+1}),

    x^T M x = sum_k (sum_{j>=k} U_kj x_j)^2 / (p_k p_{k+1}),

so after multiplying through by a common integer scale every partial budget
stays an integer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .core import bareiss_elimination

__all__ = ["enumerate_ellipsoid_points"]


def enumerate_ellipsoid_points(
    matrix: Sequence[Sequence[int]],
    center: Sequence[Fraction],
    radius2: Fraction,
    lower: Sequence[int | None] | None = None,
    partial_filter: Callable[[int, list[int]], bool] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield all integer x with (x - center)^T M (x - center) <= radius2,
    for a positive-definite symmetric integer matrix M.

    `lower[i]`, when not None, additionally imposes x_i >= lower[i].
    `partial_filter(i, xs)` is called after coordinate i (coordinates are
    assigned from the last index down to index 0) with the full assignment
    list `xs` (indices < i not yet valid); returning False prunes the branch.
    """
    n = len(center)
    if radius2 < 0:
        return
    upper, minors = bareiss_elimination(matrix)
    if any(x <= 0 for x in minors):
        raise ValueError("matrix is not positive definite")
    p = [1, *minors]
    # integer center coordinates: w_j = s*x_j - cn_j
    s = math.lcm(*(Fraction(c).denominator for c in center))
    cn = [int(Fraction(c) * s) for c in center]
    # global scale: sum_k m_k T_k^2 <= budget0, all integers
    bound = Fraction(radius2) * s * s
    prod = math.prod(minors)
    coeff = [bound.denominator * prod * prod // (p[k] * p[k + 1])
             for k in range(n)]
    budget0 = bound.numerator * prod * prod
    nonzero = [[(j, upper[i][j]) for j in range(i + 1, n) if upper[i][j]]
               for i in range(n)]
    lo = lower if lower is not None else [None] * n
    ws = [0] * n   # ws[j] = s*xs[j] - cn[j]
    xs = [0] * n

    def rec(i: int, budget: int) -> Iterator[tuple[int, ...]]:
        if i < 0:
            yield tuple(xs)
            return
        off = sum(uij * ws[j] for j, uij in nonzero[i]) - upper[i][i] * cn[i]
        a = upper[i][i] * s  # T_i = a*x_i + off, and coeff[i]*T_i^2 <= budget
        t_max = math.isqrt(budget // coeff[i])
        low = -((t_max + off) // a)
        high = (t_max - off) // a
        if lo[i] is not None and lo[i] > low:
            low = lo[i]
        for value in range(low, high + 1):
            xs[i] = value
            t = a * value + off
            term = coeff[i] * t * t
            if term > budget:
                continue
            if partial_filter is not None and not partial_filter(i, xs):
                continue
            ws[i] = s * value - cn[i]
            yield from rec(i - 1, budget - term)
        ws[i] = 0
        return

    yield from rec(n - 1, budget0)
