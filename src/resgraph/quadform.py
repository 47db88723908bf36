"""Exact integer-point enumeration in ellipsoids of a positive-definite form.

Used by the strata solver to walk the finite candidate set
{ l >= 0 integral : (l - b)^T M (l - b) <= R } for M = -A positive definite.
Everything is exact: after clearing denominators once up front, the whole
recursion runs in integer arithmetic (integer square roots, never floats).

The form is orthogonalized fraction-free: with p_k the leading principal
minors of the integer matrix M (p_0 = 1) and U the upper-triangular outcome
of Bareiss elimination (U_kk = p_{k+1}),

    x^T M x = sum_k (sum_{j>=k} U_kj x_j)^2 / (p_k p_{k+1}),

so after multiplying through by a common integer scale every partial budget
stays an integer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator, Sequence

__all__ = ["bareiss_orthogonalize", "enumerate_ellipsoid_points"]


def bareiss_orthogonalize(matrix: Sequence[Sequence[int]]):
    """(U, p) for a positive-definite symmetric integer matrix.

    U is the integer upper-triangular matrix of fraction-free elimination
    and p the leading principal minors with p[0] = 1, p[k+1] = U[k][k];
    together they give x^T M x = sum_k T_k^2 / (p_k p_{k+1}) with
    T_k = sum_{j>=k} U_kj x_j.  Raises ValueError off the cone.
    """
    n = len(matrix)
    m = [[int(x) for x in row] for row in matrix]
    p = [1] * (n + 1)
    for k in range(n):
        pivot = m[k][k]
        if pivot <= 0:
            raise ValueError("matrix is not positive definite")
        p[k + 1] = pivot
        for i in range(k + 1, n):
            factor = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - factor * m[k][j]) // p[k]
    upper = [[m[i][j] if j >= i else 0 for j in range(n)] for i in range(n)]
    return upper, p


def enumerate_ellipsoid_points(
    matrix: Sequence[Sequence[Fraction]],
    center: Sequence[Fraction],
    radius2: Fraction,
    lower: Sequence[int | None] | None = None,
    partial_filter: Callable[[int, list[int]], bool] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield all integer x with (x - center)^T M (x - center) <= radius2.

    `lower[i]`, when not None, additionally imposes x_i >= lower[i].
    `partial_filter(i, xs)` is called after coordinate i (coordinates are
    assigned from the last index down to index 0) with the full assignment
    list `xs` (indices < i not yet valid); returning False prunes the branch.
    """
    n = len(center)
    if radius2 < 0:
        return
    # clear matrix denominators: scaling M scales the radius bound alike
    mden = math.lcm(*(Fraction(x).denominator for row in matrix for x in row))
    upper, p = bareiss_orthogonalize(
        [[int(Fraction(x) * mden) for x in row] for row in matrix])
    # integer center coordinates: w_j = s*x_j - cn_j
    s = math.lcm(*(Fraction(c).denominator for c in center))
    cn = [int(Fraction(c) * s) for c in center]
    # global scale: sum_k m_k T_k^2 <= budget0, all integers
    bound = Fraction(radius2) * mden * s * s
    prod = math.prod(p[1:])
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
