"""Decidable topological criteria for end-curve conditions.

Two independent decision procedures are implemented: the extension
criterion over the elliptic-sequence supports, and the monomial condition
at the nodes. On elliptic graphs the two verdicts provably agree; the
module asserts this equivalence and treats a disagreement as a bug signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .core import (Cycle, ResolutionGraph, _rooting, _subtree_solve,
                   _times_a)
from .ellseq import elliptic_sequence
from .errors import InvariantViolation

__all__ = [
    "CriterionReport",
    "extension_criterion",
    "monomial_condition",
    "criteria_reports",
]


@dataclass(frozen=True)
class CriterionReport:
    """verdict is true iff violations is empty; witnesses carry the
    certifying data (per-branch cycles for the monomial condition,
    neighbour lists for the extension criterion)."""

    name: str
    violations: tuple[dict, ...] = ()
    witnesses: tuple[dict, ...] = ()

    @property
    def verdict(self) -> bool:
        return not self.violations


def extension_criterion(graph: ResolutionGraph) -> CriterionReport:
    """For every 0 <= i <= m and v in B_i \\ B_{i+1}: v has at most one
    neighbour in B_{i-1} \\ B_i (with B_{-1} = full vertex set and
    B_{m+1} = empty). B_i \\ B_{i+1} is the vertices of depth i, so the
    walk is in (depth, id) order, each vertex against its neighbours of
    depth i - 1."""
    depths = elliptic_sequence(graph).depths
    names = graph.vertices
    violations = []
    witnesses = []
    for i, v in sorted((i, v) for v, i in depths.items() if i >= 0):
        outside = [names[j] for j in graph._neighbours[graph._index[v]]
                   if depths[names[j]] == i - 1]
        record = {"i": i, "vertex": v, "neighbours_above": outside}
        if len(outside) > 1:
            violations.append(record)
        elif outside:
            witnesses.append(record)
    return CriterionReport("extension-criterion", tuple(violations),
                           tuple(witnesses))


def _monomial_branch_solution(graph: ResolutionGraph, v: str, rooting: tuple,
                              members: list[int]) -> Cycle | None:
    """Search for an effective integral C on a branch at the node v with
    (E*_v + C, E_u) = 0 for every u in branch ∪ {v} that is not an
    end-vertex of the whole graph inside the branch; as (E*_v, E_u) =
    -delta_vu, that is (C, E_v) = 1 and (C, E_u) = 0 at those u in the
    branch. The branch is the subtree `members` below the contact
    members[0], a child of v in `rooting`, the tree rooted at v; no graph
    of it is built.

    Any integral solution decomposes as C = sum_w a_w E*_w(branch) over the
    end-vertices w of the graph inside the branch, with a_w = -(C, E_w) a
    non-negative integer, and the condition at v pins
    sum_w a_w m_w = 1 for m_w = coefficient of E*_w(branch) at the contact.
    That bounds each a_w, so the search is finite. Such a C is integral
    once its coefficients at the ends w are: every (C, E_u) is an integer,
    so each coefficient is an integer combination of those below it.

    A branch with one end w is the chain from the contact to w, whose
    corner minor is 1: det m_w = 1 for det the branch's determinant, so
    a_w = det and C = det E*_w(branch), one subtree solve."""
    _, parent, sub, kids, _ = rooting
    n = len(graph.vertices)
    node, contact = graph._index[v], members[0]
    required = [i for i in members if len(graph._neighbours[i]) > 1]
    ends = [i for i in members if len(graph._neighbours[i]) == 1]
    det = sub[contact]

    def checked(total: list[int], multipliers: dict) -> Cycle:
        # the defining linear conditions hold at every integral point of
        # the simplex, so a failure here is a bug, never a dead end: one
        # cached as a failed state could hide a later witness
        lifted = Cycle(graph, tuple(total))
        pairs = _times_a(graph, lifted.num)
        if pairs[node] != 1 or any(pairs[i] for i in required):
            raise InvariantViolation(
                "a monomial branch cycle fails its defining conditions",
                payload={"node": v, "branch": sorted(
                    graph.vertices[i] for i in members),
                    "multipliers": multipliers})
        return lifted

    def solve(w: int) -> list[int]:  # det E*_w(branch)
        return _subtree_solve(members, parent, sub, kids,
                              [int(i == w) for i in range(n)])

    if len(ends) == 1:
        return checked(solve(ends[0]), {graph.vertices[ends[0]]: det})

    # det E*_w(branch) is one subtree solve, so the search runs on
    # integers: with iw_w = det m_w, the simplex sum a_w m_w = 1 becomes
    # sum a_w iw_w = det, and det C is tracked at the ends only
    rows = []
    for w in ends:
        full = solve(w)
        rows.append((full[contact], graph.vertices[w], full,
                     [full[i] for i in ends]))
    iw, names, fulls, vecs = zip(*sorted(rows, reverse=True))
    chosen = [0] * len(iw)

    def witness() -> Cycle:
        total = [0] * n
        for a, full in zip(chosen, fulls):
            total = [t + a * f for t, f in zip(total, full)]
        return checked([t // det for t in total], dict(zip(names, chosen)))

    # the last two multipliers in closed form: a iw_p + b iw_q = remaining
    # holds for a = a0 + s j, b = b0 - r j (j >= 0), and each j adds `step`
    # to det C at the ends, mod det. Bezout gives lam . step = g_step mod
    # det for g_step = gcd(det, *step), so j step = c forces
    # j = lam . c / g_step mod det / g_step, the order of `step`: the least
    # j that can make C integral is one candidate, checked in full
    last = len(iw) - 2
    (p, q), (vp, vq) = iw[last:], vecs[last:]
    g = gcd(p, q)
    s, r = q // g, p // g
    inverse = pow(r, -1, s)
    step = [(s * x - r * y) % det for x, y in zip(vp, vq)]
    g_step, lam = det, [0] * len(ends)
    for i, d in enumerate(step):  # gcd(g_step, d) = x g_step + y d
        h = gcd(g_step, d)
        y = pow(d // h, -1, g_step // h)
        x = (h - y * d) // g_step
        lam = [x * k % det for k in lam]
        lam[i], g_step = y, h

    # whether first(idx, remaining, total) finishes depends only on idx,
    # remaining and total mod det: the states known to finish nowhere
    failed = set()
    # the ends from idx on make only multiples of tail[idx]
    tail = [gcd(*iw[i:]) for i in range(len(iw))]

    def first(idx: int, remaining: int, total: list[int]) -> Cycle | None:
        # the first point of the simplex, in lexicographic order, whose
        # total = det C = sum a_w det E*_w(branch) at the ends is integral
        if idx == last:
            if remaining % g:
                return None
            a = remaining // g * inverse % s
            b = (remaining - a * p) // q
            c = -sum(k * (t + a * x + b * y)
                     for k, t, x, y in zip(lam, total, vp, vq)) % det
            if c % g_step:
                return None
            a, b = a + s * (c // g_step), b - r * (c // g_step)
            if b < 0 or any((t + a * x + b * y) % det
                            for t, x, y in zip(total, vp, vq)):
                return None
            chosen[last:] = a, b
            return witness()
        key = (idx, remaining, tuple(t % det for t in total))
        if key in failed:
            return None
        for a in range(remaining // iw[idx] + 1):
            if (remaining - a * iw[idx]) % tail[idx + 1]:
                continue
            chosen[idx] = a
            found = first(idx + 1, remaining - a * iw[idx],
                          [t + a * c for t, c in zip(total, vecs[idx])])
            if found is not None:
                return found
        failed.add(key)
        return None

    return first(0, det, [0] * len(ends))


def monomial_condition(graph: ResolutionGraph) -> CriterionReport:
    """For every node (degree >= 3) and every branch at it, decide the
    existence of the branch cycle of the monomial condition. Graphs without
    nodes pass vacuously."""
    violations = []
    witnesses = []
    for v in graph.nodes():
        # the branches at v: the subtrees below its children, rooted at v
        rooting = _rooting(graph._neighbours, graph._pivots, graph._index[v])
        parent, branches = rooting[1], []
        for c in graph._neighbours[graph._index[v]]:
            members = [c]
            for i in members:  # grows while read: parents before children
                members.extend(j for j in graph._neighbours[i]
                               if parent[j] == i)
            branches.append((sorted(graph.vertices[i] for i in members),
                             members))
        for branch, members in sorted(branches):
            solution = _monomial_branch_solution(graph, v, rooting, members)
            record = {"node": v, "branch": tuple(branch)}
            if solution is None:
                # the rational polytope is never empty here (each branch
                # contains an end-vertex); failure is an integrality failure
                record["note"] = ("rational solutions exist; no integral "
                                  "effective branch cycle")
                violations.append(record)
            else:
                record["cycle"] = solution
                witnesses.append(record)
    return CriterionReport("monomial-condition", tuple(violations),
                           tuple(witnesses))


def criteria_reports(graph: ResolutionGraph
                     ) -> tuple[CriterionReport, CriterionReport]:
    """(extension criterion, monomial condition) on an elliptic minimal
    graph, each evaluated once; their verdicts must agree."""
    ext = extension_criterion(graph)
    mono = monomial_condition(graph)
    if ext.verdict != mono.verdict:
        raise InvariantViolation(
            "extension criterion and monomial condition disagree on an "
            "elliptic graph",
            payload={"extension": ext.verdict, "monomial": mono.verdict})
    return ext, mono
