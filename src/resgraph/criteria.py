"""Decidable topological criteria for end-curve conditions.

Two independent decision procedures are implemented: the extension
criterion over the elliptic-sequence supports, and the monomial condition
at the nodes. On elliptic graphs the two verdicts provably agree; the
module asserts this equivalence and treats a disagreement as a bug signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import (Cycle, ResolutionGraph, _rooting, _subtree_solve,
                   _times_a, build_graph, canonical_cycle, dual_cycle,
                   is_numerically_gorenstein)
from .ellseq import EllipticSequence, elliptic_sequence
from .errors import GraphValidationError, InvariantViolation, UserError
from .laufer import classify, fundamental_cycle, require_elliptic_minimal

__all__ = [
    "CriterionReport",
    "extension_criterion",
    "monomial_condition",
    "criteria_reports",
    "supports_wecc",
    "supports_ecc",
    "glue_classify",
]


@dataclass(frozen=True)
class CriterionReport:
    """verdict is true iff violations is empty; witnesses carry the
    certifying data (per-branch cycles for the monomial condition,
    neighbour lists for the extension criterion)."""

    name: str
    verdict: bool
    violations: tuple[dict, ...] = ()
    witnesses: tuple[dict, ...] = ()

    def __post_init__(self):
        if self.verdict != (not self.violations):
            raise InvariantViolation("report verdict disagrees with violations")


def extension_criterion(graph: ResolutionGraph,
                        seq: EllipticSequence | None = None) -> CriterionReport:
    """For every 0 <= i <= m and v in B_i \\ B_{i+1}: v has at most one
    neighbour in B_{i-1} \\ B_i (with B_{-1} = full vertex set and
    B_{m+1} = empty). B_i \\ B_{i+1} is the vertices of depth i, so the
    walk is in (depth, id) order, each vertex against its neighbours of
    depth i - 1."""
    if seq is None:
        seq = elliptic_sequence(graph)
    depths = seq.depths
    violations = []
    witnesses = []
    for i, v in sorted((i, v) for v, i in depths.items() if i >= 0):
        outside = [w for w in graph.adjacency[v] if depths[w] == i - 1]
        record = {"i": i, "vertex": v, "neighbours_above": outside}
        if len(outside) > 1:
            violations.append(record)
        elif outside:
            witnesses.append(record)
    return CriterionReport(name="extension-criterion",
                           verdict=not violations,
                           violations=tuple(violations),
                           witnesses=tuple(witnesses))


def _monomial_branch_solution(graph: ResolutionGraph, v: str, rooting: tuple,
                              members: list[int]) -> Cycle | None:
    """Search for an effective integral C on a branch at the node v with
    (E*_v + C, E_u) = 0 for every u in branch ∪ {v} that is not an
    end-vertex of the whole graph inside the branch. The branch is the
    subtree `members` below the contact members[0], a child of v in
    `rooting`, the tree rooted at v; no graph of it is built.

    Any integral solution decomposes as C = sum_w a_w E*_w(branch) over the
    end-vertices w of the graph inside the branch, with a_w = -(C, E_w) a
    non-negative integer, and the condition at v pins
    sum_w a_w m_w = 1 for m_w = coefficient of E*_w(branch) at the contact.
    That bounds each a_w, so the search is finite."""
    _, parent, sub, kids, _ = rooting
    n = len(graph.vertices)
    node, contact = graph._index[v], members[0]
    required = [i for i in members if len(graph._neighbours[i]) > 1]
    estar_v = dual_cycle(graph, v)

    # det E*_w(branch), det the branch's determinant, is one subtree solve,
    # so the search runs on integers: with iw_w = det m_w, the simplex
    # sum a_w m_w = 1 becomes sum a_w iw_w = det
    det = sub[contact]
    triples = []
    for w in members:
        if len(graph._neighbours[w]) == 1:
            full = _subtree_solve(members, parent, sub, kids,
                                  [int(i == w) for i in range(n)])
            triples.append((full[contact], graph.vertices[w],
                            [full[i] for i in members]))
    iw, _, vecs = zip(*sorted(triples, reverse=True))

    def first(idx: int, remaining: int, total: list[int]) -> Cycle | None:
        # the first point of the simplex, in lexicographic order, whose
        # total = det C = sum a_w det E*_w(branch) on the members is
        # integral; the last multiplier is forced: one divmod, not a loop
        if idx == len(iw) - 1:
            a, rest = divmod(remaining, iw[-1])
            if rest:
                return None
            total = [t + a * c for t, c in zip(total, vecs[-1])]
            if any(t % det for t in total):
                return None
            placed = dict(zip(members, total))
            lifted = Cycle(graph, tuple(placed.get(i, 0) // det
                                        for i in range(n)))
            # defensive re-validation of the defining linear conditions
            pairs = _times_a(graph, (estar_v + lifted).num)
            if pairs[node] or any(pairs[i] for i in required):
                return None
            return lifted
        for a in range(remaining // iw[idx] + 1):
            found = first(idx + 1, remaining - a * iw[idx],
                          [t + a * c for t, c in zip(total, vecs[idx])])
            if found is not None:
                return found
        return None

    return first(0, det, [0] * len(members))


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
    return CriterionReport(name="monomial-condition",
                           verdict=not violations,
                           violations=tuple(violations),
                           witnesses=tuple(witnesses))


def criteria_reports(graph: ResolutionGraph
                     ) -> tuple[CriterionReport, CriterionReport]:
    """(extension criterion, monomial condition) on an elliptic minimal
    graph, each evaluated once; their verdicts must agree."""
    ext = extension_criterion(graph, elliptic_sequence(graph))
    mono = monomial_condition(graph)
    if ext.verdict != mono.verdict:
        raise InvariantViolation(
            "extension criterion and monomial condition disagree on an "
            "elliptic graph",
            payload={"extension": ext.verdict, "monomial": mono.verdict})
    return ext, mono


def supports_wecc(graph: ResolutionGraph) -> bool:
    """Existence of a weak-end-curve analytic structure (elliptic graphs)."""
    return criteria_reports(graph)[0].verdict


def supports_ecc(graph: ResolutionGraph) -> bool:
    """Existence of an end-curve analytic structure (elliptic graphs)."""
    return criteria_reports(graph)[1].verdict


@dataclass(frozen=True)
class GlueReport:
    vertex: str
    euler_new: int
    negative_definite: bool
    classification: str | None
    chi_zmin: Fraction | None
    lemma_conditions: dict = field(default_factory=dict)


def glue_classify(graph: ResolutionGraph, v: str, e_new: int) -> GlueReport:
    """Attach a new vertex to v with euler number e_new and classify the
    extension; when the extension stays elliptic, the gluing constraints on
    the base graph are asserted: m_v(Z_min) = 1 and v not in B_1, plus (in
    the numerically Gorenstein case) v is an end-vertex with m_v(Z_K) = 1."""
    require_elliptic_minimal(graph)
    if v not in graph._index:
        raise UserError(f"unknown vertex: {v!r}")
    if not isinstance(e_new, int) or e_new > -2:
        raise UserError(f"euler number of the new vertex must be <= -2, got {e_new!r}")
    new_id = "_glued"
    while new_id in graph._index:
        new_id += "_"
    try:
        extended = build_graph({
            "vertices": [(w, graph.euler[w]) for w in graph.vertices] + [(new_id, e_new)],
            "edges": [tuple(sorted(e)) for e in graph.edges] + [(v, new_id)],
        })
    except GraphValidationError as exc:
        if exc.diagnostic == "not-negative-definite":
            return GlueReport(vertex=v, euler_new=e_new, negative_definite=False,
                              classification=None, chi_zmin=None)
        raise
    cls = classify(extended)
    conditions: dict = {}
    if cls.kind == "elliptic":
        seq = elliptic_sequence(graph)
        zmin = fundamental_cycle(graph)
        conditions["m_v_zmin"] = zmin.coefficient(v)
        conditions["v_in_B1"] = seq.depths[v] >= 1
        ok = conditions["m_v_zmin"] == 1 and not conditions["v_in_B1"]
        if is_numerically_gorenstein(graph):
            zk = canonical_cycle(graph)
            conditions["v_is_end"] = graph.degree(v) == 1
            conditions["m_v_zk"] = zk.coefficient(v)
            ok = ok and conditions["v_is_end"] and conditions["m_v_zk"] == 1
        if not ok:
            raise InvariantViolation(
                "gluing produced an elliptic graph but the base graph "
                "violates the gluing constraints", payload=conditions)
    return GlueReport(vertex=v, euler_new=e_new, negative_definite=True,
                      classification=cls.kind, chi_zmin=cls.chi_zmin,
                      lemma_conditions=conditions)
