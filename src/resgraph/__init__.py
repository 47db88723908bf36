"""Lattice-combinatorial invariants of resolution graphs of normal surface
singularities: fundamental and canonical cycles, computation sequences,
elliptic sequences, end-curve criteria, and Brill-Noether strata index sets,
all in exact rational arithmetic and cross-checked by brute-force oracles.
"""

from .core import (Cycle, ResolutionGraph, build_graph, canonical_cycle, chi,
                   dual_cycle, estar_coordinates, estar_support,
                   intersection_form, is_antinef, is_numerically_gorenstein)
from .criteria import extension_criterion, monomial_condition
from .ellseq import (EllipticSequence, antinef_in_class_below_ZK,
                     elliptic_sequence, numerically_gorenstein_subsupports,
                     partial_sums, pg_table)
from .errors import (GraphValidationError, InvariantViolation, ResGraphError,
                     ResourceCapExceeded, UserError)
from .fixtures import FIXTURE_NAMES, load_fixture
from .graphio import GraphFile, parse_graph
from .laufer import (antinef_lift, classify, cube_representative,
                     fundamental_cycle, minimal_class_representative)
from .strata import (AnalyticParams, WStrataReport,
                     fixed_component_candidates, strata_index_sets, w_strata)

__version__ = "0.1.0"

__all__ = [
    "Cycle", "ResolutionGraph", "build_graph", "canonical_cycle", "chi",
    "dual_cycle", "estar_coordinates", "estar_support", "intersection_form",
    "is_antinef", "is_numerically_gorenstein",
    "extension_criterion", "monomial_condition",
    "EllipticSequence", "antinef_in_class_below_ZK", "elliptic_sequence",
    "numerically_gorenstein_subsupports", "partial_sums", "pg_table",
    "GraphValidationError", "InvariantViolation", "ResGraphError",
    "ResourceCapExceeded", "UserError",
    "FIXTURE_NAMES", "load_fixture", "GraphFile", "parse_graph",
    "antinef_lift", "classify", "cube_representative", "fundamental_cycle",
    "minimal_class_representative",
    "AnalyticParams", "WStrataReport", "fixed_component_candidates",
    "strata_index_sets", "w_strata",
]
