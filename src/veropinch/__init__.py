"""Exact combinatorics of pinched degree-d semigroups.

Construct a spec with :func:`pinch_spec`, then ask for its gap set
(closed form or brute force), its homological classification, or its
Frobenius behaviour at a prime.  Everything is exact integer arithmetic,
deterministic, and cross-validated against an enumeration oracle.
"""

from veropinch.charp import (
    Characteristic,
    FrobeniusTrace,
    FSingularityReport,
    Fte,
    FType,
    INJECTIVE_EVIDENCE,
    TraceStep,
    ceil_log,
    f_singularity,
    frobenius_on_cokernel,
    multipinch_nilpotency_index,
)
from veropinch.classify import (
    ClassificationReport,
    Normalization,
    QuotientBasis,
    Tristate,
    a_invariant,
    ci_relation_holds,
    classify,
    depth,
    lower_veronese_iso,
    quotient_basis,
    verify_ci_presentation,
)
from veropinch.exceptions import InvalidSpecError, ResourceLimitError
from veropinch.gapset import (
    GapKind,
    GapSet,
    gap_census,
    gap_set_bruteforce,
    gap_set_closed_form,
    multipinch_coordinate_bound,
    multipinch_gap_set,
    verify_gap_equivalence,
    verify_principality,
)
from veropinch.lattice import (
    ExponentVector,
    PinchCase,
    SemigroupSpec,
    perturb,
    pinch_spec,
    veronese_generators,
    weak_compositions,
)
from veropinch.membership import (
    Decomposition,
    decompose,
    is_member,
    layer_members,
    reset_membership_cache,
)

__version__ = "0.1.0"

__all__ = [
    "Characteristic",
    "ClassificationReport",
    "Decomposition",
    "ExponentVector",
    "FSingularityReport",
    "FType",
    "FrobeniusTrace",
    "Fte",
    "GapKind",
    "GapSet",
    "INJECTIVE_EVIDENCE",
    "InvalidSpecError",
    "Normalization",
    "PinchCase",
    "QuotientBasis",
    "ResourceLimitError",
    "SemigroupSpec",
    "TraceStep",
    "Tristate",
    "a_invariant",
    "ceil_log",
    "ci_relation_holds",
    "classify",
    "decompose",
    "depth",
    "f_singularity",
    "frobenius_on_cokernel",
    "gap_census",
    "gap_set_bruteforce",
    "gap_set_closed_form",
    "is_member",
    "layer_members",
    "lower_veronese_iso",
    "multipinch_coordinate_bound",
    "multipinch_gap_set",
    "multipinch_nilpotency_index",
    "perturb",
    "pinch_spec",
    "quotient_basis",
    "reset_membership_cache",
    "verify_ci_presentation",
    "verify_gap_equivalence",
    "verify_principality",
    "veronese_generators",
    "weak_compositions",
]
