"""Depth, Cohen-Macaulay, Gorenstein, and normalization classification.

Depth is read from the ``_DEPTH`` table on the
:class:`~veropinch.lattice.PinchCase` of the spec, which pairs every case
with the combinatorial witness it rests on.  The ring is Cohen-Macaulay
exactly when its depth equals the dimension n; :func:`classify` turns the
case into every other ring-side answer in one ``match``, again with each
answer's witness (gap-set shape, socle enumeration, explicit presentations),
so the premises stay checkable.

No local cohomology is ever materialized; the constructive side of the
classification is the Artinian quotient by the pure powers x_i^d.  Its
monomial basis is the Apéry set, read to its certified stop with no degree
ceiling, and its socle is read off that basis.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from veropinch.exceptions import InvalidSpecError
from veropinch.lattice import ExponentVector, PinchCase, SemigroupSpec
from veropinch.membership import apery_set


class Tristate(str, Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class Normalization(str, Enum):
    SELF_NORMAL = "self-normal"
    BY_VERONESE = "normalized-by-veronese"
    REGULAR_SPECIAL_CASE = "regular-special-case"


class ClassificationReport(NamedTuple):
    dimension: int
    depth: int
    cohen_macaulay: bool
    generalized_cm: bool
    gorenstein: Tristate
    complete_intersection: Tristate
    a_invariant: int | None  # None = not applicable / not determined
    normalization: Normalization
    rationale: tuple[tuple[str, str], ...]  # (field, short reason), sorted by field


_SATURATED_DEPTH = "saturated semigroups give Cohen-Macaulay rings of full depth"
_ONE_PARAMETER_DEPTH = (
    "the gap family carries a one-parameter regular action in its "
    "axis pair, lifting the ring's depth to 2"
)
# case -> (depth, reason); None stands for the dimension n
_DEPTH: dict[PinchCase, tuple[int | None, str]] = {
    PinchCase.FULL: (None, _SATURATED_DEPTH),
    PinchCase.SATURATED: (None, _SATURATED_DEPTH),
    PinchCase.ODD_ODD: (
        3,
        "the odd-odd gap plane carries a two-parameter regular action, "
        "lifting the ring's depth to 3",
    ),
    PinchCase.LINE: (2, _ONE_PARAMETER_DEPTH),
    PinchCase.REGULAR_PLANE: (2, _ONE_PARAMETER_DEPTH),
    PinchCase.INTERIOR: (
        1,
        "only the removed exponent is missing, so the missing part has "
        "finite length and depth drops to 1",
    ),
    PinchCase.MULTI: (
        1,
        "the gap set is finite and nonempty, so the missing part of the "
        "normalization has finite length and depth drops to 1",
    ),
}


def depth(spec: SemigroupSpec) -> int:
    """The depth of the semigroup ring, read off ``_DEPTH``."""
    return _DEPTH[spec.case][0] or spec.n


_UNDETERMINED = "not determined here"
_FREE = "the surviving generators are lattice-independent: a polynomial ring"


def classify(spec: SemigroupSpec) -> ClassificationReport:
    """Full homological classification of a pinch or multipinch.

    The depth and its reason come from ``_DEPTH``.  Gorenstein and complete
    intersection start as unknown, and one ``match`` on the case then states
    only the answers that differ, with their reasons, along with the
    a-invariant and the normalization.  Removing a pure power d*e_i
    removes that axis ray from the cone, so the semigroup stays saturated;
    (2,2,(1,1)) is the one pinch whose ring is regular on its own smaller
    lattice; every other removal is normalized by the ambient degree-d slice.
    """
    n, d, case = spec.n, spec.d, spec.case
    dep = depth(spec)
    cm = dep == n
    finite = case in (PinchCase.INTERIOR, PinchCase.MULTI)
    reasons = {
        "depth": _DEPTH[case][1],
        "cohen_macaulay": f"depth {dep} {'equals' if cm else 'is below'} dimension {n}",
        "generalized_cm": (
            "a finite gap set means all the low local cohomology has finite length"
            if finite
            else ("Cohen-Macaulay" if cm else "the gap family is infinite")
        ),
        "normalization": (
            "each ambient degree-d vector has a power inside the pinch, so the "
            "ambient slice is the saturation"
        ),
    }
    norm, a_inv = Normalization.BY_VERONESE, None
    gor = ci = Tristate.UNKNOWN
    reasons["gorenstein"] = reasons["complete_intersection"] = _UNDETERMINED
    match case:
        case PinchCase.FULL:
            norm = Normalization.SELF_NORMAL
            # nothing is missing, so no gap-side premise is stated
            del reasons["generalized_cm"], reasons["normalization"]
            reasons["cohen_macaulay"] = "normal semigroup ring"
            if n == 2:
                gor = Tristate.YES if d == 2 else Tristate.NO
                reasons["gorenstein"] = (
                    "degree-d slice of the plane is Gorenstein exactly when d divides 2"
                )
        case _ if not cm:
            gor = ci = Tristate.NO
            reasons["gorenstein"] = reasons["complete_intersection"] = "not Cohen-Macaulay"
            if case is PinchCase.MULTI:
                reasons["normalization"] = (
                    "every generator with an entry >= d-1 survives, so the ambient "
                    "degree-d slice is integral over the semigroup and saturates it"
                )
                reasons["open"] = (
                    "which generator subsets give Cohen-Macaulay rings in general is "
                    "open; this removal family always has depth 1"
                )
        case PinchCase.LINE | PinchCase.REGULAR_PLANE:  # Cohen-Macaulay: the plane
            a_inv = a_invariant(quotient_basis(spec))
            gor = Tristate.YES
            reasons["gorenstein"] = (
                "the Artinian quotient by the two pure powers has a one-element socle"
            )
            if case is PinchCase.REGULAR_PLANE:
                norm, ci = Normalization.REGULAR_SPECIAL_CASE, Tristate.YES
                reasons["normalization"] = (
                    "the surviving generators span a smaller lattice on which the "
                    "semigroup is free"
                )
                reasons["complete_intersection"] = _FREE
        case PinchCase.ODD_ODD:  # Cohen-Macaulay: n = 3
            gor = ci = Tristate.YES
            reasons["gorenstein"] = "complete intersections are Gorenstein"
            reasons["complete_intersection"] = (
                "presented by the two binomial relations ae-b^2 and ce-d^2, "
                "a regular sequence"
            )
        case _:  # SATURATED
            norm = Normalization.SELF_NORMAL
            reasons["normalization"] = (
                "the removed exponent is a pure power, whose axis ray leaves the "
                "cone: the semigroup is saturated"
            )
            # (2,d,(d,0)) is isomorphic to the degree-(d-1) slice of the
            # plane, via v -> (|v|/d, v_1)
            if n == 2:
                gor = Tristate.YES if d in (2, 3) else Tristate.NO
                reasons["gorenstein"] = (
                    "isomorphic to the degree-(d-1) slice of the plane, which is "
                    "Gorenstein exactly when d-1 divides 2"
                )
                # (2,2,(2,0)): the two surviving generators are lattice-independent
                if d == 2:
                    ci = Tristate.YES
                    reasons["complete_intersection"] = _FREE
            else:
                reasons["gorenstein"] = "not determined here for n > 2"

    return ClassificationReport(
        dimension=n,
        depth=dep,
        cohen_macaulay=cm,
        generalized_cm=cm or finite,
        gorenstein=gor,
        complete_intersection=ci,
        a_invariant=a_inv,
        normalization=norm,
        rationale=tuple(sorted(reasons.items())),
    )


class QuotientBasis(NamedTuple):
    """Monomial basis of the Artinian quotient by (x_1^d, x_2^d), with socle."""

    basis: tuple[ExponentVector, ...]
    socle: tuple[ExponentVector, ...]
    spec: SemigroupSpec


def quotient_basis(spec: SemigroupSpec) -> QuotientBasis:
    """The monomial basis modulo the pure powers (x^d, y^d), plus the socle.

    Only defined for the plane pinches with max(m) = d-1.  The basis is the
    Apéry set, in monomial degree, and b is in the socle when no b + g (g a
    generator) is an Apéry element, i.e. every b + g lies in (x^d, y^d).
    """
    if spec.n != 2 or spec.case not in (PinchCase.LINE, PinchCase.REGULAR_PLANE):
        raise InvalidSpecError(f"quotient basis is not defined for {spec.describe()}")
    d = spec.d
    basis = apery_set(spec)
    for v in basis:
        if v.degree() > 2 * d:
            raise AssertionError(
                f"basis element {tuple(v)} beyond degree {2 * d}: "
                "quotient is larger than expected"
            )
    members = set(basis)
    gens = spec.generators()
    socle = tuple(b for b in basis if all(b.add(g) not in members for g in gens))
    return QuotientBasis(basis=basis, socle=socle, spec=spec)


def a_invariant(qb: QuotientBasis) -> int:
    """Socle layer - n: the a-invariant in generator degree |v|/d, for a one-element socle.

    d and n are read from ``qb.spec``.
    """
    if len(qb.socle) != 1:
        raise InvalidSpecError(
            f"socle has {len(qb.socle)} generators; the a-invariant is read "
            "here off a one-element socle only"
        )
    return qb.socle[0].degree() // qb.spec.d - qb.spec.n
