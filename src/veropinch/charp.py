"""Frobenius behaviour of the missing monomials, and what it implies.

The map v |-> p*v on gap vectors is the whole story: a gap vector whose
p-th multiple lands back in the semigroup is killed by Frobenius, one whose
multiple is again a gap persists.  :func:`frobenius_on_cokernel` reports
what membership says of each image and checks it against the closed-form
gap family.  The paper's parity rule (a quadratic pinch persists at odd p,
every other trace dies in one step) is checked against that report by
``verify --frobenius`` and acceptance criterion 5.  A multipinch's finite
gap set dies after finitely many steps, the nilpotency index.

The F-singularity type, the number of Frobenius steps needed to clear the
missing part (the HSL number), and the uniform test exponent for parameter
ideals (Fte) are read off the :class:`~veropinch.lattice.PinchCase` table:
``FULL`` and ``SATURATED`` miss nothing (F-regular), ``REGULAR_PLANE`` is a
polynomial ring, and the HSL number and the test exponent follow from the
F-type together with Cohen-Macaulayness (depth = n); :func:`f_singularity`
decides all of them in one place.
"""

from __future__ import annotations

from enum import Enum
from math import comb
from typing import NamedTuple, Union

from veropinch.classify import depth
from veropinch.exceptions import InvalidSpecError
from veropinch.gapset import (
    gap_set_closed_form,
    multipinch_coordinate_bound,
    multipinch_gap_set,
)
from veropinch.lattice import ExponentVector, PinchCase, SemigroupSpec
from veropinch.membership import is_member

MAX_CHARACTERISTIC = 10_000

INJECTIVE_EVIDENCE = "injective-evidence"


def _prime(p: int) -> int:
    """p, checked by trial division to be a prime no larger than MAX_CHARACTERISTIC."""
    if not isinstance(p, int) or p < 2:
        raise InvalidSpecError(f"characteristic must be an integer >= 2, got {p!r}")
    if p > MAX_CHARACTERISTIC:
        raise InvalidSpecError(
            f"characteristic {p} exceeds the supported bound {MAX_CHARACTERISTIC}"
        )
    k = 2
    while k * k <= p:
        if p % k == 0:
            raise InvalidSpecError(f"characteristic must be prime, got {p} = {k}*{p // k}")
        k += 1
    return p


def ceil_log(p: int, x: int) -> int:
    """Smallest e >= 0 with p**e >= x (exact integer arithmetic); needs p >= 2."""
    if p < 2:
        raise InvalidSpecError(f"logarithm base must be at least 2, got {p}")
    e = 0
    power = 1
    while power < x:
        power *= p
        e += 1
    return e


class FType(str, Enum):
    F_REGULAR = "F-regular"
    F_NILPOTENT = "F-nilpotent"
    F_INJECTIVE = "F-injective"
    REGULAR = "regular"


class Fte(NamedTuple):
    """Frobenius test exponent: exact value, upper bound with formula, or unknown."""

    kind: str  # "exact" | "bound" | "unknown"
    value: int | None
    formula: str | None
    rationale: str

    @staticmethod
    def exact(value: int, rationale: str) -> "Fte":
        return Fte(kind="exact", value=value, formula=None, rationale=rationale)

    @staticmethod
    def bound(value: int, formula: str, rationale: str) -> "Fte":
        return Fte(kind="bound", value=value, formula=formula, rationale=rationale)

    @staticmethod
    def open_question(rationale: str) -> "Fte":
        return Fte(kind="unknown", value=None, formula=None, rationale=rationale)


class TraceStep(NamedTuple):
    vector: ExponentVector
    image: ExponentVector
    killed: bool  # image is a semigroup member


class FrobeniusTrace(NamedTuple):
    """What membership says of v |-> p*v on the gap vectors up to the truncation.

    ``nilpotency_index`` is 1 when every image is a member and
    ``INJECTIVE_EVIDENCE`` when none is.  It describes the gap vectors only:
    the plane pinch of (1, 1) traces index 1 at p = 2, yet its HSL number is
    0, because its odd-odd vectors lie outside the group (2Z)^2 of its
    semigroup, which is a polynomial ring; the trace tells nothing of its
    F-type there.
    """

    action: tuple[TraceStep, ...]
    nilpotency_index: Union[int, str]  # 1, or INJECTIVE_EVIDENCE
    truncation: int
    p: int


class FSingularityReport(NamedTuple):
    ftype: FType
    f_pure: str  # "yes" | "no" | "unknown"
    hsl: int
    fte: Fte
    p: int
    rationale: str = ""
    notes: tuple[str, ...] = ()


def frobenius_on_cokernel(spec: SemigroupSpec, p: int, truncation: int) -> FrobeniusTrace:
    """Apply v |-> p*v to a single pinch's gap vectors up to the truncation degree.

    Each image is killed when ``is_member`` says so, and the closed-form
    family must agree both ways: a killed image has left the family, a live
    one is again a gap vector.  A trace that kills some images and keeps
    others raises.  Which pinches persist at which p is the parity rule that
    ``verify --frobenius`` checks against this report.  A multipinch, and a
    spec with no gap vector to trace (a full slice, a saturated pinch),
    raise ``InvalidSpecError``.
    """
    gap = gap_set_closed_form(spec)  # rejects multipinches
    p = _prime(p)
    vectors = gap.materialize(truncation)
    if not vectors:
        raise InvalidSpecError(f"no gap vector up to degree {truncation}: nothing to trace")
    steps = []
    for v in vectors:
        image = v.scale(p)
        killed = is_member(image, spec)
        if killed == gap.contains(image):
            both = "both a member and" if killed else "neither a member nor"
            raise AssertionError(f"{tuple(image)} is {both} a gap vector")
        steps.append(TraceStep(vector=v, image=image, killed=killed))
    count = sum(s.killed for s in steps)
    if 0 < count < len(steps):
        raise AssertionError(
            f"the trace kills {count} of {len(steps)} gap vectors, not all or none"
        )
    index = 1 if count else INJECTIVE_EVIDENCE
    return FrobeniusTrace(action=tuple(steps), nilpotency_index=index, truncation=truncation, p=p)


def multipinch_nilpotency_index(spec: SemigroupSpec, p: int) -> int:
    """Smallest e with p^e * v a member for every gap vector v of a multipinch.

    The gap set is complete, so p^e * v is a member exactly when it is not a
    gap vector.  The result is checked against the coordinate bound: it is
    at most ceil(log_p((n-1)(d^2-d))), because at that power every entry
    bound is cleared.
    """
    p = _prime(p)
    gaps = multipinch_gap_set(spec)  # raises unless spec is a multipinch
    limit = ceil_log(p, multipinch_coordinate_bound(spec.n, spec.d))
    missing = frozenset(gaps)
    worst = 0
    for v in gaps:
        e = 1
        w = v.scale(p)
        while w in missing:
            e += 1
            w = w.scale(p)
            if e > limit:
                raise AssertionError(
                    f"gap vector {tuple(v)} not cleared within {limit} steps"
                )
        worst = max(worst, e)
    return worst


_PURITY_NOTE = (
    "purity follows from regularity of ideal closures: every ideal is tightly "
    "closed, hence Frobenius closed"
)
_NOT_PURE_NOTE = (
    "not F-pure: purity would force F-injectivity, and F-injective plus "
    "F-nilpotent means F-rational, impossible for a non-normal ring"
)

_SUMMAND_RATIONALE = (
    "saturated semigroup: the ring splits off a polynomial ring, so every "
    "ideal is tightly closed"
)
_ODD_INJECTIVE_RATIONALE = (
    "odd multiples keep every odd-odd gap vector alive, so Frobenius acts "
    "injectively on the missing part and on the ring's cohomology"
)
_ONE_STEP_RATIONALE = (
    "the missing monomials die in one Frobenius step, so all low "
    "cohomology is Frobenius-nilpotent"
)
_NILPOTENT_RATIONALE = {
    PinchCase.ODD_ODD: "squaring clears the odd-odd gap plane in one step",
    PinchCase.MULTI: "the finite gap set is cleared by iterated Frobenius",
}


def f_singularity(spec: SemigroupSpec, p: int) -> FSingularityReport:
    """F-singularity type, purity, HSL number and test exponent at characteristic p.

    The one place these answers are read off (case, p, depth):

    * the F-type is F-regular for ``FULL`` and ``SATURATED``, regular for
      ``REGULAR_PLANE``, F-injective for ``ODD_ODD`` at odd p, and
      F-nilpotent otherwise;
    * the HSL number, the Frobenius steps needed to clear the nilpotent part
      of local cohomology, is exact: 0 unless F-nilpotent (Frobenius acts
      injectively), 1 for an F-nilpotent single pinch (the gap dies in one
      step), and the computed nilpotency index for a multipinch;
    * the uniform Frobenius test exponent for parameter ideals is exact 0
      for the F-injective Cohen-Macaulay rings, unknown for the F-injective
      non-Cohen-Macaulay odd-odd family (no finiteness result exists), exact
      1 where Cohen-Macaulayness pins the value to the HSL number, the bound
      binom(n, k) for one nilpotent cohomology slot in homological degree
      k = depth otherwise, and the logarithmic formula for multipinches.
    """
    p = _prime(p)
    n, case, k = spec.n, spec.case, depth(spec)
    index, test_exponent = 0, Fte.exact(0, "every parameter ideal Frobenius closed")
    match case:
        case PinchCase.FULL | PinchCase.SATURATED:
            ftype, f_pure, rationale = FType.F_REGULAR, "yes", _SUMMAND_RATIONALE
            note = _PURITY_NOTE
        case PinchCase.REGULAR_PLANE:
            ftype, f_pure = FType.REGULAR, "yes"
            rationale = "two independent pure squares generate freely: a polynomial ring"
            note = "regular rings have every ideal Frobenius closed"
        case PinchCase.ODD_ODD if p != 2:
            ftype, rationale = FType.F_INJECTIVE, _ODD_INJECTIVE_RATIONALE
            # the odd-odd family is Cohen-Macaulay (a complete intersection,
            # hence Gorenstein) exactly at n = 3
            if k == n:
                f_pure = "yes"
                note = "Gorenstein and F-injective in odd characteristic forces purity"
            else:
                f_pure = "unknown"
                note = "purity for this family in odd characteristic is an open question"
                test_exponent = Fte.open_question(
                    "no finiteness result for this F-injective non-Cohen-Macaulay family"
                )
        case _:
            rationale = _NILPOTENT_RATIONALE.get(case, _ONE_STEP_RATIONALE)
            ftype, f_pure = FType.F_NILPOTENT, "no"
            note, index = _NOT_PURE_NOTE, 1
            if case is PinchCase.MULTI:
                bound = multipinch_coordinate_bound(n, spec.d)
                index = multipinch_nilpotency_index(spec, p)
                test_exponent = Fte.bound(
                    n * ceil_log(p, bound),
                    "n*ceil(log_p((n-1)*(d^2-d)))",
                    f"{n} Frobenius steps per cleared entry bound {bound}",
                )
            elif k == n:
                test_exponent = Fte.exact(
                    1, "Cohen-Macaulay: the test exponent equals the HSL number, 1"
                )
            else:
                test_exponent = Fte.bound(
                    comb(n, k),
                    "n" if k == 1 else f"binom(n,{k})",
                    f"one nilpotent cohomology slot in homological degree {k}",
                )
    return FSingularityReport(
        ftype=ftype, f_pure=f_pure, hsl=index, fte=test_exponent, p=p,
        rationale=rationale, notes=(note,),
    )
