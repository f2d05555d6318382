"""Gap sets: what the ambient degree-d semigroup has that a pinch is missing.

A single pinch removing m has a closed-form missing set, one shape per
:class:`~veropinch.lattice.PinchCase`:

* ``INTERIOR``  — only m itself is missing.
* ``LINE``      — every (ds-1, 1) pattern in the axis pair of m.
* ``ODD_ODD`` and ``REGULAR_PLANE`` — every odd-odd pattern in the axis pair
  of m.
* ``SATURATED`` — nothing: the removed axis direction leaves the cone, so
  the pinched semigroup is saturated in its own cone and nothing is missing
  from its normalization.

The brute-force oracle therefore always compares against the normalization:
the spec itself for ``FULL`` and ``SATURATED``, the ambient slice otherwise.

A multipinch has a finite gap set, found by comparing its layers with the
ambient slice A's until the first full one.  One full layer t >= 1 of the
pinched semigroup S certifies every later layer: take v in A_{t+1} and any
w <= v of degree t*d.  Then w lies in A_t = S_t, so it is a sum of kept
generators, one of which, g, satisfies g <= w <= v.  Now v - g lies in
A_t = S_t, so v lies in S_{t+1}.  The gap layers are therefore contiguous,
and the layers before the first full one hold the whole gap set.

The argument holds for any pinch compared with A, so every oracle here walks
the gap layers only up to the first full one, whatever layer bound it was
given: the layers it skips hold no gap, and its answers stay exact.  Gaps are
counted on the layer masks and decoded only where a caller needs the vectors.

The paper's uniform coordinate bound (n-1)(d^2-d) — any vector with an entry
at or above it is a member — is no longer the search space; it is checked as
a theorem on the output: no gap may sit in a layer the bound already forces
full.
"""

from __future__ import annotations

import functools
import itertools
from enum import Enum
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from veropinch.exceptions import InvalidSpecError
from veropinch.lattice import ExponentVector, PinchCase, SemigroupSpec, _record, _refuse_over_cap
from veropinch.membership import gap_walk, is_member


class GapKind(str, Enum):
    FINITE = "finite"
    LINE = "line"
    ODD_ODD = "odd-odd"


def multipinch_coordinate_bound(n: int, d: int) -> int:
    """(n-1)(d^2-d): entries at or above this force membership in any multipinch."""
    return (n - 1) * (d * d - d)


@_record
class GapSet:
    """Missing vectors, either listed outright or as a parametric family.

    ``contains`` is the authoritative representation; ``materialize`` lists
    the members up to a degree bound and always agrees with it.  Families
    are never materialized without an explicit bound, nor past the
    ``VEROPINCH_MEMO_CAP`` entry cap.
    """

    n: int
    d: int
    kind: GapKind
    members: tuple[ExponentVector, ...] = ()  # FINITE only, sorted
    axes: tuple[int, int] | None = None  # LINE: (axis of d-1, axis of 1); ODD_ODD: the two odd axes

    @property
    def is_finite(self) -> bool:
        return self.kind is GapKind.FINITE

    def contains(self, v: Sequence[int]) -> bool:
        vec = tuple(v)
        if len(vec) != self.n:
            return False
        if any(c < 0 for c in vec):
            return False
        if self.kind is GapKind.FINITE:
            return vec in self.members
        i, j = self.axes  # type: ignore[misc]
        if any(c != 0 for k, c in enumerate(vec) if k not in (i, j)):
            return False
        if self.kind is GapKind.LINE:
            return vec[j] == 1 and vec[i] % self.d == self.d - 1
        return vec[i] % 2 == 1 and vec[j] % 2 == 1

    def materialize(self, max_degree: int) -> tuple[ExponentVector, ...]:
        """All gap vectors of degree <= max_degree, sorted.

        Raises ``ResourceLimitError`` before listing more vectors than the
        ``VEROPINCH_MEMO_CAP`` entry cap; the count is known in advance.
        """
        listing = f"the gap listing up to degree {max_degree}"
        if self.kind is GapKind.FINITE:
            _refuse_over_cap(len(self.members), listing)
            found = [m for m in self.members if m.degree() <= max_degree]
        elif self.kind is GapKind.LINE:
            _refuse_over_cap(max_degree // self.d, listing)
            i, j = self.axes  # type: ignore[misc]
            found = []
            for s in range(1, max_degree // self.d + 1):
                vec = [0] * self.n
                vec[i] = self.d * s - 1
                vec[j] = 1
                found.append(ExponentVector(vec))
        else:
            k = max_degree // 2  # odd a, b >= 1 with a + b <= max_degree
            _refuse_over_cap(k * (k + 1) // 2, listing)
            i, j = self.axes  # type: ignore[misc]
            found = []
            for a in range(1, max_degree, 2):
                for b in range(1, max_degree - a + 1, 2):
                    vec = [0] * self.n
                    vec[i] = a
                    vec[j] = b
                    found.append(ExponentVector(vec))
        return tuple(sorted(found))


def gap_set_closed_form(spec: SemigroupSpec) -> GapSet:
    """The single-pinch gap set, in the user's own coordinates.

    The removed vector is never reordered; the axis pair carrying the
    (d-1, 1) or (1, 1) pattern is detected so reports speak the coordinates
    the caller supplied.
    """
    n, d = spec.n, spec.d
    match spec.case:
        case PinchCase.FULL:
            raise InvalidSpecError("nothing was removed: the gap set is trivially empty")
        case PinchCase.MULTI:
            raise InvalidSpecError(
                "no closed form for multipinch gap sets; use multipinch_gap_set"
            )
        case PinchCase.SATURATED:
            return GapSet(n=n, d=d, kind=GapKind.FINITE, members=())
        case PinchCase.INTERIOR:
            return GapSet(n=n, d=d, kind=GapKind.FINITE, members=(spec.pinched(),))
        case PinchCase.LINE:
            m = spec.pinched()
            return GapSet(n=n, d=d, kind=GapKind.LINE, axes=(m.index(d - 1), m.index(1)))
        case _:  # ODD_ODD, REGULAR_PLANE: the two entries of m equal to 1
            i, j = (k for k, c in enumerate(spec.pinched()) if c == 1)
            return GapSet(n=n, d=d, kind=GapKind.ODD_ODD, axes=(i, j))


def _gap_layers(
    spec: SemigroupSpec, layer_bound: int | None = None
) -> Iterator[tuple[int, int, Callable[[], list[tuple[int, ...]]]]]:
    """The gap walk against the normalization, for t = 1 .. layer_bound.

    Stops at the first full layer, past which no layer holds a gap (see the
    module docstring).  With no bound it runs to that layer.
    """
    if layer_bound is not None and layer_bound < 1:
        raise InvalidSpecError(f"layer bound must be >= 1, got {layer_bound}")
    # Removing a pure power d*e_i cuts that axis ray out of the cone, leaving
    # a saturated semigroup that is its own normalization.
    if spec.case in (PinchCase.FULL, PinchCase.SATURATED):
        return iter(())
    return itertools.islice(itertools.takewhile(itemgetter(1), gap_walk(spec)), layer_bound)


def gap_set_bruteforce(
    spec: SemigroupSpec, layer_bound: int
) -> tuple[ExponentVector, ...]:
    """Layer-by-layer enumeration of the missing vectors up to layer_bound.

    Compares the spec's layers against its normalization's layers; this is
    the independent oracle the closed forms are checked against.  The walk
    stops early at the first full layer: no later layer holds a gap (see the
    module docstring), so the answer is exactly the gaps up to layer_bound.
    """
    missing: list[tuple[int, ...]] = []
    for _, _, vectors in _gap_layers(spec, layer_bound):
        missing.extend(vectors())
    return tuple(ExponentVector(v) for v in sorted(missing))


def gap_census(spec: SemigroupSpec, layer_bound: int, entry_bound: int) -> tuple[int, bool]:
    """(gap count of layers 1..layer_bound, whether every entry of those gaps is below entry_bound).

    ``len`` and ``all(v.max_entry() < entry_bound ...)`` of
    :func:`gap_set_bruteforce`, without building its vectors: the count is
    read off the masks, and only layers with t*d >= entry_bound are decoded,
    since below that no entry of a degree-t*d vector can reach the bound.
    """
    count, below = 0, True
    for t, found, vectors in _gap_layers(spec, layer_bound):
        count += found
        if below and t * spec.d >= entry_bound:
            below = all(max(v) < entry_bound for v in vectors())
    return count, below


def verify_gap_equivalence(
    spec: SemigroupSpec, t_max: int
) -> tuple[bool, tuple[ExponentVector, ...]]:
    """Cross-validate the closed form against the brute-force oracle.

    Returns (ok, symmetric difference up to degree t_max*d), the difference
    sorted and empty exactly when the two computations agree.  Full slices
    and multipinches have no closed form and raise ``InvalidSpecError``.
    """
    closed = set(gap_set_closed_form(spec).materialize(t_max * spec.d))
    brute = set(gap_set_bruteforce(spec, t_max))
    diff = tuple(sorted(closed ^ brute))
    return (not diff, diff)


@functools.lru_cache(maxsize=256)
def multipinch_gap_set(spec: SemigroupSpec) -> tuple[ExponentVector, ...]:
    """The complete (finite) gap set of a multipinch.

    This is :func:`gap_set_bruteforce` bounded by the first layer that the
    coordinate bound (n-1)(d^2-d) forces full: every vector there has an
    entry at or above the bound.  The walk stops at the first full layer,
    and one full layer certifies every later one (see the module
    docstring), so the result is the whole gap set, not a truncation.

    The layer walk raises ``ResourceLimitError`` before building a layer with
    more vectors than the ``VEROPINCH_MEMO_CAP`` entry cap, or a mask of more
    than 64 bits per capped vector.  The coordinate bound is checked, not
    assumed: a gap in the layer it forces full raises ``AssertionError``.
    """
    if spec.case is not PinchCase.MULTI:
        raise InvalidSpecError("multipinch_gap_set needs a multipinch spec")
    bound = multipinch_coordinate_bound(spec.n, spec.d)
    forced_full = spec.n * (bound - 1) // spec.d + 1
    gaps = gap_set_bruteforce(spec, forced_full)
    top = max(gaps, key=ExponentVector.degree, default=None)  # the first of the top layer
    if top is not None and top.degree() == forced_full * spec.d:
        raise AssertionError(
            f"{spec.describe()} misses {tuple(top)} in layer {forced_full}, where the "
            f"coordinate bound {bound} forces every vector in"
        )
    return gaps


def verify_principality(
    spec: SemigroupSpec, max_degree: int
) -> tuple[bool, tuple[ExponentVector, ...]]:
    """Check every closed-form gap vector up to max_degree is m + member (or m).

    Outside the ``SATURATED`` case the missing part is generated by the
    removed monomial m itself; in the saturated case the gap set is empty
    and nothing is checked.  Returns (ok, counterexamples).
    """
    gap = gap_set_closed_form(spec)  # rejects full slices and multipinches
    generator = spec.pinched()
    bad = []
    for v in gap.materialize(max_degree):
        w = v.sub_or_none(generator)
        if w is None or (any(w) and not is_member(w, spec)):
            bad.append(v)
    return (not bad, tuple(bad))
