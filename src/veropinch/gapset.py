"""Gap sets: what the ambient degree-d semigroup has that a pinch is missing.

A single pinch removing m misses one box m + d*Π[0, c_i] of vectors, each
edge c_i 0 or infinite.  The case of m decides its free (infinite) axes:

* ``INTERIOR`` — none: only m itself is missing.
* ``LINE`` — the axis of m's entry d-1: every (ds-1, 1) pattern.
* ``ODD_ODD``, ``REGULAR_PLANE`` — both 1-entries of m: every odd-odd pattern.
* ``SATURATED`` — no box: the removed axis direction leaves the cone, so
  the pinched semigroup is saturated in its own cone and nothing is missing
  from its normalization.  The full slice (``FULL``) misses nothing either.

The brute-force oracle therefore always compares against the normalization:
the spec itself for ``FULL`` and ``SATURATED``, the ambient slice otherwise.

A multipinch has a finite gap set, found by comparing its layers with the
ambient slice's, the simplex of each degree, until the first full one:
:func:`~veropinch.membership.gap_walk` proves that one full layer t >= 1
certifies every later layer, so the gap layers are contiguous.  The argument
holds for any pinch, so every oracle here walks the gap layers only up to the
first full one, whatever layer bound it was given: the layers it skips hold
no gap, and its answers stay exact.  Gaps are counted on the layer masks and
decoded only where a caller needs the vectors.

The paper's uniform coordinate bound (n-1)(d^2-d) — any vector with an entry
at or above it is a member — is checked as a theorem on the output: no gap
may sit in a layer the bound already forces full.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import NamedTuple, Sequence

from veropinch.exceptions import InvalidSpecError
from veropinch.lattice import ExponentVector, PinchCase, SemigroupSpec, weak_compositions
from veropinch.lattice import _refuse_over_cap
from veropinch.membership import gap_walk, is_member


class GapKind(str, Enum):
    FINITE = "finite"
    LINE = "line"
    ODD_ODD = "odd-odd"


def multipinch_coordinate_bound(n: int, d: int) -> int:
    """(n-1)(d^2-d): entries at or above this force membership in any multipinch."""
    return (n - 1) * (d * d - d)


class GapSet(NamedTuple):
    """Missing vectors as a union of boxes, labelled by their family.

    A box ``(corner, edges)`` holds corner + d*x for every x in N^n with
    x <= edges, each edge 0 or ``math.inf`` (a free axis).  ``contains`` is
    the authoritative representation; ``materialize`` lists the members up
    to a degree bound, always in agreement, never past the entry cap.
    """

    n: int
    d: int
    kind: GapKind
    boxes: tuple[tuple[ExponentVector, tuple[float, ...]], ...] = ()

    @property
    def is_finite(self) -> bool:
        return not any(any(edges) for _, edges in self.boxes)

    @property
    def axes(self) -> tuple[int, ...] | None:
        """A family's free axes, then its corner's other nonzero axis; None when finite."""
        for corner, edges in self.boxes:
            free = [i for i, e in enumerate(edges) if e]
            if free:
                return tuple(free + [i for i, c in enumerate(corner) if c and not edges[i]])
        return None

    def contains(self, v: Sequence[int]) -> bool:
        if len(v) != self.n:
            return False
        for corner, edges in self.boxes:
            for c, a, e in zip(v, corner, edges):
                x, r = divmod(c - a, self.d)
                if r or not 0 <= x <= e:
                    break
            else:
                return True
        return False

    def materialize(self, max_degree: int) -> tuple[ExponentVector, ...]:
        """All gap vectors of degree <= max_degree, sorted.

        Raises ``ResourceLimitError`` before listing more than the entry cap:
        a box with f free axes holds C(s+f, f), s = (max_degree - |corner|) // d.
        """
        reach, count = [], 0
        for corner, edges in self.boxes:
            s = (max_degree - sum(corner)) // self.d
            if s >= 0:
                free = [i for i, e in enumerate(edges) if e]
                reach.append((s, corner, free))
                count += math.comb(s + len(free), len(free))
        _refuse_over_cap(count, f"the gap listing up to degree {max_degree}")
        found = []
        for s, corner, free in reach:
            if not free:
                found.append(corner)
                continue
            for *x, _ in weak_compositions(s, len(free) + 1):  # x in N^free, |x| <= s
                vec = list(corner)
                for i, k in zip(free, x):
                    vec[i] += self.d * k
                found.append(ExponentVector(vec))
        return tuple(sorted(found))


def gap_set_closed_form(spec: SemigroupSpec) -> GapSet:
    """The gap set of a single pinch or the full slice: the box the module docstring names.

    The removed vector is never reordered, so reports speak the coordinates
    the caller supplied.  A multipinch raises ``InvalidSpecError``.
    """
    n, d, removed = spec.n, spec.d, spec.removed
    match spec.case:
        case PinchCase.MULTI:
            raise InvalidSpecError("no closed form for multipinch gap sets; use multipinch_gap_set")
        case PinchCase.FULL | PinchCase.SATURATED:
            return GapSet(n=n, d=d, kind=GapKind.FINITE)
        case PinchCase.INTERIOR:
            kind, free = GapKind.FINITE, ()
        case PinchCase.LINE:
            kind, free = GapKind.LINE, (removed[0].index(d - 1),)
        case _:  # ODD_ODD, REGULAR_PLANE
            kind, free = GapKind.ODD_ODD, tuple(k for k, c in enumerate(removed[0]) if c == 1)
    edges = tuple(math.inf if k in free else 0 for k in range(n))
    return GapSet(n=n, d=d, kind=kind, boxes=((removed[0], edges),))


def gap_set_bruteforce(
    spec: SemigroupSpec, layer_bound: int
) -> tuple[ExponentVector, ...]:
    """Layer-by-layer enumeration of the missing vectors up to layer_bound.

    Compares the spec's layers against its normalization's layers; this is
    the independent oracle the closed forms are checked against.  The walk
    stops early at the first full layer: no later layer holds a gap (see
    :func:`~veropinch.membership.gap_walk`), so the answer is exactly the
    gaps up to layer_bound.
    """
    missing: list[tuple[int, ...]] = []
    for _, _, vectors in gap_walk(spec, layer_bound):
        missing.extend(vectors())
    return tuple(ExponentVector(v) for v in sorted(missing))


def gap_census(spec: SemigroupSpec, layer_bound: int, entry_bound: int) -> tuple[int, bool]:
    """(gap count of layers 1..layer_bound, whether every entry of those gaps is below entry_bound).

    ``len`` and ``all(v.max_entry() < entry_bound ...)`` of
    :func:`gap_set_bruteforce`, without building its vectors: the count is
    read off the masks, and only layers with t*d >= entry_bound are decoded,
    since below that no entry of a degree-t*d vector can reach the bound.
    Both stop at layer_bound, and a multipinch can have gaps past it: with
    all 40 removable generators of n=4, d=5 removed, bound 6 counts 2532
    gaps, and :func:`multipinch_gap_set` has 2988.
    """
    count, below = 0, True
    for t, found, vectors in gap_walk(spec, layer_bound):
        count += found
        if below and t * spec.d >= entry_bound:
            below = all(max(v) < entry_bound for v in vectors())
    return count, below


def verify_gap_equivalence(
    spec: SemigroupSpec, t_max: int
) -> tuple[bool, tuple[ExponentVector, ...]]:
    """Cross-validate the closed form against the brute-force oracle.

    Returns (ok, symmetric difference up to degree t_max*d), the difference
    sorted and empty exactly when the two computations agree.  Multipinches
    have no closed form and raise ``InvalidSpecError``.
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
    and one full layer certifies every later one (see
    :func:`~veropinch.membership.gap_walk`), so the result is the whole gap
    set, not a truncation.

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
    gap = gap_set_closed_form(spec)  # rejects multipinches
    generator = spec.pinched()  # rejects the full slice
    bad = []
    for v in gap.materialize(max_degree):
        w = v.sub_or_none(generator)
        if w is None or (any(w) and not is_member(w, spec)):
            bad.append(v)
    return (not bad, tuple(bad))
