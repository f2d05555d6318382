"""Gap sets: what the ambient degree-d semigroup has that a pinch is missing.

A :class:`GapSet` holds the missing vectors as boxes m + d*Π[0, c_i], each
edge c_i finite or infinite (a free axis), and reads its family off them.
A single pinch removing m misses one box, whose free axes its case decides:

* ``INTERIOR`` — none: only m itself is missing.
* ``LINE`` — the axis of m's entry d-1: every (ds-1, 1) pattern.
* ``ODD_ODD``, ``REGULAR_PLANE`` — both 1-entries of m: every odd-odd pattern.
* ``SATURATED`` — no box: the removed axis direction leaves the cone, so
  the pinched semigroup is saturated in its own cone and nothing is missing
  from its normalization.  The full slice (``FULL``) misses nothing either.

:func:`gap_set` gives any spec's gap set independently of that case split,
as the maximal boxes :func:`~veropinch.membership.gap_boxes` reads off the
Apéry set, exact in every degree.  Maximal boxes are unique, so
:func:`verify_gap_equivalence` checks the closed form by comparing the two
gap sets.  A multipinch's boxes are finite: :func:`multipinch_gap_set`
lists their points and :func:`gap_census` counts them up to a layer.

The paper's uniform coordinate bound (n-1)(d^2-d) — any vector with an entry
at or above it is a member — is checked as a theorem on the output: every
box's far corner must have its entries below it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from enum import Enum
from typing import Iterator, NamedTuple, Sequence

from veropinch.exceptions import InvalidSpecError
from veropinch.lattice import ExponentVector, PinchCase, SemigroupSpec
from veropinch.lattice import _refuse_over_cap
from veropinch.membership import Box, gap_boxes, is_member, walk_spec


class GapKind(str, Enum):
    FINITE = "finite"
    LINE = "line"
    ODD_ODD = "odd-odd"


def multipinch_coordinate_bound(n: int, d: int) -> int:
    """(n-1)(d^2-d): entries at or above this force membership in any multipinch."""
    return (n - 1) * (d * d - d)


class GapSet(NamedTuple):
    """Missing vectors as a union of boxes; everything else is read off the boxes.

    A box ``(corner, edges)`` holds corner + d*x for every x in N^n with
    x <= edges, each edge finite or ``math.inf`` (a free axis); its far
    corner is corner + d*edges.  The family (``kind``, ``axes``,
    ``is_finite``) is that of the box with the most free axes: none is
    ``FINITE``, one ``LINE``, two ``ODD_ODD``.  ``contains`` is the
    authoritative representation; ``materialize`` lists the members up to a
    degree bound, always in agreement, never past the entry cap.
    """

    n: int
    d: int
    boxes: tuple[Box, ...] = ()

    def _widest(self) -> tuple[list[int], Sequence[int]]:
        """(free axes, corner) of the first box with the most free axes; ([], ()) with no box."""
        families = [([i for i, e in enumerate(edges) if e == math.inf], corner) for corner, edges in self.boxes]
        return max(families, key=lambda family: len(family[0]), default=([], ()))

    @property
    def kind(self) -> GapKind:
        return (GapKind.FINITE, GapKind.LINE, GapKind.ODD_ODD)[len(self._widest()[0])]

    @property
    def is_finite(self) -> bool:
        return not self._widest()[0]

    @property
    def axes(self) -> tuple[int, ...] | None:
        """A family's free axes, then its corner's other nonzero axis; None when finite."""
        free, corner = self._widest()
        if not free:
            return None
        return tuple(free + [i for i, c in enumerate(corner) if c and i not in free])

    def entries_below(self, bound: int) -> bool:
        """Whether every entry of every gap is below bound, read on each box's far corner.

        A free axis has no far corner on it, so a box with one fails.
        """
        return all(c + self.d * e < bound for corner, edges in self.boxes for c, e in zip(corner, edges))

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
        """The gap vectors of degree <= max_degree, sorted, each once.

        A disjoint box's points are listed as bounded compositions, axis by
        axis, never as a cube of side s+1 cut down to the simplex.  Raises
        ``ResourceLimitError`` before listing more than the entry cap, counted
        exactly on the disjoint boxes of :func:`_reach`.
        """
        reach = list(_reach(self.boxes, self.d, max_degree))
        _refuse_over_cap(sum(_count(span, s) for _, span, s in reach), f"the gap listing up to degree {max_degree}")
        found = []
        for base, span, s in reach:
            points = [((), s)]  # (the point's first axes, the steps left for the rest)
            for b, e in zip(base, span):
                points = [(v + (b + self.d * k,), r - k) for v, r in points for k in range(min(e, r) + 1)]
            found.extend(ExponentVector(v) for v, _ in points)
        return tuple(sorted(found))


def _count(edges: Sequence[float], s: int) -> int:
    """How many x in N^n have x <= edges and |x| <= s, for s >= 0."""
    free = sum(e == math.inf for e in edges)
    bounds = [e for e in edges if 0 < e < math.inf]
    if not bounds:
        return math.comb(s + free, free)
    if not free and s >= sum(bounds):  # the whole box
        return math.prod(e + 1 for e in bounds)
    ways = [1] + [0] * s  # ways[k]: the x on the axes so far with |x| = k
    for e in bounds + [s] * free:
        prefix = list(itertools.accumulate(ways))
        ways = [p - (prefix[k - e - 1] if k > e else 0) for k, p in enumerate(prefix)]
    return sum(ways)


def _minus(low: tuple, high: tuple, edges: tuple) -> list[tuple[tuple, tuple]]:
    """The box low <= x <= high less Π[0, edges], as disjoint boxes (low, high).

    The t-th holds the x with x_t > edges_t and x_u <= edges_u for u < t.
    """
    if any(map(operator.gt, low, edges)):
        return [(low, high)]
    out = []
    for t, e in enumerate(edges):
        if high[t] > e:
            out.append((low[:t] + (e + 1,) + low[t + 1 :], high))
            high = high[:t] + (e,) + high[t + 1 :]
    return out


def _reach(boxes: Sequence[Box], d: int, max_degree: int) -> Iterator[tuple[list[int], list[float], int]]:
    """(base, span, s) for disjoint boxes that hold each point of ``boxes`` of degree <= max_degree once.

    A box's points are base + d*x for every x <= span with |x| <= s.  Boxes
    with two corners hold two residues mod d and never meet; of those with
    one corner, each drops the points of the ones before it.
    """
    classes: dict[tuple[int, ...], list[tuple[float, ...]]] = {}
    for corner, edges in boxes:
        classes.setdefault(corner, []).append(edges)
    for corner, group in classes.items():
        for j, edges in enumerate(group):
            parts = [((0,) * len(edges), edges)]
            for before in group[:j]:
                parts = [q for low, high in parts for q in _minus(low, high, before)]
            for low, high in parts:
                s = (max_degree - sum(corner)) // d - sum(low)
                if s >= 0:
                    yield [c + d * k for c, k in zip(corner, low)], [h - k for h, k in zip(high, low)], s


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
            return GapSet(n, d)
        case PinchCase.INTERIOR:
            free = ()
        case PinchCase.LINE:
            free = (removed[0].index(d - 1),)
        case _:  # ODD_ODD, REGULAR_PLANE
            free = tuple(k for k, c in enumerate(removed[0]) if c == 1)
    edges = tuple(math.inf if k in free else 0 for k in range(n))
    return GapSet(n, d, ((removed[0], edges),))


def gap_set(spec: SemigroupSpec) -> GapSet:
    """Any spec's gap set: :func:`~veropinch.membership.gap_boxes`, read off the Apéry set.

    Exact in every degree, and blind to the closed form it is checked against.
    """
    return GapSet(spec.n, spec.d, gap_boxes(spec))


def gap_census(spec: SemigroupSpec, layer_bound: int, entry_bound: int) -> tuple[int, bool]:
    """(gap count of layers 1..layer_bound, whether every entry of those gaps is below entry_bound).

    The length of ``gap_set(spec).materialize(layer_bound * spec.d)`` and
    whether its entries are all below the bound, without listing it: each
    disjoint box of :func:`_reach` holds ``_count(span, s)`` of those gaps,
    and its largest entry on axis i is base_i + d*min(span_i, s).  Neither
    answer sees the order of the axes, so the census is taken once per walk
    spec (see :func:`~veropinch.membership.walk_spec`) and kept for the next
    spec of its orbit.  Both stop at layer_bound >= 1, and a multipinch can
    have gaps past it: with all 40 removable generators of n=4, d=5 removed,
    bound 6 counts 2532 gaps, and :func:`multipinch_gap_set` has 2988.
    """
    if layer_bound < 1:
        raise InvalidSpecError(f"layer bound must be >= 1, got {layer_bound}")
    return _census(walk_spec(spec), layer_bound * spec.d, entry_bound)


@functools.lru_cache(maxsize=256)
def _census(spec: SemigroupSpec, top: int, entry_bound: int) -> tuple[int, bool]:
    count, below = 0, True
    for base, span, s in _reach(gap_set(spec).boxes, spec.d, top):
        count += _count(span, s)
        below = below and all(b + spec.d * min(e, s) < entry_bound for b, e in zip(base, span))
    return count, below


def verify_gap_equivalence(
    spec: SemigroupSpec, t_max: int
) -> tuple[bool, tuple[ExponentVector, ...]]:
    """Check the closed form against the Apéry boxes, in every degree.

    The maximal boxes of a gap set are unique, so the two agree exactly when
    their gap sets are equal.  Returns (ok, the vectors of degree <= t_max*d
    in one and not the other, sorted); t_max bounds only that listing.
    Multipinches have no closed form and raise ``InvalidSpecError``.
    """
    closed, found = gap_set_closed_form(spec), gap_set(spec)
    if closed == found:  # the closed form has at most one box: sorted
        return True, ()
    top = t_max * spec.d
    return False, tuple(sorted(set(closed.materialize(top)) ^ set(found.materialize(top))))


@functools.lru_cache(maxsize=256)
def multipinch_gap_set(spec: SemigroupSpec) -> tuple[ExponentVector, ...]:
    """The complete (finite) gap set of a multipinch: the points of :func:`gap_set`, sorted.

    They are listed up to the largest degree of a box's far corner.  The
    Apéry walk raises ``ResourceLimitError`` before building a layer with
    more vectors than the ``VEROPINCH_MEMO_CAP`` entry cap, or a mask of more
    than 64 bits per capped vector.  The coordinate bound (n-1)(d^2-d) is
    checked as the paper states it: a far-corner entry at or above it, or a
    free axis, raises ``AssertionError``.
    """
    if spec.case is not PinchCase.MULTI:
        raise InvalidSpecError("multipinch_gap_set needs a multipinch spec")
    gaps, bound = gap_set(spec), multipinch_coordinate_bound(spec.n, spec.d)
    if not gaps.entries_below(bound):
        raise AssertionError(f"{spec.describe()} has a gap entry at or above the coordinate bound {bound}")
    return gaps.materialize(max((sum(c) + spec.d * sum(e) for c, e in gaps.boxes), default=0))


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
