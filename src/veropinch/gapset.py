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
lists them whole and :func:`gap_census` counts them.  :func:`_reach` alone
cuts a read by degree: at an int, or at ``math.inf``, which is every degree.

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
from typing import NamedTuple, Sequence

from veropinch.exceptions import InvalidSpecError, ResourceLimitError
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
    authoritative representation; ``size`` counts and ``materialize`` lists
    the members up to a degree bound (``math.inf``: all), never past the cap.
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
        free = len(self._widest()[0])
        if free > 2:
            raise InvalidSpecError(f"no gap family has {free} free axes")
        return (GapKind.FINITE, GapKind.LINE, GapKind.ODD_ODD)[free]

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

    def entries_below(self, bound: int, max_degree: float = math.inf) -> bool:
        """Whether every entry of every gap of degree <= max_degree is below bound.

        Read on the far corner of each disjoint box of :func:`_reach`, cut to
        the steps the degree leaves it.  With ``math.inf``, every degree: a
        free axis has no far corner on it, so a box with one fails.
        """
        return _below(_reach(self.boxes, self.d, max_degree), self.d, bound)

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

    def size(self, max_degree: float = math.inf) -> float:
        """How many gap vectors have degree <= max_degree; ``math.inf`` when a free axis is not cut."""
        return _size(_reach(self.boxes, self.d, max_degree))

    def materialize(self, max_degree: float) -> tuple[ExponentVector, ...]:
        """The gap vectors of degree <= max_degree, sorted, each once; ``math.inf`` lists all.

        A disjoint box's points are listed as bounded compositions, axis by
        axis, never as a cube of side s+1 cut down to the simplex.  Raises
        ``ResourceLimitError`` before listing more than the entry cap, counted
        as :meth:`size` counts them: a free axis with ``math.inf`` never lists.
        """
        return _listing(_reach(self.boxes, self.d, max_degree), self.d, max_degree)


Part = tuple[list[int], list[float], float]


def _size(parts: Sequence[Part]) -> float:
    return sum(_count(span, s) for _, span, s in parts)


def _below(parts: Sequence[Part], d: int, bound: int) -> bool:
    return all(b + d * min(e, s) < bound for base, span, s in parts for b, e in zip(base, span))


def _listing(parts: Sequence[Part], d: int, max_degree: float) -> tuple[ExponentVector, ...]:
    what = f"the gap listing up to degree {max_degree}"
    count = _size(parts)
    if count == math.inf:
        raise ResourceLimitError(f"{what} has inf vectors: a free axis never ends, so no cap admits the listing")
    _refuse_over_cap(count, what)
    found = []
    for base, span, s in parts:
        points = [((), s)]  # (the point's first axes, the steps left for the rest)
        for b, e in zip(base, span):
            points = [(v + (b + d * k,), r - k) for v, r in points for k in range(min(e, r) + 1)]
        found.extend(ExponentVector(v) for v, _ in points)
    return tuple(sorted(found))


def _count(edges: Sequence[float], s: float) -> float:
    """How many x in N^n have x <= edges and |x| <= s, for s >= 0 or ``math.inf``."""
    if s >= sum(edges):  # the whole box: math.inf when s is and an axis is free
        return math.prod(e + 1 for e in edges)
    free = sum(e == math.inf for e in edges)
    bounds = [e for e in edges if 0 < e < math.inf]
    if not bounds:
        return math.comb(s + free, free)
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


def _reach(boxes: Sequence[Box], d: int, max_degree: float) -> list[Part]:
    """(base, span, s) for disjoint boxes that hold each point of ``boxes`` of degree <= max_degree once.

    The one degree cut: max_degree is an int, or ``math.inf`` (then s is).
    A box's points are base + d*x for every x <= span with |x| <= s.  Boxes
    with two corners hold two residues mod d and never meet; of those with
    one corner, each drops the points of the ones before it.
    """
    if not (isinstance(max_degree, int) or max_degree == math.inf):
        raise InvalidSpecError(f"a degree bound is an int or math.inf, got {max_degree!r}")
    classes: dict[tuple[int, ...], list[tuple[float, ...]]] = {}
    out = []
    for corner, edges in boxes:
        classes.setdefault(corner, []).append(edges)
    for corner, group in classes.items():
        steps = max_degree if max_degree == math.inf else (max_degree - sum(corner)) // d
        for j, edges in enumerate(group):
            parts = [((0,) * len(edges), edges)]
            for before in group[:j]:
                parts = [q for low, high in parts for q in _minus(low, high, before)]
            for low, high in parts:
                s = steps - sum(low)
                if s >= 0:
                    out.append(([c + d * k for c, k in zip(corner, low)], [h - k for h, k in zip(high, low)], s))
    return out


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


def gap_census(spec: SemigroupSpec, layer_bound: float, entry_bound: int) -> tuple[float, bool]:
    """(gap count of layers 1..layer_bound, whether every entry of those gaps is below entry_bound).

    ``size`` and ``entries_below`` of ``gap_set(spec)`` at degree
    layer_bound * d, both read off one :func:`_reach` of its boxes without
    listing them.  Neither sees the order of the axes, so the census is taken
    once per walk spec (see :func:`~veropinch.membership.walk_spec`) and kept
    for the next spec of its orbit.  layer_bound is an int >= 1, or
    ``math.inf`` for every layer: with all 40 removable generators of n=4,
    d=5 removed, 6 counts 2532 gaps, and ``math.inf`` all 2988.
    """
    if not (isinstance(layer_bound, int) or layer_bound == math.inf) or layer_bound < 1:
        raise InvalidSpecError(f"a layer bound is an int >= 1 or math.inf, got {layer_bound!r}")
    return _census(walk_spec(spec), layer_bound * spec.d, entry_bound)


@functools.lru_cache(maxsize=256)
def _census(spec: SemigroupSpec, top: float, entry_bound: int) -> tuple[float, bool]:
    parts = _reach(gap_set(spec).boxes, spec.d, top)
    return _size(parts), _below(parts, spec.d, entry_bound)


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

    They are listed whole, as ``materialize(math.inf)`` lists them, from the
    one :func:`_reach` the coordinate bound is checked on.  The Apéry walk
    raises ``ResourceLimitError`` before building a layer with more vectors
    than the ``VEROPINCH_MEMO_CAP`` entry cap, or a mask of more than 64 bits
    per capped vector.  The coordinate bound (n-1)(d^2-d) is
    checked as the paper states it: a far-corner entry at or above it, or a
    free axis, raises ``AssertionError``.
    """
    if spec.case is not PinchCase.MULTI:
        raise InvalidSpecError("multipinch_gap_set needs a multipinch spec")
    parts = _reach(gap_set(spec).boxes, spec.d, math.inf)
    bound = multipinch_coordinate_bound(spec.n, spec.d)
    if not _below(parts, spec.d, bound):
        raise AssertionError(f"{spec.describe()} has a gap entry at or above the coordinate bound {bound}")
    return _listing(parts, spec.d, math.inf)


def verify_principality(
    spec: SemigroupSpec, max_degree: int
) -> tuple[bool, tuple[ExponentVector, ...]]:
    """Check that every closed-form gap vector is m + member (or m), in every degree.

    Every such gap is m + d*x with x on the box's free axes, so all of them
    are when d*e_i is a member for each free axis i: at most two queries,
    and none for a spec with no box.  Returns (ok, the counterexamples of
    degree <= max_degree); max_degree bounds only that listing.
    """
    gap = gap_set_closed_form(spec)  # rejects multipinches
    generator = spec.pinched()  # rejects the full slice
    if all(is_member([spec.d * (k == i) for k in range(spec.n)], spec) for i in gap._widest()[0]):
        return True, ()
    shifts = [(v, v.sub_or_none(generator)) for v in gap.materialize(max_degree)]
    return False, tuple(v for v, w in shifts if w is None or (any(w) and not is_member(w, spec)))
