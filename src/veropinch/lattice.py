"""Exponent vectors, degree-d generating sets, and pinch descriptions.

Every computation in this package reduces to integer combinatorics on points
of N^n.  This module provides the ground types: ``ExponentVector`` (a
lattice point), the degree-d slice of N^n as a sorted tuple of them
(:func:`veronese_generators`), and ``SemigroupSpec`` (which generators were
removed, and how), plus the ``PinchCase`` of a spec, on which every answer
the package gives depends.  The underlying field of the semigroup ring never
appears as data; only the characteristic survives, as a parameter of the
``charp`` module.

This is also the one home of the entry cap (default 10**7, override with the
``VEROPINCH_MEMO_CAP`` environment variable).  The slice, every layer and every
gap listing is checked against it before it is built, and hitting it raises
:class:`ResourceLimitError` rather than truncating.
"""

from __future__ import annotations

import functools
import os
from enum import Enum
from math import comb
from typing import Iterable, Iterator, NamedTuple, Sequence

from veropinch.exceptions import InvalidSpecError, ResourceLimitError

DEFAULT_MEMO_CAP = 10_000_000
MEMO_CAP_ENV = "VEROPINCH_MEMO_CAP"


def _memo_cap() -> int:
    raw = os.environ.get(MEMO_CAP_ENV)
    if raw is None:
        return DEFAULT_MEMO_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InvalidSpecError(f"{MEMO_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise InvalidSpecError(f"{MEMO_CAP_ENV} must be positive, got {cap}")
    return cap


def _refuse_over_cap(count: int, what: str, unit: str = "vectors", cap: int | None = None) -> None:
    """Raise before building ``what`` when its ``count`` units exceed the cap (read if not given)."""
    if cap is None:
        cap = _memo_cap()
    if count > cap:
        raise ResourceLimitError(f"{what} has {count} {unit}, above the {MEMO_CAP_ENV} cap {cap}")


class ExponentVector(tuple):
    """A point of N^n (n >= 2) recording a monomial exponent.

    Subclasses ``tuple``, so vectors are immutable, hash like tuples, compare
    lexicographically, and mix freely with plain tuples in sets and tests.
    Coordinates are arbitrary-precision Python integers, so arithmetic cannot
    wrap.
    """

    __slots__ = ()

    def __new__(cls, coords: Iterable[int]) -> "ExponentVector":
        vec = super().__new__(cls, coords)
        if len(vec) < 2:
            raise InvalidSpecError(
                f"exponent vectors need at least 2 coordinates, got {len(vec)}"
            )
        for c in vec:
            if not isinstance(c, int) or c < 0:
                raise InvalidSpecError(
                    f"coordinates must be nonnegative integers, got {c!r}"
                )
        return vec

    def degree(self) -> int:
        """Coordinate sum |a|."""
        return sum(self)

    def max_entry(self) -> int:
        """Largest single coordinate."""
        return max(self)

    def add(self, other: Sequence[int]) -> "ExponentVector":
        return ExponentVector(a + b for a, b in zip(self, other))

    def scale(self, k: int) -> "ExponentVector":
        if k < 0:
            raise InvalidSpecError("scaling factor must be nonnegative")
        return ExponentVector(k * a for a in self)

    def sub_or_none(self, other: Sequence[int]) -> "ExponentVector | None":
        """Coordinatewise difference, or None when it would leave N^n."""
        out = []
        for a, b in zip(self, other):
            c = a - b
            if c < 0:
                return None
            out.append(c)
        return ExponentVector(out)

    def __repr__(self) -> str:  # clearer pytest diffs than the bare tuple repr
        return f"ev{tuple.__repr__(self)}"


def weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`.

    Yielded lazily in descending lexicographic order; there are
    C(total+parts-1, parts-1) of them.  Raises ``InvalidSpecError`` when
    parts < 1 or total < 0.
    """
    if parts < 1 or total < 0:
        raise InvalidSpecError(f"need parts >= 1 and total >= 0, got parts={parts}, total={total}")
    c, last = [total] + [0] * (parts - 1), parts - 1
    while True:
        yield tuple(c)
        # next: move one unit from the last nonzero c[i], i < last, and all of c[last] to c[i+1]
        i = last - 1
        while i >= 0 and not c[i]:
            i -= 1
        if i < 0:
            return
        c[i] -= 1
        c[last], c[i + 1] = 0, c[last] + 1  # in this order, as i+1 may be last


def _check_slice(n: int, d: int) -> None:
    if n < 2:
        raise InvalidSpecError(f"need at least 2 variables, got n={n}")
    if d < 2:
        raise InvalidSpecError(f"need degree at least 2, got d={d}")


@functools.lru_cache(maxsize=None)
def veronese_generators(n: int, d: int) -> tuple[ExponentVector, ...]:
    """The degree-d slice {a in N^n : |a| = d}, sorted, refused past the entry cap."""
    _check_slice(n, d)
    count = comb(d + n - 1, n - 1)
    _refuse_over_cap(count, f"the degree-{d} slice of N^{n}")
    members = tuple(sorted(map(ExponentVector, weak_compositions(d, n))))
    assert len(members) == count
    return members


class PinchCase(Enum):
    """The case split that every answer about a spec follows from.

    Exactly one case holds for every spec, and :func:`pinch_spec` decides
    which: ``FULL`` (nothing removed), ``MULTI`` (a multipinch), or, for a
    single pinch, one of the other five by how max(m) compares with d.
    """

    FULL = "full"
    MULTI = "multi"
    SATURATED = "saturated"
    REGULAR_PLANE = "regular-plane"
    ODD_ODD = "odd-odd"
    LINE = "line"
    INTERIOR = "interior"


_KIND = {PinchCase.FULL: "full-veronese", PinchCase.MULTI: "multi-pinch"}


class SemigroupSpec(NamedTuple):
    """A validated description of a (multi-)pinched degree-d semigroup.

    ``removed`` lists the degree-d generators taken out of the full slice;
    the semigroup is generated by the rest.  All instances come from
    :func:`pinch_spec`, which enforces the structural constraints and sets
    the :class:`PinchCase`.
    """

    n: int
    d: int
    removed: tuple[ExponentVector, ...]  # sorted
    case: PinchCase

    def generators(self) -> tuple[ExponentVector, ...]:
        """The slice less the removed vectors, filtered afresh on each call."""
        removed = set(self.removed)
        return tuple(g for g in veronese_generators(self.n, self.d) if g not in removed)

    @property
    def kind(self) -> str:
        """``full-veronese``, ``single-pinch`` or ``multi-pinch``."""
        return _KIND.get(self.case, "single-pinch")

    def pinched(self) -> ExponentVector:
        """The removed vector of a single pinch."""
        if self.case in (PinchCase.FULL, PinchCase.MULTI):
            raise InvalidSpecError(f"{self.kind} spec has no single pinched vector")
        return self.removed[0]

    def describe(self) -> str:
        if self.case is PinchCase.FULL:
            return f"full Veronese slice n={self.n}, d={self.d}"
        removed = ", ".join(str(tuple(m)) for m in self.removed)
        return f"{self.kind} n={self.n}, d={self.d}, removed {removed}"


def pinch_spec(
    n: int,
    d: int,
    removed: Iterable[Sequence[int]],
    *,
    multipinch: bool = False,
) -> SemigroupSpec:
    """Validate a pinch description and decide its :class:`PinchCase`.

    An empty removal gives the full Veronese slice.  One removed vector is a
    single pinch unless ``multipinch=True`` forces the multipinch treatment;
    its case follows from how max(m) compares with d, and this is the one
    place that rule runs.  Two or more removed vectors always form a
    multipinch, which requires d > 2 and max(m) < d-1 for every removed m
    (the generators with an entry >= d-1 must all stay).
    """
    _check_slice(n, d)  # the slice itself is built only when generators are read
    vecs = sorted({ExponentVector(v) for v in removed})
    for m in vecs:
        if len(m) != n:
            raise InvalidSpecError(f"removed vector {tuple(m)} has arity {len(m)}, expected {n}")
        if m.degree() != d:
            raise InvalidSpecError(f"removed vector {tuple(m)} has degree {m.degree()}, expected {d}")

    if not vecs:
        return SemigroupSpec(n=n, d=d, removed=(), case=PinchCase.FULL)

    if len(vecs) == 1 and not multipinch:
        top = vecs[0].max_entry()
        if top == d:  # a pure power, whose axis ray leaves the cone
            case = PinchCase.SATURATED
        elif top < d - 1:
            case = PinchCase.INTERIOR
        elif d > 2:
            case = PinchCase.LINE
        else:  # d = 2 and m has two entries 1
            case = PinchCase.REGULAR_PLANE if n == 2 else PinchCase.ODD_ODD
        return SemigroupSpec(n=n, d=d, removed=tuple(vecs), case=case)

    # multipinch path: every vector with an entry >= d-1 must stay in place
    if d <= 2:
        raise InvalidSpecError("multipinch requires degree d > 2")
    for m in vecs:
        if m.max_entry() >= d - 1:
            raise InvalidSpecError(
                f"multipinch may not remove {tuple(m)}: max entry "
                f"{m.max_entry()} >= d-1 = {d - 1}"
            )
    return SemigroupSpec(n=n, d=d, removed=tuple(vecs), case=PinchCase.MULTI)
