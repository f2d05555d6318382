"""Exact membership testing and layer enumeration for pinched semigroups.

Two complementary engines live here, because the two access patterns want
opposite strategies:

* :func:`is_member` / :func:`decompose` — memoized top-down search, good for
  sparse queries (a point is a member iff it is zero or some generator can be
  subtracted to land on a member).  The search is depth first and stops at
  the first member child, so a member query never explores the siblings it
  did not need; its stack holds at most degree/d frames.
* :func:`layer_members` — bottom-up dense enumeration of everything writable
  as a sum of exactly t generators, good for oracle sweeps.  Layers are not
  cached per spec: an ascending walk builds layer t+1 from layer t, and
  refuses any layer with more than the entry cap of vectors (counted as
  C(td+n-1, n-1), the size of the ambient layer).  Only the ambient slice's
  layers are cached, because every spec with the same (n, d) shares them.

A consistency property ties them together: a vector of degree t*d is a member
iff it shows up in layer t.

Memo tables are keyed per spec and bounded by an entry cap (default 10**7,
override with the ``VEROPINCH_MEMO_CAP`` environment variable).  Hitting the
cap raises :class:`ResourceLimitError` rather than silently evicting, so
oracle answers are never approximate.  Entries are only ever written with
their final value, so sharing a table across threads cannot corrupt results;
answers are identical to sequential execution.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass
from math import comb
from typing import Iterator, Sequence

from veropinch.exceptions import InvalidSpecError, ResourceLimitError
from veropinch.lattice import (
    ExponentVector,
    PinchCase,
    SemigroupSpec,
    weak_compositions,
)

DEFAULT_MEMO_CAP = 10_000_000
MEMO_CAP_ENV = "VEROPINCH_MEMO_CAP"

# Layer enumeration packs each coordinate into a fixed-width bit field so a
# vector sum is a single integer addition.  24 bits per coordinate keeps sums
# carry-free for every degree this package will ever enumerate.
_SHIFT = 24
_MASK = (1 << _SHIFT) - 1
_COORD_LIMIT = 1 << (_SHIFT - 1)

_memo_tables: dict[SemigroupSpec, dict[tuple[int, ...], bool]] = {}


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


def _refuse_over_cap(count: int, what: str) -> None:
    """Raise before building ``what`` when its ``count`` vectors exceed the cap."""
    cap = _memo_cap()
    if count > cap:
        raise ResourceLimitError(
            f"{what} has {count} vectors, above the {MEMO_CAP_ENV} cap {cap}"
        )


def reset_membership_cache() -> None:
    """Drop all memo tables and cached ambient layers (mainly for tests)."""
    _memo_tables.clear()
    _generators_descending.cache_clear()
    _full_layer_codes.cache_clear()


@functools.lru_cache(maxsize=None)
def _generators_descending(spec: SemigroupSpec) -> tuple[tuple[int, ...], ...]:
    # Descending lexicographic trial order; fixed so witnesses are reproducible.
    return tuple(sorted((tuple(g) for g in spec.generators()), reverse=True))


def _sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...] | None:
    out = []
    for x, y in zip(a, b):
        z = x - y
        if z < 0:
            return None
        out.append(z)
    return tuple(out)


def _settle(
    memo: dict[tuple[int, ...], bool], point: tuple[int, ...], value: bool,
    cap: int, spec: SemigroupSpec,
) -> None:
    """Write a point's final value, refusing to grow the memo past the cap."""
    memo[point] = value
    if len(memo) > cap:
        raise ResourceLimitError(
            f"membership memo for {spec.describe()} exceeded {cap} entries"
        )


def _member(point: tuple[int, ...], spec: SemigroupSpec) -> bool:
    """Memoized membership for a point whose degree is a multiple of d."""
    memo = _memo_tables.setdefault(spec, {})
    known = memo.get(point)
    if known is not None:
        return known
    gens = _generators_descending(spec)
    cap = _memo_cap()
    # Depth-first search over frames [point, next generator index].  A frame
    # pushes one unresolved child at a time and, if that child is not a
    # member, resumes at the next generator.  The first member child settles
    # the frame and every open ancestor (each frame is a child of the one
    # below it), so untried siblings are never searched.  Each frame sits d
    # below the one under it, so the stack holds at most degree/d frames:
    # an explicit stack, because user-supplied degrees can push that depth
    # past the interpreter's recursion limit.
    stack = [[point, 0]]
    while stack:
        frame = stack[-1]
        cur = frame[0]
        member = not any(cur)  # the zero point is the empty sum
        if not member:
            for i in range(frame[1], len(gens)):
                child = _sub(cur, gens[i])
                if child is None:
                    continue
                val = memo.get(child)
                if val is None:
                    frame[1] = i + 1
                    stack.append([child, 0])
                    break
                if val:
                    member = True
                    break
            else:
                stack.pop()
                _settle(memo, cur, False, cap, spec)
                continue
        if member:
            for open_point, _ in stack:
                _settle(memo, open_point, True, cap, spec)
            stack.clear()
    return memo[point]


def is_member(e: Sequence[int], spec: SemigroupSpec) -> bool:
    """True iff e is a finite N-linear combination of the spec's generators.

    Total: a degree that is not a multiple of d simply returns False.
    """
    point = tuple(ExponentVector(e))
    if len(point) != spec.n:
        raise InvalidSpecError(f"point has arity {len(point)}, spec has n={spec.n}")
    if sum(point) % spec.d != 0:
        return False
    return _member(point, spec)


@dataclass(frozen=True)
class Decomposition:
    """A witness that ``target`` is a sum of generators.

    All generators share degree d, so the number of parts is forced to be
    degree(target)/d.
    """

    parts: tuple[ExponentVector, ...]
    target: ExponentVector

    def __post_init__(self) -> None:
        total = tuple(sum(c) for c in zip(*self.parts)) if self.parts else (0,) * len(self.target)
        if total != tuple(self.target):
            raise InvalidSpecError("decomposition parts do not sum to the target")


def decompose(e: Sequence[int], spec: SemigroupSpec) -> Decomposition | None:
    """A membership witness, or None for non-members.

    Deterministic: at every step it takes the first generator, in descending
    lex order, whose remainder is a member (tie-breaking is cosmetic, the
    boolean answer never depends on it).  The membership search tries
    children in that same order and records each one it tries, so after
    :func:`is_member` the witness is read from the memo without a new search.
    """
    target = ExponentVector(e)
    if not is_member(target, spec):
        return None
    gens = _generators_descending(spec)
    parts: list[ExponentVector] = []
    cur = tuple(target)
    while any(cur):
        for g in gens:
            child = _sub(cur, g)
            if child is not None and _member(child, spec):
                parts.append(ExponentVector(g))
                cur = child
                break
        else:  # pragma: no cover - membership of cur guarantees a step exists
            raise AssertionError(f"no generator step from member {cur}")
    return Decomposition(parts=tuple(parts), target=target)


def _pack(v: Sequence[int]) -> int:
    code = 0
    for c in v:
        code = (code << _SHIFT) | c
    return code


def _unpack(code: int, n: int) -> tuple[int, ...]:
    out = [0] * n
    for i in range(n - 1, -1, -1):
        out[i] = code & _MASK
        code >>= _SHIFT
    return tuple(out)


def _layer_step(codes: frozenset[int], gen_codes: tuple[int, ...]) -> frozenset[int]:
    return frozenset(v + g for v in codes for g in gen_codes)


def _check_layer(spec: SemigroupSpec, t: int) -> None:
    """Refuse to build layer t past the packed-coordinate limit or the entry cap.

    Layer t holds at most the C(td+n-1, n-1) vectors of degree t*d.
    """
    if t * spec.d >= _COORD_LIMIT:
        raise ResourceLimitError(
            f"layer degree {t * spec.d} exceeds the packed-coordinate limit"
        )
    size = comb(t * spec.d + spec.n - 1, spec.n - 1)
    _refuse_over_cap(size, f"layer {t} of {spec.describe()}")


def _layers(spec: SemigroupSpec) -> Iterator[frozenset[int]]:
    """Layers 0, 1, 2, ... of the spec as packed codes, each built from the last.

    Layer t+1 is checked and built only when the caller asks for it, so a
    caller that stops at layer t never pays for (or trips the cap on) t+1.
    """
    gen_codes = tuple(_pack(g) for g in spec.generators())
    codes = frozenset([0])
    for t in itertools.count(1):
        yield codes
        _check_layer(spec, t)
        codes = _layer_step(codes, gen_codes)


@functools.lru_cache(maxsize=512)
def _full_layer_codes(n: int, d: int, t: int) -> frozenset[int]:
    # Layer t of the unpinched slice is every composition of t*d: any vector
    # of degree t*d splits greedily into t degree-d parts.
    return frozenset(_pack(c) for c in weak_compositions(t * d, n))


def layer_members(spec: SemigroupSpec, t: int) -> tuple[ExponentVector, ...]:
    """All sums of exactly t generators, i.e. the members of degree t*d.

    Returned sorted for deterministic iteration.
    """
    if t < 0:
        raise InvalidSpecError(f"layer index must be nonnegative, got {t}")
    if spec.case is PinchCase.FULL:
        _check_layer(spec, t)
        codes = _full_layer_codes(spec.n, spec.d, t)
    else:
        codes = next(itertools.islice(_layers(spec), t, None))
    return tuple(
        ExponentVector(v) for v in sorted(_unpack(c, spec.n) for c in codes)
    )
