"""Exact membership testing and layer enumeration for pinched semigroups.

Two complementary engines live here, because the two access patterns want
opposite strategies:

* :func:`is_member` / :func:`decompose` — memoized top-down search, good for
  sparse queries (a point is a member iff it is zero or some generator can be
  subtracted to land on a member).  The search is depth first and stops at
  the first member child, so a member query never explores the siblings it
  did not need; its stack holds at most degree/d frames.
* :func:`layer_members` — bottom-up dense enumeration of everything writable
  as a sum of exactly t generators, good for oracle sweeps.  A layer is a
  bitset with a bit per vector of degree t*d, split into big-integer chunks
  over the last few coordinates, and layer t+1 ORs together the chunks of
  layer t shifted once per generator.  Layers are not cached: an ascending
  walk builds each from the last, for the ambient slice as for any pinch,
  and refuses any layer with more than the entry cap of vectors (counted as
  C(td+n-1, n-1), the size of the ambient layer) or a mask of more than 64
  bits per capped vector.  The mask format stays in this module: callers
  get decoded vectors from :func:`layer_walk` and :func:`gap_walk`.

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
import operator
import os
from dataclasses import dataclass
from math import comb
from typing import Iterator, Sequence

from veropinch.exceptions import InvalidSpecError, ResourceLimitError
from veropinch.lattice import ExponentVector, SemigroupSpec, pinch_spec

DEFAULT_MEMO_CAP = 10_000_000
MEMO_CAP_ENV = "VEROPINCH_MEMO_CAP"

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


def _refuse_over_cap(count: int, what: str, unit: str = "vectors") -> None:
    """Raise before building ``what`` when its ``count`` units exceed the cap."""
    cap = _memo_cap()
    if count > cap:
        raise ResourceLimitError(
            f"{what} has {count} {unit}, above the {MEMO_CAP_ENV} cap {cap}"
        )


def reset_membership_cache() -> None:
    """Drop all memo tables (mainly for tests)."""
    _memo_tables.clear()
    _generators_descending.cache_clear()


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


def _radix(t: int, d: int) -> int:
    # d * 2**ceil(log2 t) + 1 exceeds every coordinate of degree t*d, and
    # stays fixed while t grows to the next power of two.
    return (d << (t - 1).bit_length()) + 1


def _chunk_digits(n: int) -> int:
    # A chunk spans the last k of the first n-1 coordinates, so one chunk
    # holds a whole layer for n <= 4.  The k-digit cube of a chunk with the
    # whole degree left is at most k! * 2**k = 48 times the simplex of
    # vectors it holds, where one mask over all n-1 digits would waste a
    # factor growing like (n-1)!.  Of k = 1..4, k = 3 was fastest or tied
    # on analyze at n = 6, 7, 8 and 10, and took less memory than k = 4.
    return min(n - 1, 3)


# _BITS[b] lists the set bits of the byte b, ascending
_BITS = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))


def _vectors(layer: dict[int, int], n: int, d: int, t: int) -> list[tuple[int, ...]]:
    """The vectors whose bits are set in a layer-t mask, ascending.

    Zero bytes are skipped in C, so a sparse (gap) mask costs about its set bits.
    """
    radix, degree = _radix(t, d), t * d
    width = radix ** _chunk_digits(n)
    places = [radix**k for k in range(n - 2, 0, -1)]
    out = []
    for key in sorted(layer):
        bits, base = layer[key], key * width
        raw = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
        for i in itertools.compress(range(len(raw)), raw):
            for j in _BITS[raw[i]]:
                v, rest = [], base + 8 * i + j
                for place in places:
                    c, rest = divmod(rest, place)
                    v.append(c)
                out.append((*v, rest, degree - sum(v) - rest))
    return out


def _check_layer(spec: SemigroupSpec, t: int) -> None:
    """Refuse to build layer t past the entry cap, in vectors or in mask words.

    Layer t holds at most the C(td+n-1, n-1) vectors of degree t*d.  Its
    mask has one chunk per choice of the leading n-1-k coordinates, and a
    chunk whose leading coordinates leave degree r to the other k+1 is below
    (r+1) * radix**(k-1) bits; summed over the chunks, at most
    C(td+n-k, n-k) * radix**(k-1) bits, allowed one 64-bit word per capped
    vector.
    """
    n, degree, k = spec.n, t * spec.d, _chunk_digits(spec.n)
    what = f"layer {t} of {spec.describe()}"
    _refuse_over_cap(comb(degree + n - 1, n - 1), what)
    bits = comb(degree + n - k, n - k) * _radix(t, spec.d) ** (k - 1)
    _refuse_over_cap(-(-bits // 64), f"{what} as a {bits}-bit mask", "64-bit words")


def _layers(spec: SemigroupSpec) -> Iterator[dict[int, int]]:
    """Layers 0, 1, 2, ... of the spec as chunked bit masks, each built from the last.

    A vector of degree t*d is indexed by its first n-1 coordinates read as
    digits in radix ``_radix(t, d)``.  The leading n-1-k digits key a chunk,
    and the last k digits give the vector's bit in that chunk's int
    (k = ``_chunk_digits(n)``).  Every coordinate stays below the radix, so
    adding a generator adds its key to the chunk key and shifts the chunk
    without a carry, and layer t+1 ORs together one shifted chunk per chunk
    and generator.  When the radix grows the walk restarts from layer 0; the
    radix doubles, so the restarts cost a bounded multiple of the last walk.

    Layer t+1 is checked and built only when the caller asks for it, so a
    caller that stops at layer t never pays for (or trips the cap on) t+1.
    """
    gens = spec.generators()
    radix, built, layer = 0, 0, {0: 1}  # layer holds layer ``built`` in ``radix``
    for t in itertools.count(1):
        yield layer
        _check_layer(spec, t)
        if _radix(t, spec.d) != radix:
            radix, built, layer = _radix(t, spec.d), 0, {0: 1}
            width = radix ** _chunk_digits(spec.n)
            places = [radix**k for k in range(spec.n - 2, -1, -1)]  # map stops before g[-1]
            steps: dict[int, list[int]] = {}  # chunk key offset -> bit shifts
            for g in gens:
                key, shift = divmod(sum(map(operator.mul, g, places)), width)
                steps.setdefault(key, []).append(shift)
        for _ in range(built, t):
            step: dict[int, int] = {}
            for key, bits in layer.items():
                for offset, shifts in steps.items():
                    moved = 0
                    for s in shifts:
                        moved |= bits << s
                    step[key + offset] = step.get(key + offset, 0) | moved
            layer = step
        built = t


def layer_walk(spec: SemigroupSpec) -> Iterator[tuple[int, list[tuple[int, ...]]]]:
    """(t, the members of degree t*d in ascending order) for t = 0, 1, 2, ..."""
    for t, layer in enumerate(_layers(spec)):
        yield t, _vectors(layer, spec.n, spec.d, t)


def gap_walk(spec: SemigroupSpec) -> Iterator[tuple[int, list[tuple[int, ...]]]]:
    """(t, ambient layer t minus the spec's, ascending) for t = 1, 2, ...

    The two walks run in step, so their layers share a radix and chunk keys.
    """
    n, d = spec.n, spec.d
    walks = zip(_layers(spec), _layers(pinch_spec(n, d, [])))
    next(walks)  # layer 0 is {0} in both
    for t, (layer, ambient) in enumerate(walks, start=1):
        missing = {key: bits & ~layer.get(key, 0) for key, bits in ambient.items()}
        yield t, _vectors(missing, n, d, t)


def layer_members(spec: SemigroupSpec, t: int) -> tuple[ExponentVector, ...]:
    """All sums of exactly t generators, i.e. the members of degree t*d.

    Returned sorted for deterministic iteration.
    """
    if t < 0:
        raise InvalidSpecError(f"layer index must be nonnegative, got {t}")
    layer = next(itertools.islice(_layers(spec), t, None))
    return tuple(map(ExponentVector, _vectors(layer, spec.n, spec.d, t)))
