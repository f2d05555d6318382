"""Exact membership testing and layer enumeration for pinched semigroups.

One engine answers both questions: the layer walk.  Layer t of a spec is
everything writable as a sum of exactly t generators, the members of degree
t*d.  A layer is a bitset with a bit per vector of degree t*d, split into
big-integer chunks over the last few coordinates, and layer t+1 ORs together
the chunks of layer t shifted once per generator.  An ascending walk builds
each layer from the last, and refuses any layer with more than the entry cap
of vectors (counted as C(td+n-1, n-1), the size of the simplex of all
vectors of degree t*d) or a mask of more than 64 bits per capped vector.
One walk is memoized, each spec's Apéry layers (below), read only as far as
a caller has asked; a walk stopped by an exception cannot resume, so it is
dropped, and the next caller walks afresh.  Gaps are measured against that
simplex, the ambient layer, which is never walked: :func:`gap_walk` counts
them as its size minus the layer's popcount, and builds its mask, within the
bound layer t was checked against, only to decode the gaps a caller asks
for.  The mask format stays in this module: callers get vectors from
:func:`layer_members`, :func:`apery_set` and :func:`gap_walk`.

:func:`is_member` reads the Apéry set off the same walk, and
:func:`apery_set` returns all of it.  Every spec but a ``SATURATED`` pinch
(below) keeps the n pure powers d*e_i; let P be them and
Ap = {s in S : s - p is not in S for every p in P}.  Then w is in S exactly
when some a in Ap has a <= w and a = w (mod d) on every axis.  Such an a
gives w = a plus pure powers; conversely, subtracting pure powers from a
member while staying in S ends at such an a.  Ap is keyed by that residue
vector, so a query scans one class whatever the degree of w.

Layer t of Ap is S_t & ~OR_{p in P} (S_{t-1} + p), the OR built by the walk
only when asked.  One Apéry set per spec is read as far as queries need: up
to layer |w|/d for a query w (an element below w has at most its degree),
and never past the first layer t >= 1 with no Apéry element, because no
later layer has one.  Proof: S is generated in layer 1, so any u in S_{t+1}
is s + g with s in S_t and g a generator.  As S_t holds no Apéry element,
s = p + s' with p in P and s' in S_{t-1}, so u - p = s' + g is in S.
Ap is finite, since k[S] is a finite module over k[P].

A ``SATURATED`` pinch removes a pure power d*e_i, and its Apéry set never
stops, so :func:`is_member` answers it from its cone instead and holds no
walk for it: w is in S exactly when |w| = 0 (mod d) and
w_i <= (d-1)(|w| - w_i).  Proof: every kept generator g has g_i <= d-1 and
d - g_i >= 1 units off axis i, so it satisfies the inequality, and so does
every sum of generators, as the inequality is linear.  Conversely, let
r = |w| - w_i and t = |w|/d.  The inequality gives r >= t, so
w_i <= t(d-1); split w_i into t parts a_k <= d-1.  Part k then needs
d - a_k >= 1 units off axis i, and these add up to exactly r, so the
off-axis coordinates of w split among the parts into t kept generators.

The entry cap, whose one home is :mod:`veropinch.lattice`, bounds the Apéry
set too.  Two elements of one class are incomparable: if a <= a', then
a' - a is a nonzero sum of pure powers p, and a' - p is in S.  So adding
d*e_j on any axis j until the degree is T*d maps the elements of layers
0..T injectively into the ambient layer T, whose size the cap already
checks.  Hitting the cap raises :class:`ResourceLimitError` rather than
truncating, so oracle answers are never approximate.
"""

from __future__ import annotations

import functools
import itertools
import operator
from math import comb, inf
from typing import Callable, Iterator, NamedTuple, Sequence

from veropinch.exceptions import InvalidSpecError
from veropinch.lattice import ExponentVector, PinchCase, SemigroupSpec, weak_compositions
from veropinch.lattice import _memo_cap, _refuse_over_cap


def reset_membership_cache() -> None:
    """Drop every memoized Apéry walk and every cached simplex mask (mainly for tests)."""
    _walks.clear()
    _simplex.cache_clear()


# spec -> (the Apéry layers read so far, the rest of the walk)
_walks: dict[SemigroupSpec, tuple[list, Iterator]] = {}


def _memo(spec: SemigroupSpec, top: float) -> list:
    """Apéry layers 0..top of the spec, fewer where its walk ends.

    The first caller starts the walk; later callers read on from where the
    last one stopped.  A walk stopped by an exception cannot resume, so it
    is dropped, and the next caller starts it afresh.
    """
    entry = _walks.get(spec)
    if entry is None:
        entry = _walks[spec] = [], _apery_layers(spec)
    items, rest = entry
    if len(items) <= top:
        try:
            items.extend(itertools.islice(rest, None if top == inf else top + 1 - len(items)))
        except BaseException:
            _walks.pop(spec, None)
            raise
    return items


def _apery_layers(spec: SemigroupSpec) -> Iterator[dict[tuple[int, ...], list[tuple[int, ...]]]]:
    """Apéry layers 0, 1, 2, ... as {v mod d: elements v}, ending at the first empty layer t >= 1."""
    n, d = spec.n, spec.d
    for t, (layer, reached) in enumerate(_layers(spec)):
        covered = reached()
        apery = {key: bits & ~covered.get(key, 0) for key, bits in layer.items()}
        found = _vectors(apery, n, d, t)
        if t and not found:
            return
        classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for a in found:
            classes.setdefault(tuple(c % d for c in a), []).append(a)
        yield classes


def apery_set(spec: SemigroupSpec) -> tuple[ExponentVector, ...]:
    """The whole Apéry set, ascending: the monomial basis of k[S] modulo the pure powers."""
    if spec.case is PinchCase.SATURATED:
        raise InvalidSpecError(f"the Apéry set of {spec.describe()} is infinite")
    layers = _memo(spec, inf)
    found = (a for layer in layers for a in itertools.chain(*layer.values()))
    return tuple(sorted(map(ExponentVector, found)))


def is_member(e: Sequence[int], spec: SemigroupSpec) -> bool:
    """True iff e is a finite N-linear combination of the spec's generators.

    Answered from the spec's Apéry set, or for a ``SATURATED`` pinch from
    its cone, which reads no layer (see the module docstring).  Total: a
    degree that is not a multiple of d simply returns False.
    """
    point = tuple(ExponentVector(e))
    if len(point) != spec.n:
        raise InvalidSpecError(f"point has arity {len(point)}, spec has n={spec.n}")
    d, degree = spec.d, sum(point)
    if degree % d != 0:
        return False
    if spec.case is PinchCase.SATURATED:
        axis = point[spec.pinched().index(d)]
        return axis <= (d - 1) * (degree - axis)
    layers = _memo(spec, degree // d)
    key = tuple(c % d for c in point)
    return any(all(map(operator.le, a, point)) for layer in layers for a in layer.get(key, ()))


class Decomposition(NamedTuple("Decomposition", [("parts", tuple), ("target", ExponentVector)])):
    """A witness that ``target`` is a sum of generators.

    All generators share degree d, so the number of parts is forced to be
    degree(target)/d.
    """

    __slots__ = ()

    def __new__(cls, parts: tuple[ExponentVector, ...], target: ExponentVector) -> "Decomposition":
        total = tuple(sum(c) for c in zip(*parts)) if parts else (0,) * len(target)
        if total != tuple(target):
            raise InvalidSpecError("decomposition parts do not sum to the target")
        return super().__new__(cls, parts, target)


def decompose(e: Sequence[int], spec: SemigroupSpec) -> Decomposition | None:
    """A membership witness, or None for non-members.

    Deterministic: at every step it takes the first generator, in descending
    lex order, whose remainder :func:`is_member` accepts (tie-breaking is
    cosmetic, the boolean answer never depends on it).  Every remainder has a
    smaller degree than the target, so after the target's own query the
    witness reads Apéry layers that are already built; a ``SATURATED``
    witness, answered by the cone, reads no layer at all.
    """
    target = ExponentVector(e)
    if not is_member(target, spec):
        return None
    parts: list[ExponentVector] = []
    cur, gens = target, spec.generators()[::-1]
    while any(cur):
        for g in gens:
            rest = cur.sub_or_none(g)
            if rest is not None and is_member(rest, spec):
                parts.append(g)
                cur = rest
                break
        else:  # pragma: no cover - membership of cur guarantees a step exists
            raise AssertionError(f"no generator step from member {tuple(cur)}")
    return Decomposition(parts=tuple(parts), target=target)


def _radix(t: int, d: int) -> int:
    # d * 2**ceil(log2 max(t, 2)) + 1 exceeds every coordinate of degree t*d
    # and is fixed in bands: 2d+1 on layers 0..2, 4d+1 on 3..4, 8d+1 on 5..8, ...
    return (d << max(t - 1, 1).bit_length()) + 1


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
    vectors = comb(degree + n - 1, n - 1)
    bits = comb(degree + n - k, n - k) * _radix(t, spec.d) ** (k - 1)
    words, cap = -(-bits // 64), _memo_cap()
    if vectors > cap or words > cap:  # the text is built only for a refusal
        what = f"layer {t} of {spec.describe()}"
        _refuse_over_cap(vectors, what, cap=cap)
        _refuse_over_cap(words, f"{what} as a {bits}-bit mask", "64-bit words", cap)


def _offsets(vectors: Sequence[Sequence[int]], n: int, radix: int) -> dict[int, list[int]]:
    """Chunk key offset -> the bit shifts that add each of ``vectors`` to a mask."""
    width = radix ** _chunk_digits(n)
    places = [radix**k for k in range(n - 2, -1, -1)]  # map stops before v[-1]
    out: dict[int, list[int]] = {}
    for v in vectors:
        key, shift = divmod(sum(map(operator.mul, v, places)), width)
        out.setdefault(key, []).append(shift)
    return out


def _shifted(layer: dict[int, int], offsets: dict[int, list[int]]) -> dict[int, int]:
    """The OR of ``layer`` shifted by every vector that ``offsets`` encodes."""
    out: dict[int, int] = {}
    for key, bits in layer.items():
        for offset, shifts in offsets.items():
            moved = 0
            for s in shifts:
                moved |= bits << s
            out[key + offset] = out.get(key + offset, 0) | moved
    return out


def _layers(spec: SemigroupSpec) -> Iterator[tuple[dict[int, int], Callable[[], dict[int, int]]]]:
    """(layer t, reached) of the spec as chunked bit masks, for t = 0, 1, 2, ...

    ``reached()``, built only when called, is the part of layer t that a kept
    pure power d*e_i reaches from layer t-1.  Both are in radix
    ``_radix(t, d)``: a vector of degree t*d is indexed by its first n-1
    coordinates read as digits.  The leading n-1-k digits key a chunk, and
    the last k digits give the vector's bit in that chunk's int
    (k = ``_chunk_digits(n)``).  Every coordinate stays below the radix, so
    adding a generator adds its key to the chunk key and shifts the chunk
    without a carry, and layer t+1 ORs together one shifted chunk per chunk
    and generator.  The walk starts in the band of layers 0..2; where the
    radix grows for layer t it first rebuilds layers 1..t-1 in the new one,
    and as the radix doubles, the rebuilds cost a bounded multiple of the walk.

    Layer t+1 is checked and built only when the caller asks for it, so a
    caller that stops at layer t never pays for (or trips the cap on) t+1.
    """
    n, d, gens = spec.n, spec.d, spec.generators()
    pure = [g for g in gens if d in g]  # the kept d*e_i
    radix = _radix(0, d)
    steps, powers = _offsets(gens, n, radix), _offsets(pure, n, radix)
    below, layer = {}, {0: 1}  # layers t-1 and t
    for t in itertools.count(1):
        yield layer, lambda below=below, powers=powers: _shifted(below, powers)
        _check_layer(spec, t)
        if _radix(t, d) != radix:
            radix, layer = _radix(t, d), {0: 1}
            steps, powers = _offsets(gens, n, radix), _offsets(pure, n, radix)
            for _ in range(1, t):
                layer = _shifted(layer, steps)
        below, layer = layer, _shifted(layer, steps)


@functools.lru_cache(maxsize=None)
def _simplex(n: int, degree: int, radix: int) -> dict[int, int]:
    """Every vector of the given degree as a chunked mask in ``radix``: degree unit steps from 0."""
    units = _offsets(list(weak_compositions(1, n)), n, radix)
    simplex = {0: 1}
    for _ in range(degree):
        simplex = _shifted(simplex, units)
    return simplex


def gap_walk(
    spec: SemigroupSpec, top: int
) -> Iterator[tuple[int, int, Callable[[], list[tuple[int, ...]]]]]:
    """(t, count, vectors) for the gaps of layer t = 1 .. top: the degree-t*d simplex minus layer t.

    ``count`` is the simplex's size C(td+n-1, n-1) minus the layer's
    popcount; ``vectors()`` decodes the gaps, ascending, only when called,
    with both masks in radix ``_radix(t, d)``.  A ``SATURATED`` pinch
    yields nothing: removing d*e_i cuts that axis ray out of the cone,
    leaving a saturated semigroup that is its own normalization.

    The walk stops at the first full layer, as no later layer holds a gap.
    Proof: let S_t be full and v have degree (t+1)*d.  Any w <= v of degree
    t*d is in S_t, so some kept generator g has g <= w <= v; then v - g,
    of degree t*d, is in S_t, and v is in S_{t+1}.
    """
    if top < 1:
        raise InvalidSpecError(f"layer bound must be >= 1, got {top}")
    if spec.case is PinchCase.SATURATED:
        return
    n, d = spec.n, spec.d
    for t, (layer, _) in enumerate(itertools.islice(_layers(spec), 1, top + 1), 1):
        count = comb(t * d + n - 1, n - 1) - sum(bits.bit_count() for bits in layer.values())
        if not count:
            return
        simplex = functools.partial(_simplex, n, t * d, _radix(t, d))  # built only to decode
        yield t, count, lambda layer=layer, simplex=simplex, t=t: _vectors(
            {key: bits & ~layer.get(key, 0) for key, bits in simplex().items()}, n, d, t
        )


def layer_members(spec: SemigroupSpec, t: int) -> tuple[ExponentVector, ...]:
    """All sums of exactly t generators, i.e. the members of degree t*d.

    Returned sorted for deterministic iteration.
    """
    if t < 0:
        raise InvalidSpecError(f"layer index must be nonnegative, got {t}")
    layer = next(itertools.islice(_layers(spec), t, None))[0]
    return tuple(map(ExponentVector, _vectors(layer, spec.n, spec.d, t)))
