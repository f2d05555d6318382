"""Exact membership testing and layer enumeration for pinched semigroups.

One engine answers both questions: the layer walk.  Layer t of a spec is
everything writable as a sum of exactly t generators, the members of degree
t*d.  A layer is a bitset with a bit per vector of degree t*d, split into
big-integer chunks over the last few coordinates, and layer t+1 ORs together
the chunks of layer t shifted once per generator.  An ascending walk builds
each layer from the last, for the ambient slice as for any pinch, and
refuses any layer with more than the entry cap of vectors (counted as
C(td+n-1, n-1), the size of the ambient layer) or a mask of more than 64
bits per capped vector.  A pinch's layers are not kept; the full slice is
walked once per (n, d) and its layers kept, since every spec of that (n, d)
compares against them.  The mask format stays in this module: callers get
vectors from :func:`layer_members`, :func:`apery_set` and :func:`gap_walk`,
which counts each layer's gaps on the mask and decodes them only on request.

:func:`is_member` reads the Apéry set off the same walk, and
:func:`apery_set` returns all of it.  Let P be the pure powers d*e_i the
spec keeps (all of them, except the one a ``SATURATED`` pinch removes) and
Ap = {s in S : s - p is not in S for every p in P}.  Then w is in S exactly
when some a in Ap has

* a <= w,
* a_i = w_i (mod d) on every axis whose pure power is kept, and
* a_i = w_i on an axis whose pure power is removed.

Such an a gives w = a plus kept pure powers; conversely, subtracting kept
pure powers from a member while staying in S ends at such an a.  Ap is keyed
by that class vector, so a query scans one class whatever the degree of w.

Layer t of Ap is S_t & ~OR_{p in P} (S_{t-1} + p), computed on the pair of
consecutive layers the walk holds.  One Apéry set per spec is read as far as
queries need: up to layer |w|/d for a query w (an element below w has at
most its degree), and never past the first layer t >= 1 with no Apéry
element, because no later layer has one.  Proof: S is generated in layer 1,
so any u in S_{t+1} is s + g with s in S_t and g a generator.  As S_t holds
no Apéry element, s = p + s' with p in P and s' in S_{t-1}, so u - p = s' + g
is in S.  Outside ``SATURATED`` Ap is finite, since k[S] is a finite module
over k[P]; for ``SATURATED`` the stop never fires, and a query reads the
layers up to its own.

The entry cap, whose one home is :mod:`veropinch.lattice`, bounds the Apéry
set too.  Two elements of one class are incomparable: if a <= a', then
a' - a is a nonzero sum of kept pure powers p, and a' - p is in S.  So
adding d*e_j on a kept axis j until the degree is T*d maps the elements of
layers 0..T injectively into the ambient layer T, whose size the cap already
checks.  Hitting the cap raises :class:`ResourceLimitError` rather than
truncating, so oracle answers are never approximate.
"""

from __future__ import annotations

import functools
import itertools
import operator
from math import comb, inf
from typing import Callable, Iterator, Sequence

from veropinch.exceptions import InvalidSpecError
from veropinch.lattice import ExponentVector, PinchCase, SemigroupSpec, pinch_spec
from veropinch.lattice import _memo_cap, _record, _refuse_over_cap


def reset_membership_cache() -> None:
    """Drop every spec's Apéry set and the shared full-slice layers (mainly for tests)."""
    _apery_sets.clear()
    _ambient.clear()


class _AperySet:
    """The Apéry set of one spec, read off its layer walk as far as queries ask."""

    def __init__(self, spec: SemigroupSpec) -> None:
        d = spec.d
        self.spec = spec
        self.pure = [g for g in spec.generators() if d in g]  # the kept d*e_i
        # class key: the residue mod d on an axis whose pure power is kept,
        # the coordinate itself on an axis whose pure power is removed
        kept = {g.index(d) for g in self.pure}
        self.moduli = tuple(d if i in kept else 0 for i in range(spec.n))
        self.classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        self.read = 0  # layers 0..read-1 have been read
        self.radix, self.steps = 0, {}  # the pure powers' shifts, in the last layer's radix
        self.walk: Iterator[tuple[dict[int, int], dict[int, int]]] | None = _layer_pairs(spec)

    def key(self, v: Sequence[int]) -> tuple[int, ...]:
        return tuple(c % m if m else c for c, m in zip(v, self.moduli))

    def extend(self, top: float) -> None:
        """Read layers up to ``top``, or up to the first layer with no element."""
        n, d = self.spec.n, self.spec.d
        while self.walk is not None and self.read <= top:
            t = self.read
            try:
                below, layer = next(self.walk)
            except BaseException:
                del _apery_sets[self.spec]  # a walk stopped by an exception cannot resume
                raise
            if _radix(t, d) != self.radix:
                self.radix = _radix(t, d)
                self.steps = _offsets(self.pure, n, self.radix)
            covered = _shifted(below, self.steps)
            apery = {key: bits & ~covered.get(key, 0) for key, bits in layer.items()}
            found = _vectors(apery, n, d, t)
            for a in found:
                self.classes.setdefault(self.key(a), []).append(a)
            self.read = t + 1
            if t and not found:
                self.walk = None


_apery_sets: dict[SemigroupSpec, _AperySet] = {}


def _apery(spec: SemigroupSpec) -> _AperySet:
    """The spec's one Apéry set, shared by every query."""
    apery = _apery_sets.get(spec)
    if apery is None:
        apery = _apery_sets[spec] = _AperySet(spec)
    return apery


def apery_set(spec: SemigroupSpec) -> tuple[ExponentVector, ...]:
    """The whole Apéry set, ascending: the monomial basis of k[S] modulo the pure powers."""
    if spec.case is PinchCase.SATURATED:
        raise InvalidSpecError(f"the Apéry set of {spec.describe()} is infinite")
    apery = _apery(spec)
    apery.extend(inf)
    return tuple(sorted(map(ExponentVector, itertools.chain(*apery.classes.values()))))


def is_member(e: Sequence[int], spec: SemigroupSpec) -> bool:
    """True iff e is a finite N-linear combination of the spec's generators.

    Answered from the spec's Apéry set (see the module docstring).  Total: a
    degree that is not a multiple of d simply returns False.
    """
    point = tuple(ExponentVector(e))
    if len(point) != spec.n:
        raise InvalidSpecError(f"point has arity {len(point)}, spec has n={spec.n}")
    if sum(point) % spec.d != 0:
        return False
    apery = _apery(spec)
    apery.extend(sum(point) // spec.d)
    return any(
        all(map(operator.le, a, point)) for a in apery.classes.get(apery.key(point), ())
    )


@_record
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
    lex order, whose remainder :func:`is_member` accepts (tie-breaking is
    cosmetic, the boolean answer never depends on it).  Every remainder has a
    smaller degree than the target, so after the target's own query the
    witness reads Apéry layers that are already built.
    """
    target = ExponentVector(e)
    if not is_member(target, spec):
        return None
    parts: list[ExponentVector] = []
    cur = target
    while any(cur):
        for g in reversed(spec.generators()):
            rest = cur.sub_or_none(g)
            if rest is not None and is_member(rest, spec):
                parts.append(g)
                cur = rest
                break
        else:  # pragma: no cover - membership of cur guarantees a step exists
            raise AssertionError(f"no generator step from member {tuple(cur)}")
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


def _layer_pairs(spec: SemigroupSpec) -> Iterator[tuple[dict[int, int], dict[int, int]]]:
    """(layer t-1, layer t) of the spec as chunked bit masks, for t = 0, 1, 2, ...

    Both masks of a pair are in layer t's radix (layer -1 is empty).  A
    vector of degree t*d is indexed by its first n-1 coordinates read as
    digits in radix ``_radix(t, d)``.  The leading n-1-k digits key a chunk,
    and the last k digits give the vector's bit in that chunk's int
    (k = ``_chunk_digits(n)``).  Every coordinate stays below the radix, so
    adding a generator adds its key to the chunk key and shifts the chunk
    without a carry, and layer t+1 ORs together one shifted chunk per chunk
    and generator.  When the radix grows the walk restarts from layer 0,
    which rebuilds layer t-1 in the new radix on the way; the radix doubles,
    so the restarts cost a bounded multiple of the last walk.

    Layer t+1 is checked and built only when the caller asks for it, so a
    caller that stops at layer t never pays for (or trips the cap on) t+1.
    """
    gens = spec.generators()
    radix, built, below, layer = 0, 0, {}, {0: 1}  # layers built-1 and built, in radix
    for t in itertools.count(1):
        yield below, layer
        _check_layer(spec, t)
        if _radix(t, spec.d) != radix:
            radix, built, layer = _radix(t, spec.d), 0, {0: 1}
            steps = _offsets(gens, spec.n, radix)
        for _ in range(built, t):
            below, layer = layer, _shifted(layer, steps)
        built = t


def _layers(spec: SemigroupSpec) -> Iterator[dict[int, int]]:
    """Layers 0, 1, 2, ... of the spec as chunked bit masks, each in its own radix."""
    return (layer for _, layer in _layer_pairs(spec))


_ambient: dict[tuple[int, int], tuple[list[dict[int, int]], Iterator[dict[int, int]]]] = {}


def _ambient_layers(n: int, d: int) -> Iterator[dict[int, int]]:
    """Layers 0, 1, 2, ... of the full slice, walked once per (n, d) and shared."""
    if (n, d) not in _ambient:
        _ambient[n, d] = ([], _layers(pinch_spec(n, d, [])))
    layers, walk = _ambient[n, d]
    for t in itertools.count():
        if t == len(layers):
            try:
                layers.append(next(walk))
            except BaseException:
                _ambient.pop((n, d), None)  # a walk stopped by an exception cannot resume
                raise
        yield layers[t]


def gap_walk(
    spec: SemigroupSpec,
) -> Iterator[tuple[int, int, Callable[[], list[tuple[int, ...]]]]]:
    """(t, count, vectors) for the gaps of layer t = 1, 2, ...: ambient layer t minus the spec's.

    ``count`` is read off the mask as a popcount, and ``vectors()`` decodes
    the gaps, ascending, only when a caller asks for them.  Layer t of both
    walks is in radix ``_radix(t, d)``, so their chunk keys match.
    """
    n, d = spec.n, spec.d
    walks = zip(_layers(spec), _ambient_layers(n, d))
    next(walks)  # layer 0 is {0} in both
    for t, (layer, ambient) in enumerate(walks, start=1):
        missing = {key: bits & ~layer.get(key, 0) for key, bits in ambient.items()}
        count = sum(bits.bit_count() for bits in missing.values())
        yield t, count, functools.partial(_vectors, missing, n, d, t)


def layer_members(spec: SemigroupSpec, t: int) -> tuple[ExponentVector, ...]:
    """All sums of exactly t generators, i.e. the members of degree t*d.

    Returned sorted for deterministic iteration.
    """
    if t < 0:
        raise InvalidSpecError(f"layer index must be nonnegative, got {t}")
    layer = next(itertools.islice(_layers(spec), t, None))
    return tuple(map(ExponentVector, _vectors(layer, spec.n, spec.d, t)))
