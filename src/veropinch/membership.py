"""Exact membership testing, Apéry sets and gap boxes for pinched semigroups.

One engine answers every question: the layer walk.  Layer t of a spec is
everything writable as a sum of exactly t generators, the members of degree
t*d.  A layer is a bitset with a bit per vector of degree t*d, split into
big-integer chunks over the last few coordinates, and layer t+1 ORs together
the chunks of layer t shifted once per generator.  An ascending walk builds
each layer from the last, and refuses any layer with more than the entry cap
of vectors (counted as C(td+n-1, n-1), the size of the simplex of all
vectors of degree t*d) or a mask of more than 64 bits per capped vector.
One walk is memoized per walk spec (see the orbits below): its Apéry
elements (below) by residue class, read only as far as a caller has asked;
a walk stopped by an exception cannot resume, so it starts afresh for the
next caller.  The mask format stays in this module: callers get vectors
from :func:`layer_members` and :func:`apery_set`, boxes from :func:`gap_boxes`.

:func:`is_member` reads the Apéry set off that walk, and :func:`apery_set`
returns all of it.  Every spec but a ``SATURATED`` pinch (below) keeps the
n pure powers d*e_i; let P be them and
Ap = {s in S : s - p is not in S for every p in P}.  Then w is in S exactly
when some a in Ap has a <= w and a = w (mod d) on every axis.  Such an a
gives w = a plus pure powers; conversely, subtracting pure powers from a
member while staying in S ends at such an a.  The walk keeps Ap by that
residue vector, so a query scans one class whatever the degree of w.

Layer t of Ap is S_t & ~OR_{p in P} (S_{t-1} + p), the OR built by the walk
only when asked.  One Apéry set per walk is read as far as queries need: up
to layer |w|/d for a query w (an element below w has at most its degree),
and never past the first layer t >= 1 with no Apéry element, because no
later layer has one.  Proof: S is generated in layer 1, so any u in S_{t+1}
is s + g with s in S_t and g a generator.  As S_t holds no Apéry element,
s = p + s' with p in P and s' in S_{t-1}, so u - p = s' + g is in S.
Ap is finite, since k[S] is a finite module over k[P].

The gaps follow from the same rule.  Let B_r = {(a - r)/d : a in Ap, a = r
(mod d)} for a residue vector r; the members of r + d*N^n are r + d*U_r,
U_r the upset of B_r, so the gaps there, against the ambient slice that
normalizes every such spec, are r + d*(N^n - U_r).  That complement is
the union of its maximal boxes Π[0, c_i], each c_i finite or ``math.inf``,
the standard monomials of the irreducible components of the monomial ideal
(x^b : b in B_r) (Miller-Sturmfels, Combinatorial Commutative Algebra,
ch. 5).  The maximal boxes are unique, so :func:`gap_boxes` gives a
canonical form of the gap set in every degree.  The residue vectors are the
d^(n-1) vectors in [0, d)^n of degree divisible by d; a class with no Apéry
element is missing whole.

Every answer is equivariant under permuting the axes, so one walk can
serve every spec of an orbit.  :func:`_orbit` sorts a spec's axes by their
columns of removed entries, and the walk runs on the spec so permuted;
queries map their points onto it, and answers map back.  Any order would be correct,
and this one only decides which specs share a walk: every single pinch of
one sorted m, and most multipinches of one orbit.  A cap refusal met on a
walk names the walk's spec, and the caller's where they differ.

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
Its cone is its normalization, so it has no gap box.

The entry cap, whose one home is :mod:`veropinch.lattice`, bounds the Apéry
set too.  Two elements of one class are incomparable: if a <= a', then
a' - a is a nonzero sum of pure powers p, and a' - p is in S.  So adding
d*e_j on any axis j until the degree is T*d maps the elements of layers
0..T injectively into the ambient layer T, whose size the cap already
checks.  Hitting the cap raises :class:`ResourceLimitError` rather than
truncating, so oracle answers are never approximate.
"""

from __future__ import annotations

import itertools
import operator
from math import comb, inf
from typing import Callable, Iterator, NamedTuple, Sequence

from veropinch.exceptions import InvalidSpecError, ResourceLimitError
from veropinch.lattice import ExponentVector, PinchCase, SemigroupSpec
from veropinch.lattice import _memo_cap, _refuse_over_cap

# a gap box (corner, edges): corner + d*x for every x in N^n with x <= edges
Box = tuple[tuple[int, ...], tuple[float, ...]]


def reset_membership_cache() -> None:
    """Drop every memoized Apéry walk and its gap boxes (mainly for tests)."""
    _walks.clear()


class _Walk:
    """The Apéry walk of one spec: its elements read so far by class, the rest of it, its gap boxes once found."""

    __slots__ = ("spec", "classes", "depth", "rest", "boxes")

    def __init__(self, spec: SemigroupSpec) -> None:
        self.spec = spec
        self.classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}  # v mod d -> elements v
        self.depth = 0  # the layers read
        self.rest = _apery_layers(spec)
        self.boxes: tuple[Box, ...] | None = None

    def read(self, top: float) -> None:
        """Read the Apéry layers on to layer top, or to the end of the walk.

        A walk stopped by an exception cannot resume, so it starts afresh
        for the next caller.
        """
        if self.depth <= top:
            d = self.spec.d
            try:
                for layer in itertools.islice(self.rest, None if top == inf else top + 1 - self.depth):
                    for a in layer:
                        self.classes.setdefault(tuple(c % d for c in a), []).append(a)
                    self.depth += 1
            except BaseException:
                self.classes, self.depth, self.rest = {}, 0, _apery_layers(self.spec)
                raise


# spec -> (order, walk): the walk runs on the spec's axes permuted into order
# (None: not permuted), and every spec with one walk spec shares it
_walks: dict[SemigroupSpec, tuple[tuple[int, ...] | None, _Walk]] = {}


def _orbit(spec: SemigroupSpec) -> tuple[tuple[int, ...], SemigroupSpec]:
    """(order, the spec with its axes permuted into order): the walk's spec.

    ``order`` sorts the axes by their sorted columns of removed entries,
    largest first, ties by index, so a point v of the spec is the point
    (v[i] for i in order) of the walk.
    """
    columns = [sorted(m[i] for m in spec.removed) for i in range(spec.n)]
    order = tuple(sorted(range(spec.n), key=columns.__getitem__, reverse=True))
    # the same ring with renamed axes, so still a valid spec of the same case
    return order, spec._replace(removed=tuple(sorted(ExponentVector(m[i] for i in order) for m in spec.removed)))


def walk_spec(spec: SemigroupSpec) -> SemigroupSpec:
    """The spec whose walk answers for this one: the same ring, its axes permuted.

    Every answer that does not name an axis, such as a count of gaps or
    their largest entry, is the same for both.
    """
    return _orbit(spec)[1]


def _memo(spec: SemigroupSpec, top: float) -> tuple[tuple[int, ...] | None, _Walk]:
    """(order, walk) for the spec, its Apéry layers read up to top: see :meth:`_Walk.read`.

    ``order`` maps the spec's points onto the walk's (see :func:`_orbit`);
    it is None where the walk runs on the spec itself.  A cap refusal met
    on a permuted walk names both specs.
    """
    entry = _walks.get(spec)
    if entry is None:
        order, key = _orbit(spec)
        if key not in _walks:
            _walks[key] = None, _Walk(key)
        entry = _walks[spec] = (None if key == spec else order), _walks[key][1]
    try:
        entry[1].read(top)
    except ResourceLimitError as refusal:
        if entry[0] is None:
            raise
        raise ResourceLimitError(f"{refusal}, walked for {spec.describe()}, its axes permuted") from refusal
    return entry


def _restore(order: tuple[int, ...]) -> Callable[[Sequence], tuple]:
    """The map from the walk's points back to the spec's, the inverse of ``order``."""
    inverse = sorted(range(len(order)), key=order.__getitem__)
    return lambda u: tuple(u[j] for j in inverse)


def _apery_layers(spec: SemigroupSpec) -> Iterator[list[tuple[int, ...]]]:
    """Apéry layers 0, 1, 2, ... as ascending lists, ending at the first empty layer t >= 1."""
    for t, (layer, reached) in enumerate(_layers(spec)):
        covered = reached()
        found = _vectors({key: bits & ~covered.get(key, 0) for key, bits in layer.items()}, spec.n, spec.d, t)
        if t and not found:
            return
        yield found


def apery_set(spec: SemigroupSpec) -> tuple[ExponentVector, ...]:
    """The whole Apéry set, ascending: the monomial basis of k[S] modulo the pure powers."""
    if spec.case is PinchCase.SATURATED:
        raise InvalidSpecError(f"the Apéry set of {spec.describe()} is infinite")
    order, walk = _memo(spec, inf)
    found = itertools.chain(*walk.classes.values())
    return tuple(sorted(map(ExponentVector, found if order is None else map(_restore(order), found))))


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
    order, walk = _memo(spec, degree // d)
    if order is not None:
        point = tuple(point[i] for i in order)
    return any(all(map(operator.le, a, point)) for a in walk.classes.get(tuple(c % d for c in point), ()))


def gap_boxes(spec: SemigroupSpec) -> tuple[Box, ...]:
    """The spec's gaps against its normalization, in every degree, as its maximal boxes, sorted.

    A box (r, c) holds r + d*x for every x in N^n with x <= c, where r is a
    residue vector and each c_i is finite or ``math.inf``; see the module
    docstring.  A ``SATURATED`` pinch is its own normalization: no box.
    """
    if spec.case is PinchCase.SATURATED:
        return ()
    order, walk = _memo(spec, inf)
    if walk.boxes is None:
        walk.boxes = _boxes(walk.spec, walk.classes)
    if order is None:
        return walk.boxes
    restore = _restore(order)
    return tuple(sorted((restore(r), restore(edges)) for r, edges in walk.boxes))


def _boxes(spec: SemigroupSpec, classes: dict[tuple[int, ...], list[tuple[int, ...]]]) -> tuple[Box, ...]:
    """The maximal gap boxes of each residue class, from the spec's whole Apéry set by class."""
    n, d = spec.n, spec.d
    out = []
    for head in itertools.product(range(d), repeat=n - 1):
        r = (*head, -sum(head) % d)
        found = classes.get(r, ())  # a class with no Apéry element is missing whole
        if r in found:  # r is in S, and so is all of r + d*N^n
            continue
        edges: list[tuple[float, ...]] = [(inf,) * n]
        for a in found:
            edges = _split(edges, [(c - k) // d for c, k in zip(a, r)])
        out.extend((r, c) for c in edges)
    return tuple(sorted(out))


def _split(boxes: list[tuple[float, ...]], b: Sequence[int]) -> list[tuple[float, ...]]:
    """The maximal boxes Π[0, c_i] of the union of ``boxes`` less the upset of b.

    ``boxes`` are the maximal ones of their union.  A box meets the upset of
    b exactly when it holds b, and then it splits once along each nonzero
    b_i, into its part with x_i < b_i.  A part may fall inside another box,
    so only the maximal parts are kept; a box that did not split lies in no
    part, as every part lies in the box it came from.
    """
    kept, parts = [], set()
    for c in boxes:
        if all(map(operator.le, b, c)):
            parts.update(c[:i] + (k - 1,) + c[i + 1 :] for i, k in enumerate(b) if k)
        else:
            kept.append(c)
    pool = kept + list(parts)
    return kept + [c for c in parts if not any(o != c and all(map(operator.le, c, o)) for o in pool)]


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

    Zero bytes are skipped in C, so a sparse (Apéry) mask costs about its set bits.
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


def layer_members(spec: SemigroupSpec, t: int) -> tuple[ExponentVector, ...]:
    """All sums of exactly t generators, i.e. the members of degree t*d.

    Returned sorted for deterministic iteration.
    """
    if t < 0:
        raise InvalidSpecError(f"layer index must be nonnegative, got {t}")
    layer = next(itertools.islice(_layers(spec), t, None))[0]
    return tuple(map(ExponentVector, _vectors(layer, spec.n, spec.d, t)))
