"""Membership engine: the Apéry lookup and the layer walk, against independent oracles."""

import itertools
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from veropinch import (
    Decomposition,
    InvalidSpecError,
    PinchCase,
    ResourceLimitError,
    SemigroupSpec,
    decompose,
    frobenius_on_cokernel,
    gap_set,
    is_member,
    layer_members,
    pinch_spec,
    reset_membership_cache,
    veronese_generators,
    weak_compositions,
)
from veropinch import membership
from veropinch import cli
from veropinch.cli import _removal_sets
from veropinch.lattice import _removable
from veropinch.membership import _layers, apery_set, gap_boxes, walk_spec

from apery_certificate import certificate_failures
from reference_search import reference_member

# one spec per gap shape: line, interior, odd-odd, an n=4 line pinch and an
# n=4 multipinch
SEARCH_SPECS = [
    pinch_spec(3, 3, [(2, 1, 0)]),
    pinch_spec(3, 3, [(1, 1, 1)]),
    pinch_spec(3, 2, [(1, 1, 0)]),
    pinch_spec(4, 3, [(2, 1, 0, 0)]),
    pinch_spec(4, 4, [(2, 1, 1, 0), (1, 1, 2, 0)]),
]


class TestIsMember:
    def test_generator_is_member(self):
        spec = pinch_spec(2, 4, [(2, 2)])
        assert is_member((3, 1), spec)

    def test_removed_vector_is_not(self):
        spec = pinch_spec(2, 4, [(2, 2)])
        assert not is_member((2, 2), spec)

    def test_line_gap_vector_is_not(self):
        spec = pinch_spec(2, 4, [(3, 1)])
        assert not is_member((7, 1), spec)

    def test_explicit_two_part_sum(self):
        spec = pinch_spec(2, 4, [(3, 1)])
        assert is_member((6, 2), spec)  # (4,0) + (2,2)

    def test_wrong_degree_is_false_not_error(self):
        spec = pinch_spec(2, 4, [(2, 2)])
        assert not is_member((3, 2), spec)

    def test_wrong_arity_is_an_error(self):
        with pytest.raises(InvalidSpecError, match="point has arity 3, spec has n=2"):
            is_member((2, 2, 0), pinch_spec(2, 4, [(2, 2)]))

    def test_zero_is_member(self):
        spec = pinch_spec(2, 4, [(2, 2)])
        assert is_member((0, 0), spec)

    def test_full_slice_membership_is_degree_divisibility(self):
        # with nothing removed, membership is exactly degree = 0 mod d,
        # checked on the whole box of coordinates up to 4d
        for n, d in ((2, 2), (2, 3), (3, 2), (3, 3)):
            spec = pinch_spec(n, d, [])
            for v in itertools.product(range(4 * d + 1), repeat=n):
                assert is_member(v, spec) == (sum(v) % d == 0), v


def _plain_apery(spec, top):
    """Layers 0..top of the Apéry set, cut after its first empty layer t >= 1.

    Layer t keeps the members s of degree t*d with s - p outside layer t-1
    for every kept pure power p.  Read off plain layer sets, not off the
    engine's Apéry masks.
    """
    pure = [g for g in spec.generators() if spec.d in g]
    layers, below = [], set()
    for t in range(top + 1):
        layer = set(layer_members(spec, t))
        layers.append([v for v in layer if all(v.sub_or_none(p) not in below for p in pure)])
        if t and not layers[-1]:
            break
        below = layer
    return layers


def _apery_specs():
    """Every spec with n <= 3 and d <= 4 whose Apéry set is finite."""
    for n in (2, 3):
        for d in range(2, 5):
            yield pinch_spec(n, d, [])
            for m in veronese_generators(n, d):
                if max(m) < d:
                    yield pinch_spec(n, d, [m])
    for n, d in ((3, 3), (3, 4)):
        small = [m for m in veronese_generators(n, d) if max(m) < d - 1]
        for removal in _removal_sets(small):
            yield pinch_spec(n, d, removal, multipinch=True)


@st.composite
def _small_specs(draw):
    n, d = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    gens = veronese_generators(n, d)
    small = [m for m in gens if max(m) < d - 1]
    kind = draw(st.sampled_from(("full", "single", "saturated", "multi")))
    if kind == "single":
        return pinch_spec(n, d, [draw(st.sampled_from(gens))])
    if kind == "saturated":
        return pinch_spec(n, d, [draw(st.sampled_from([m for m in gens if d in m]))])
    if kind == "multi" and d > 2 and small:
        removal = draw(st.lists(st.sampled_from(small), min_size=1, unique=True))
        return pinch_spec(n, d, removal, multipinch=True)
    return pinch_spec(n, d, [])


class TestApery:
    @pytest.mark.parametrize(
        "spec",
        [*SEARCH_SPECS, pinch_spec(3, 3, [(3, 0, 0)]), pinch_spec(3, 3, [(0, 0, 3)])],
        ids=lambda s: s.describe(),
    )
    def test_every_answer_matches_the_layers(self, spec):
        # the Apéry lookup answers every vector of layers 0..11 as layer
        # membership does, and reads the plain Apéry layers, for every gap
        # shape; two saturated pinches, answered by their cone, agree with
        # the layers past the walk's radix restart at t = 9 (the second
        # keeps the pure power on the first axis, whose shift depends on the
        # radix) and hold no Apéry walk
        reset_membership_cache()
        for t in range(12):
            layer = set(layer_members(spec, t))
            for v in weak_compositions(t * spec.d, spec.n):
                assert is_member(v, spec) == (v in layer), v
        if spec.case is PinchCase.SATURATED:
            assert spec not in membership._walks
        else:
            # the Apéry elements the queries read, of the spec the walk runs
            # on, each kept in its residue class
            _, walk = membership._walks[spec]
            assert all(tuple(c % spec.d for c in a) == r for r, found in walk.classes.items() for a in found)
            read = itertools.chain(*walk.classes.values())
            assert sorted(read) == sorted(itertools.chain(*_plain_apery(walk.spec, 11)))
        reset_membership_cache()

    def test_high_char_trace_reads_no_layer_past_the_apery_stop(self, built_layers, monkeypatch):
        # the p = 9973 images of the n=4 line pinch reach degree 9973 * 18;
        # layer 6 has C(21, 3) = 1330 vectors, so a cap of 1000 admits only
        # the layers up to the Apéry stop
        spec = pinch_spec(4, 3, [(2, 1, 0, 0)])
        stop = len(_plain_apery(spec, 5)) - 1
        monkeypatch.setenv("VEROPINCH_MEMO_CAP", "1000")
        reset_membership_cache()
        built_layers.clear()
        trace = frobenius_on_cokernel(spec, 9973, 6 * spec.d)
        assert all(step.killed for step in trace.action)
        assert built_layers == list(range(1, stop + 1))
        reset_membership_cache()

    @pytest.mark.parametrize("spec", _apery_specs(), ids=lambda s: s.describe())
    def test_apery_set_matches_the_layers(self, spec):
        reset_membership_cache()
        assert apery_set(spec) == tuple(sorted(itertools.chain(*_plain_apery(spec, 8))))

    @pytest.mark.parametrize(
        "spec", [pinch_spec(2, 4, [(4, 0)]), pinch_spec(3, 3, [(3, 0, 0)])], ids=lambda s: s.describe()
    )
    def test_saturated_apery_set_is_refused(self, spec):
        # a removed pure power leaves an Apéry set that never stops
        assert spec.case is PinchCase.SATURATED
        with pytest.raises(InvalidSpecError, match="infinite"):
            apery_set(spec)

    @pytest.mark.parametrize(
        "spec",
        [
            pinch_spec(n, d, [m])
            for n in (2, 3, 4)
            for d in range(2, 6)
            for m in veronese_generators(n, d)
            if d in m
        ],
        ids=lambda s: s.describe(),
    )
    def test_saturated_cone_matches_the_layers(self, spec):
        # w is in S exactly when w_i <= (d-1)(|w| - w_i) for the removed d*e_i
        i = spec.pinched().index(spec.d)
        for t in range(6):
            layer = set(layer_members(spec, t))
            for v in weak_compositions(t * spec.d, spec.n):
                assert (v[i] <= (spec.d - 1) * (sum(v) - v[i])) == (v in layer), v
                assert is_member(v, spec) == (v in layer), v

    @given(_small_specs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_the_reference_search(self, spec, data):
        # points of degree <= 8d, mostly a multiple of d; small coordinates
        # are drawn often, as every gap has some
        d, coord = spec.d, st.one_of(st.integers(0, 2), st.integers(0, 2 * spec.d))
        coords = [data.draw(coord) for _ in range(spec.n - 1)]
        last = -sum(coords) % d + d * data.draw(st.integers(0, 1))
        last += data.draw(st.sampled_from((0, 0, 0, 1)))  # now and then off the multiples of d
        point = tuple(data.draw(st.permutations([*coords, last])))
        assert is_member(point, spec) == reference_member(point, spec)


def _orbit_cases():
    """Every single pinch and swept removal set with n <= 3, d <= 4, and the maximal n=4, d=4 removal."""
    for n in (2, 3):
        for d in (2, 3, 4):
            yield from (pinch_spec(n, d, [m]) for m in veronese_generators(n, d))
            small = [m for m in veronese_generators(n, d) if max(m) < d - 1]
            yield from (pinch_spec(n, d, r, multipinch=True) for r in _removal_sets(small))
    yield pinch_spec(4, 4, [m for m in veronese_generators(4, 4) if max(m) < 3], multipinch=True)


def _act(perm, v):
    """The point v with its axes permuted: axis i of the result is axis perm[i] of v."""
    return tuple(v[i] for i in perm)


class TestOrbits:
    @pytest.mark.parametrize("spec", list(_orbit_cases()), ids=lambda s: s.describe())
    def test_answers_are_equivariant(self, spec):
        # a walk serves every spec that maps onto its spec, whichever spec
        # started it; with the memo cleared, each permuted spec must answer
        # as the spec's own answers permuted
        n, d = spec.n, spec.d
        points = [v for k in range(3 * d + 1) for v in weak_compositions(k, n)]
        saturated = spec.case is PinchCase.SATURATED
        reset_membership_cache()
        apery = () if saturated else apery_set(spec)
        boxes = gap_boxes(spec)
        members = [is_member(v, spec) for v in points]
        for perm in itertools.permutations(range(n)):
            removed = [_act(perm, m) for m in spec.removed]
            moved = pinch_spec(n, d, removed, multipinch=spec.case is PinchCase.MULTI)
            reset_membership_cache()
            if not saturated:
                assert apery_set(moved) == tuple(sorted(_act(perm, a) for a in apery)), perm
            assert gap_boxes(moved) == tuple(sorted((_act(perm, r), _act(perm, c)) for r, c in boxes)), perm
            assert [is_member(_act(perm, v), moved) for v in points] == members, perm
        reset_membership_cache()


def _sweep_walks():
    """{walk spec: a permuted spec of the README sweep that it answers for, or None}.

    The sweep's walks serve its single pinches with n <= 4 and d <= 5 that
    are not ``SATURATED``, and its multipinch removal sets with d = 3..5.
    """
    specs = [
        spec
        for n in (2, 3, 4)
        for d in range(2, 6)
        for spec in (pinch_spec(n, d, [m]) for m in veronese_generators(n, d))
        if spec.case is not PinchCase.SATURATED
    ]
    for n in (2, 3, 4):
        for d in (3, 4, 5):
            small = [m for m in veronese_generators(n, d) if _removable(m, d)]
            specs.extend(pinch_spec(n, d, removal, multipinch=True) for removal in _removal_sets(small))
    walks = {}
    for spec in specs:
        key = walk_spec(spec)
        if walks.get(key) is None:
            walks[key] = spec if spec != key else None
    return walks


SWEEP_WALKS = _sweep_walks()


class TestAperyCertificate:
    """Each Apéry set the sweep reads is certified whole (see ``tests/apery_certificate.py``)."""

    def test_the_sweep_reads_78_walks(self):
        assert len(SWEEP_WALKS) == 78

    @pytest.mark.parametrize("spec", SWEEP_WALKS, ids=lambda s: s.describe())
    def test_each_walk_is_certified(self, spec):
        assert certificate_failures(spec, apery_set(spec)) == []

    @pytest.mark.parametrize(
        "spec", [s for s in SWEEP_WALKS.values() if s is not None], ids=lambda s: s.describe()
    )
    def test_a_permuted_spec_is_certified_on_itself(self, spec):
        # its Apéry set is its walk's, mapped back onto its own axes
        assert certificate_failures(spec, apery_set(spec)) == []

    @pytest.mark.parametrize(
        "spec",
        [
            pinch_spec(3, 3, [(1, 1, 1)]),
            pinch_spec(4, 3, [(2, 1, 0, 0)]),
            pinch_spec(3, 4, [(1, 1, 2), (2, 1, 1)], multipinch=True),
        ],
        ids=lambda s: s.describe(),
    )
    def test_a_dropped_or_a_dominated_element_fails(self, spec):
        apery = apery_set(spec)
        for a in apery:
            assert certificate_failures(spec, [b for b in apery if b != a]), a
            assert certificate_failures(spec, [*apery, (a[0] + spec.d, *a[1:])]), a


class TestGapBoxes:
    @pytest.mark.parametrize("spec", SEARCH_SPECS, ids=lambda s: s.describe())
    def test_boxes_match_the_reference_search(self, spec):
        # every vector of degree t*d <= 6d lies in a box exactly when the
        # search, which never walks a layer, finds it missing
        d = spec.d
        reset_membership_cache()
        boxes = gap_boxes(spec)

        def boxed(v):
            # v = corner + d*x for some 0 <= x <= edges
            for corner, edges in boxes:
                steps = [divmod(c - r, d) for c, r in zip(v, corner)]
                if all(not rest and 0 <= x <= e for (x, rest), e in zip(steps, edges)):
                    return True
            return False

        for t in range(7):
            for v in weak_compositions(t * d, spec.n):
                assert boxed(v) == (not reference_member(v, spec)), v
        reset_membership_cache()


class TestLayerMembers:
    def test_layer_zero(self):
        spec = pinch_spec(2, 2, [(1, 1)])
        assert layer_members(spec, 0) == ((0, 0),)

    def test_negative_layer_rejected(self):
        with pytest.raises(InvalidSpecError, match="layer index must be nonnegative, got -1"):
            layer_members(pinch_spec(2, 2, [(1, 1)]), -1)

    def test_layer_one_is_the_generators(self):
        spec = pinch_spec(3, 3, [(1, 1, 1)])
        assert set(layer_members(spec, 1)) == set(spec.generators())

    def test_layer_two_even_slice(self):
        spec = pinch_spec(2, 2, [(1, 1)])
        assert set(layer_members(spec, 2)) == {(4, 0), (2, 2), (0, 4)}

    def test_walked_full_layer_is_every_composition(self):
        # the unpinched slice goes through the same shift-OR walk as a
        # pinch; each of its layers must be every composition of t*d
        for n, d in ((2, 3), (3, 2), (3, 3)):
            for t in range(1, 5):
                full = layer_members(pinch_spec(n, d, []), t)
                assert full == tuple(sorted(weak_compositions(t * d, n)))

    @pytest.mark.parametrize(
        "spec",
        [
            pinch_spec(2, 4, [(3, 1)]),
            pinch_spec(2, 2, [(1, 1)]),
            pinch_spec(3, 3, [(1, 1, 1)]),
            pinch_spec(3, 3, [(2, 1, 0)]),
        ],
        ids=lambda s: s.describe(),
    )
    def test_membership_matches_layers(self, spec):
        # a degree-td vector is a member iff it appears in layer t, up to 8d;
        # both engines answer as the search that never walks a layer
        for t in range(0, 9):
            layer = set(layer_members(spec, t))
            for v in weak_compositions(t * spec.d, spec.n):
                assert is_member(v, spec) == (v in layer) == reference_member(v, spec), (t, v)

    def test_cold_deep_layer_builds_without_recursion(self):
        # layer t of k[x^2, y^2] is every even pair of degree 2t; a cold
        # build far past the recursion limit must not recurse per layer
        reset_membership_cache()
        layer = layer_members(pinch_spec(2, 2, [(1, 1)]), 1500)
        assert len(layer) == 1501
        assert all(a % 2 == 0 and b % 2 == 0 and a + b == 3000 for a, b in layer)
        reset_membership_cache()

    @pytest.mark.parametrize(
        "spec", [pinch_spec(3, 3, [(1, 1, 1)]), pinch_spec(3, 3, [])], ids=lambda s: s.describe()
    )
    def test_layer_size_cap(self, spec, monkeypatch):
        # layer 2 at n=3 d=3 may hold C(8, 2) = 28 vectors: a cap of 28
        # admits it, a cap of 27 refuses it before it is built
        monkeypatch.setenv("VEROPINCH_MEMO_CAP", "28")
        assert len(layer_members(spec, 2)) <= 28
        monkeypatch.setenv("VEROPINCH_MEMO_CAP", "27")
        with pytest.raises(ResourceLimitError, match="layer 2 of .* has 28 vectors"):
            layer_members(spec, 2)

    def test_mask_size_cap(self, monkeypatch):
        # layer 5 at n=11 d=2 has C(20, 10) = 184,756 vectors, within a cap
        # of 184,756, but its mask bound is C(18, 8) * 17**2 = 12,646,062
        # bits, above 64 * 184,756 = 11,824,384
        spec = pinch_spec(11, 2, [])
        monkeypatch.setenv("VEROPINCH_MEMO_CAP", "184756")
        words = "layer 5 of .* 12646062-bit mask has 197595 64-bit words"
        with pytest.raises(ResourceLimitError, match=words):
            layer_members(spec, 5)
        monkeypatch.setenv("VEROPINCH_MEMO_CAP", "197595")
        assert len(layer_members(spec, 5)) == 184756

    @pytest.mark.parametrize("n", range(2, 11))
    def test_mask_grows_with_the_layer_not_the_cube(self, n):
        # the chunks of a full layer hold at most 64 bits per vector; one
        # mask over the whole radix**(n-1) cube would hold 17**9 bits for
        # the 92,378 vectors of layer 5 at n=10
        for t, (layer, _) in enumerate(itertools.islice(_layers(pinch_spec(n, 2, [])), 6)):
            bits = sum(chunk.bit_length() for chunk in layer.values())
            assert bits <= 64 * comb(2 * t + n - 1, n - 1), t

    @pytest.mark.parametrize("n,d", [(n, d) for n in range(2, 7) for d in range(2, 6)])
    def test_full_slice_apery_set_is_the_residue_box(self, n, d):
        # every vector of degree t*d is a member, so the Apéry set is the
        # vectors with every entry below d, and no gap box is left
        spec = pinch_spec(n, d, [])
        reset_membership_cache()
        box = sorted(v for v in itertools.product(range(d), repeat=n) if sum(v) % d == 0)
        assert apery_set(spec) == tuple(box)
        assert gap_boxes(spec) == ()
        reset_membership_cache()

    @pytest.mark.parametrize(
        "spec",
        [*SEARCH_SPECS, pinch_spec(3, 3, [(1, 1, 1)], multipinch=True)],
        ids=lambda s: s.describe(),
    )
    def test_box_points_are_the_simplex_minus_the_layer(self, spec):
        n, d = spec.n, spec.d
        gaps = gap_set(spec).materialize(6 * spec.d)
        assert gaps
        for t in range(1, 7):
            count = sum(1 for v in gaps if v.degree() == t * d)
            assert count == comb(t * d + n - 1, n - 1) - len(layer_members(spec, t)), t


# an interior pinch, a line pinch and a multipinch, all with Apéry sets in layers 0..2
BAND_SPECS = [
    pinch_spec(3, 3, [(1, 1, 1)]),
    pinch_spec(2, 4, [(3, 1)]),
    pinch_spec(4, 3, [(1, 1, 1, 0)], multipinch=True),
]


class TestRadixBands:
    def test_walk_does_not_depend_on_the_band_schedule(self, monkeypatch):
        # the walk needs only a radix above every coordinate that never
        # shrinks; one band for every layer up to 16 must give the same answers
        def answers():
            reset_membership_cache()
            return [
                ([layer_members(s, t) for t in range(7)], gap_set(s).materialize(6 * s.d), apery_set(s))
                for s in BAND_SPECS
            ]

        banded, radix = answers(), membership._radix
        monkeypatch.setattr(membership, "_radix", lambda t, d: (d << 4) + 1)
        assert answers() == banded
        reset_membership_cache()
        for d in range(1, 11):
            radixes = [radix(t, d) for t in range(65)]
            assert all(r > t * d for t, r in enumerate(radixes)), d
            assert radixes == sorted(radixes), d

    def test_short_walks_build_each_layer_once(self, monkeypatch):
        # layers 0..2 share one radix, so a walk to layer 2 shifts twice; a
        # walk to layer 4 rebuilds layers 1..2 only at the t = 3 band edge
        calls = []
        shifted = membership._shifted

        def counting(layer, offsets):
            calls.append(offsets)
            return shifted(layer, offsets)

        monkeypatch.setattr(membership, "_shifted", counting)
        spec = pinch_spec(3, 3, [(1, 1, 1)])
        layer_members(spec, 2)
        assert len(calls) == 2
        calls.clear()
        layer_members(spec, 4)
        assert len(calls) == 6


def _code(v):
    # one byte per coordinate, big-endian: codes add like the vectors (every
    # coordinate here stays below 256) and sort like them
    return int.from_bytes(bytes(v), "big")


def _sumset_layers(spec, top):
    """Layers 0..top as sets of codes: a plain set sumset, independent of the engine."""
    gens = [_code(g) for g in spec.generators()]
    layer = {0}
    for _ in range(top + 1):
        yield layer
        layer = {v + g for v in layer for g in gens}


def _oracle_specs():
    for n in range(2, 5):
        for d in range(2, 6):
            yield pinch_spec(n, d, [])
            for m in veronese_generators(n, d):
                yield pinch_spec(n, d, [m])
    for n, d in ((3, 3), (4, 3)):
        small = [m for m in veronese_generators(n, d) if max(m) < d - 1]
        for removal in _removal_sets(small):
            yield pinch_spec(n, d, removal, multipinch=True)
    # from n = 5 a layer spans several chunks
    for n, d, m in (
        (5, 3, (1, 1, 1, 0, 0)),
        (6, 2, (0, 0, 0, 1, 1, 0)),
        (7, 2, (1, 1, 0, 0, 0, 0, 0)),
    ):
        yield pinch_spec(n, d, [])
        yield pinch_spec(n, d, [m])


class TestLayerOracle:
    @pytest.mark.parametrize("spec", _oracle_specs(), ids=lambda s: s.describe())
    def test_layers_match_the_set_sumset(self, spec):
        for t, layer in enumerate(_sumset_layers(spec, 6)):
            assert [_code(v) for v in layer_members(spec, t)] == sorted(layer), t


class TestDecompose:
    def test_witness_for_explicit_sum(self):
        spec = pinch_spec(2, 4, [(3, 1)])
        witness = decompose((6, 2), spec)
        assert witness is not None
        assert sorted(map(tuple, witness.parts)) == [(2, 2), (4, 0)]

    def test_absent_for_gap_vectors(self):
        assert decompose((1, 1, 1), pinch_spec(3, 3, [(1, 1, 1)])) is None
        assert decompose((3, 3), pinch_spec(2, 2, [(1, 1)])) is None

    def test_part_count_is_forced(self):
        spec = pinch_spec(2, 3, [(2, 1)])
        witness = decompose((6, 6), spec)
        assert witness is not None
        assert len(witness.parts) == 4

    def test_deterministic(self):
        spec = pinch_spec(3, 3, [(1, 1, 1)])
        a = decompose((3, 3, 3), spec)
        reset_membership_cache()
        b = decompose((3, 3, 3), spec)
        assert a.parts == b.parts

    @pytest.mark.parametrize(
        ("spec", "point", "parts"),
        [
            (pinch_spec(3, 3, [(1, 1, 1)]), (4, 1, 1), ((2, 1, 0), (2, 0, 1))),
            (
                pinch_spec(3, 2, [(1, 1, 0)]),
                (3, 3, 2),
                ((2, 0, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1)),
            ),
            (
                pinch_spec(4, 3, [(2, 1, 0, 0)]),
                (5, 4, 3, 0),
                ((3, 0, 0, 0), (2, 0, 1, 0), (0, 3, 0, 0), (0, 1, 2, 0)),
            ),
            (
                pinch_spec(4, 4, [(2, 1, 1, 0), (1, 1, 2, 0)]),
                (6, 1, 1, 0),
                ((3, 1, 0, 0), (3, 0, 1, 0)),
            ),
        ],
    )
    def test_witness_takes_the_first_generator_with_a_member_remainder(
        self, spec, point, parts
    ):
        # generators are tried in descending lex order; (4,1,1) and
        # (6,1,1,0) cannot take their first fitting generator
        reset_membership_cache()
        assert decompose(point, spec).parts == parts

    @pytest.mark.parametrize("spec", SEARCH_SPECS, ids=lambda s: s.describe())
    def test_witness_builds_no_new_layer(self, spec, built_layers):
        # every remainder of a witness has a smaller degree than its target,
        # so decompose after is_member reads only Apéry layers already built
        for t in range(1, 5):
            for v in weak_compositions(t * spec.d, spec.n):
                reset_membership_cache()
                member = is_member(v, spec)
                before = len(built_layers)
                assert (decompose(v, spec) is not None) == member, v
                assert len(built_layers) == before, v
        reset_membership_cache()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_witness_soundness(self, data):
        spec = pinch_spec(2, 3, [(2, 1)])
        t = data.draw(st.integers(1, 5))
        layer = layer_members(spec, t)
        target = data.draw(st.sampled_from(layer))
        witness = decompose(target, spec)
        assert witness is not None
        gens = set(spec.generators())
        assert all(p in gens for p in witness.parts)
        total = tuple(sum(c) for c in zip(*witness.parts))
        assert total == tuple(target)

    def test_filters_the_slice_once(self, monkeypatch):
        # eight steps try the same generators, so the slice is filtered once
        spec, target = pinch_spec(4, 6, [(5, 1, 0, 0)]), (30, 12, 6, 0)
        assert is_member(target, spec)
        calls = []
        generators = SemigroupSpec.generators
        monkeypatch.setattr(
            SemigroupSpec, "generators", lambda self: calls.append(self) or generators(self)
        )
        assert len(decompose(target, spec).parts) == 8
        assert calls == [spec]

    def test_validation_rejects_bad_sum(self):
        from veropinch import ExponentVector, InvalidSpecError

        with pytest.raises(InvalidSpecError):
            Decomposition(
                parts=(ExponentVector((2, 0)),), target=ExponentVector((1, 1))
            )


class TestMonotonicity:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_sum_of_members_is_member(self, data):
        spec = pinch_spec(2, 4, [(3, 1)])
        e = data.draw(st.sampled_from(layer_members(spec, data.draw(st.integers(1, 4)))))
        f = data.draw(st.sampled_from(layer_members(spec, data.draw(st.integers(1, 4)))))
        assert is_member(e.add(f), spec)


class TestMemoCap:
    def test_cap_overflow_is_an_explicit_failure(self, monkeypatch):
        monkeypatch.setenv("VEROPINCH_MEMO_CAP", "8")
        reset_membership_cache()
        spec = pinch_spec(3, 3, [(1, 1, 1)])
        with pytest.raises(ResourceLimitError):
            is_member((9, 9, 9), spec)
        monkeypatch.delenv("VEROPINCH_MEMO_CAP")
        reset_membership_cache()
        assert is_member((9, 9, 9), spec)

    def test_refusal_on_a_permuted_walk_names_the_queried_spec(self, monkeypatch):
        # (1, 2, 0) walks on (2, 1, 0); the refusal names both, so the
        # caller finds the spec it asked about
        spec, walked = pinch_spec(3, 3, [(1, 2, 0)]), pinch_spec(3, 3, [(2, 1, 0)])
        monkeypatch.setenv("VEROPINCH_MEMO_CAP", "8")
        reset_membership_cache()
        with pytest.raises(ResourceLimitError) as refusal:
            is_member((9, 9, 9), spec)
        assert f"of {walked.describe()} has" in str(refusal.value)
        assert str(refusal.value).endswith(f"walked for {spec.describe()}, its axes permuted")
        with pytest.raises(ResourceLimitError) as refusal:
            is_member((9, 9, 9), walked)
        assert "walked for" not in str(refusal.value)
        reset_membership_cache()

    def test_saturated_queries_past_the_cap_are_answered(self, monkeypatch):
        # the cone answers a saturated pinch at any degree: a cap of 50
        # admits only layers 0..2 of n=3 d=3, and these queries reach layer 100
        spec = pinch_spec(3, 3, [(3, 0, 0)])
        monkeypatch.setenv("VEROPINCH_MEMO_CAP", "50")
        reset_membership_cache()
        assert is_member((200, 100, 0), spec)
        assert not is_member((201, 99, 0), spec)
        assert not is_member((300, 0, 0), spec)
        witness = decompose((200, 100, 0), spec)
        assert len(witness.parts) == 100
        assert tuple(map(sum, zip(*witness.parts))) == (200, 100, 0)
        reset_membership_cache()

    def test_bad_cap_value_rejected(self, monkeypatch):
        from veropinch import InvalidSpecError

        monkeypatch.setenv("VEROPINCH_MEMO_CAP", "not-a-number")
        reset_membership_cache()
        with pytest.raises(InvalidSpecError):
            is_member((3, 3, 3), pinch_spec(3, 3, [(1, 1, 1)]))
        monkeypatch.delenv("VEROPINCH_MEMO_CAP")
        reset_membership_cache()

    def test_walks_stopped_by_the_cap_are_not_resumed(self, monkeypatch):
        # a walk that raised is finished; the next query must walk afresh,
        # for a membership query and for the gap boxes alike
        spec = pinch_spec(3, 3, [(1, 1, 1)])
        reset_membership_cache()
        monkeypatch.setenv("VEROPINCH_MEMO_CAP", "8")
        with pytest.raises(ResourceLimitError):
            is_member((9, 9, 9), spec)
        monkeypatch.delenv("VEROPINCH_MEMO_CAP")
        assert is_member((9, 9, 9), spec) and not is_member((1, 1, 1), spec)

        check = membership._check_layer

        def refuse_layer_two(s, t):
            if s == spec and t == 2:
                raise ResourceLimitError(f"layer {t} refused")
            check(s, t)

        reset_membership_cache()
        monkeypatch.setattr(membership, "_check_layer", refuse_layer_two)
        with pytest.raises(ResourceLimitError):
            gap_set(spec).materialize(3 * spec.d)
        monkeypatch.undo()
        assert gap_set(spec).materialize(3 * spec.d) == ((1, 1, 1),)
        reset_membership_cache()

    @pytest.mark.parametrize("m", [(1, 1, 1), (0, 1, 2)], ids=["own-walk", "permuted-walk"])
    def test_a_refused_walk_is_not_stored(self, monkeypatch, m):
        # a walk goes into the memo only once complete, so after a refusal
        # neither the spec nor the spec its walk runs on holds one
        spec = pinch_spec(3, 3, [m])
        key = membership.walk_spec(spec)
        answer = (9, 9, 9) in layer_members(spec, 9)
        reset_membership_cache()
        monkeypatch.setenv("VEROPINCH_MEMO_CAP", "8")
        with pytest.raises(ResourceLimitError):
            is_member((9, 9, 9), spec)
        assert spec not in membership._walks and key not in membership._walks
        monkeypatch.delenv("VEROPINCH_MEMO_CAP")
        assert is_member((9, 9, 9), spec) == answer
        reset_membership_cache()


class TestSharedWalks:
    @pytest.fixture
    def built(self, monkeypatch):
        """(spec.removed, t) of every layer built from here on, in order of building."""
        built = []
        check = membership._check_layer

        def recording(spec, t):
            built.append((spec.removed, t))
            check(spec, t)

        monkeypatch.setattr(membership, "_check_layer", recording)
        return built

    def test_pinches_of_one_orbit_share_one_walk(self, built):
        # the six line pinches of (2,1,0) permute one another's axes: the
        # first walks the sorted (2,1,0), and the other five read its layers
        line = pinch_spec(3, 3, [(2, 1, 0)])
        pinches = [pinch_spec(3, 3, [m]) for m in sorted(set(itertools.permutations((2, 1, 0))))]
        reset_membership_cache()
        for spec in pinches:
            gap_boxes(spec)
        assert {removed for removed, _ in built} == {line.removed}
        assert [t for _, t in built] == list(range(1, len(built) + 1))
        walks = {id(walk) for _, walk in membership._walks.values()}
        assert len(membership._walks) == 6 and len(walks) == 1
        reset_membership_cache()

    def test_saturated_queries_build_no_layer(self, built):
        # the cone answers a saturated pinch: these queries would otherwise
        # walk its Apéry layers up to layer 400, which never stop
        spec = pinch_spec(3, 3, [(3, 0, 0)])
        reset_membership_cache()
        assert not is_member((1200, 0, 0), spec)
        assert not is_member((1199, 1, 0), spec)
        assert is_member((800, 400, 0), spec)
        assert built == []
        assert spec not in membership._walks

    def test_walk_keys_are_specs(self):
        # only Apéry walks are memoized, keyed by spec, and specs of one
        # orbit share a walk; `verify` runs these sweeps in its workers, so
        # they are driven here in this process
        ns, ds = range(2, 5), range(2, 6)
        reset_membership_cache()
        rows = [
            *cli._sweep_gap_equivalence(ns, ds, 6),
            *cli._sweep_socle(ds),
            *cli._sweep_frobenius(ns, ds, 6, (2, 3, 5)),
            *cli._sweep_multipinch(ns, ds, 6),
        ]
        assert rows and all(ok for _, _, ok, _ in rows)
        assert membership._walks
        assert all(type(key) is SemigroupSpec for key in membership._walks)
        walks = {id(walk) for _, walk in membership._walks.values()}
        assert len(walks) < len(membership._walks)
        reset_membership_cache()

    def test_a_first_query_walks_to_the_apery_stop(self, built):
        # a query of degree d reads the whole walk, so the Apéry set and the
        # gap boxes asked for next build no layer
        spec = pinch_spec(3, 3, [(1, 1, 1)])
        stop = len(_plain_apery(spec, 8)) - 1
        reset_membership_cache()
        built.clear()
        assert is_member((3, 0, 0), spec)
        assert built == [(spec.removed, t) for t in range(1, stop + 1)]
        built.clear()
        assert apery_set(spec) and gap_boxes(spec)
        assert built == []
        reset_membership_cache()

    def test_queries_past_the_apery_stop_build_no_layer(self, built):
        # (9973 * v) has degree 9973 * 3, far past the layers the Apéry set has
        spec = pinch_spec(4, 3, [(2, 1, 0, 0)])
        stop = len(_plain_apery(spec, 5)) - 1
        queries = [tuple(9973 * c for c in v) for v in veronese_generators(4, 3)]
        reset_membership_cache()
        built.clear()
        first = [is_member(v, spec) for v in queries]
        assert built == [(spec.removed, t) for t in range(1, stop + 1)]
        built.clear()
        for _ in range(3):
            assert [is_member(v, spec) for v in queries] == first
        assert built == []
        reset_membership_cache()
