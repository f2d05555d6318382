"""Membership engine: memoized search vs layer enumeration."""

import itertools
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from veropinch import (
    Decomposition,
    ResourceLimitError,
    cokernel_model,
    decompose,
    frobenius_on_cokernel,
    is_member,
    layer_members,
    pinch_spec,
    reset_membership_cache,
    veronese_generators,
    weak_compositions,
)
from veropinch.cli import _removal_sets
from veropinch.membership import _layers, _memo_tables

# one spec per search shape: line, interior, odd-odd, an n=4 line pinch and
# an n=4 multipinch
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


class TestMemoSoundness:
    @pytest.mark.parametrize("spec", SEARCH_SPECS, ids=lambda s: s.describe())
    def test_every_memo_entry_matches_the_layers(self, spec):
        # the search writes the points it passes through, including the
        # ancestors a member child settles; each must hold its true value
        reset_membership_cache()
        for v in weak_compositions(8 * spec.d, spec.n):
            is_member(v, spec)
        layers = {t: set(layer_members(spec, t)) for t in range(9)}
        memo = _memo_tables[spec]
        assert len(memo) > 1
        for point, value in memo.items():
            assert value == (point in layers[sum(point) // spec.d]), point
        reset_membership_cache()

    def test_high_char_trace_stops_at_the_first_member_child(self):
        # the p = 9973 images of the n=4 line pinch are deep member queries;
        # a search that resolves every sibling writes 172,866 entries here
        reset_membership_cache()
        spec = pinch_spec(4, 3, [(2, 1, 0, 0)])
        frobenius_on_cokernel(cokernel_model(spec), 9973)
        assert len(_memo_tables[spec]) < 100_000
        reset_membership_cache()


class TestLayerMembers:
    def test_layer_zero(self):
        spec = pinch_spec(2, 2, [(1, 1)])
        assert layer_members(spec, 0) == ((0, 0),)

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
        # a degree-td vector is a member iff it appears in layer t, up to 8d
        for t in range(0, 9):
            layer = set(layer_members(spec, t))
            for v in weak_compositions(t * spec.d, spec.n):
                assert is_member(v, spec) == (v in layer), (t, v)

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
        for t, layer in enumerate(itertools.islice(_layers(pinch_spec(n, 2, [])), 6)):
            bits = sum(chunk.bit_length() for chunk in layer.values())
            assert bits <= 64 * comb(2 * t + n - 1, n - 1), t


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
            for m in veronese_generators(n, d).members:
                yield pinch_spec(n, d, [m])
    for n, d in ((3, 3), (4, 3)):
        small = [m for m in veronese_generators(n, d).members if max(m) < d - 1]
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
    def test_witness_is_read_from_the_memo(self, spec):
        # a member query leaves its witness path in the memo, so decompose
        # after is_member on a cold memo searches nothing new
        for t in range(1, 5):
            for v in weak_compositions(t * spec.d, spec.n):
                reset_membership_cache()
                is_member(v, spec)
                before = len(_memo_tables[spec])
                decompose(v, spec)
                assert len(_memo_tables[spec]) == before, v
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

    def test_bad_cap_value_rejected(self, monkeypatch):
        from veropinch import InvalidSpecError

        monkeypatch.setenv("VEROPINCH_MEMO_CAP", "not-a-number")
        reset_membership_cache()
        with pytest.raises(InvalidSpecError):
            is_member((3, 3, 3), pinch_spec(3, 3, [(1, 1, 1)]))
        monkeypatch.delenv("VEROPINCH_MEMO_CAP")
        reset_membership_cache()
