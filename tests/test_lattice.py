"""Ground types: exponent vectors, generator slices, pinch validation."""

import sys
from math import comb

import pytest
from hypothesis import given, strategies as st

from veropinch import (
    ExponentVector,
    InvalidSpecError,
    PinchCase,
    ResourceLimitError,
    perturb,
    pinch_spec,
    veronese_generators,
    weak_compositions,
)


class TestExponentVector:
    def test_degree_and_max(self):
        v = ExponentVector((3, 1, 0))
        assert v.degree() == 4
        assert v.max_entry() == 3

    def test_rejects_short_vectors(self):
        with pytest.raises(InvalidSpecError):
            ExponentVector((5,))

    def test_rejects_negative_coordinates(self):
        with pytest.raises(InvalidSpecError):
            ExponentVector((1, -1))

    def test_rejects_non_integers(self):
        with pytest.raises(InvalidSpecError):
            ExponentVector((1.5, 2))

    def test_behaves_like_tuple(self):
        v = ExponentVector((1, 2))
        assert v == (1, 2)
        assert hash(v) == hash((1, 2))
        assert v < ExponentVector((1, 3))

    def test_arithmetic(self):
        v = ExponentVector((2, 1))
        assert v.add((1, 1)) == (3, 2)
        assert v.scale(3) == (6, 3)
        assert v.sub_or_none((1, 0)) == (1, 1)
        assert v.sub_or_none((3, 0)) is None

    def test_rejects_negative_scaling(self):
        with pytest.raises(InvalidSpecError, match="scaling factor must be nonnegative"):
            ExponentVector((2, 1)).scale(-1)


class TestVeroneseGenerators:
    def test_2_4(self):
        gens = veronese_generators(2, 4)
        assert set(map(tuple, gens)) == {(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)}

    def test_3_2(self):
        gens = veronese_generators(3, 2)
        assert set(map(tuple, gens)) == {
            (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1),
        }

    def test_3_3_contains_interior_point(self):
        gens = veronese_generators(3, 3)
        assert len(gens) == 10
        assert ExponentVector((1, 1, 1)) in gens

    @pytest.mark.parametrize("n", range(2, 6))
    @pytest.mark.parametrize("d", range(2, 7))
    def test_cardinality_is_binomial(self, n, d):
        assert len(veronese_generators(n, d)) == comb(d + n - 1, n - 1)

    def test_every_member_has_degree_d(self):
        for g in veronese_generators(4, 3):
            assert g.degree() == 3

    @pytest.mark.parametrize("n,d", [(1, 3), (2, 1), (0, 2), (2, 0)])
    def test_rejects_degenerate_parameters(self, n, d):
        with pytest.raises(InvalidSpecError):
            veronese_generators(n, d)

    def test_slice_over_the_cap_is_refused_before_it_is_built(self, monkeypatch):
        # the slice is cached once built, so this (n, d) must be new to the
        # run: a cap of 97 refuses its 98 vectors, a cap of 98 admits them
        monkeypatch.setenv("VEROPINCH_MEMO_CAP", "97")
        with pytest.raises(ResourceLimitError, match=r"degree-97 slice of N\^2 has 98 vectors"):
            veronese_generators(2, 97)
        monkeypatch.setenv("VEROPINCH_MEMO_CAP", "98")
        assert len(veronese_generators(2, 97)) == 98

    def test_default_cap_refuses_a_huge_slice(self):
        # C(39, 29) = 635,745,396 vectors, above the default cap of 10**7
        with pytest.raises(ResourceLimitError, match="has 635745396 vectors"):
            veronese_generators(30, 10)

    def test_is_a_sorted_tuple(self):
        gens = veronese_generators(3, 4)
        assert type(gens) is tuple
        assert list(gens) == sorted(set(gens))
        assert all(type(g) is ExponentVector for g in gens)


class TestWeakCompositions:
    @pytest.mark.parametrize("total, parts", [(0, 1), (3, 1), (0, 3), (4, 3)])
    def test_counts_and_order(self, total, parts):
        out = list(weak_compositions(total, parts))
        assert len(out) == comb(total + parts - 1, parts - 1)
        assert out == sorted(set(out), reverse=True)
        assert all(len(c) == parts and sum(c) == total and min(c) >= 0 for c in out)

    @pytest.mark.parametrize("total, parts", [(3, 0), (3, -1), (-2, 1), (-1, 3)])
    def test_rejects_bad_arguments(self, total, parts):
        with pytest.raises(InvalidSpecError, match="parts >= 1 and total >= 0"):
            list(weak_compositions(total, parts))


class TestCompositionsWithoutRecursion:
    def test_first_composition_of_many_parts_is_immediate(self):
        # C(5002, 4999) compositions in all: only a lazy builder returns here
        assert next(weak_compositions(3, 5000)) == (3,) + (0,) * 4999

    def test_more_parts_than_the_recursion_limit(self):
        parts = sys.getrecursionlimit() + 100
        units = [tuple(int(k == i) for k in range(parts)) for i in range(parts)]
        assert list(weak_compositions(1, parts)) == units


class TestPerturb:
    def test_interior_point(self):
        assert perturb((1, 1, 1), 0, 1) == (2, 0, 1)

    def test_plane_point(self):
        assert perturb((3, 1), 1, 0) == (2, 2)

    def test_rejects_empty_source_coordinate(self):
        with pytest.raises(InvalidSpecError):
            perturb((0, 4), 1, 0)

    def test_rejects_equal_positions(self):
        with pytest.raises(InvalidSpecError):
            perturb((1, 1), 0, 0)

    def test_rejects_positions_out_of_range(self):
        with pytest.raises(InvalidSpecError, match=r"positions must lie in 0\.\.1"):
            perturb((1, 1), 2, 0)

    @given(
        st.lists(st.integers(min_value=0, max_value=9), min_size=2, max_size=6),
        st.data(),
    )
    def test_inverse_perturbation(self, coords, data):
        n = len(coords)
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        if i == j or coords[j] < 1:
            return
        v = ExponentVector(coords)
        assert perturb(perturb(v, i, j), j, i) == v

    def test_degree_preserved(self):
        v = ExponentVector((2, 3, 1))
        assert perturb(v, 2, 1).degree() == v.degree()


class TestPinchSpec:
    def test_single_pinch(self):
        spec = pinch_spec(3, 3, [(1, 1, 1)])
        assert spec.kind == "single-pinch"
        assert len(spec.generators()) == 9
        assert spec.pinched() == (1, 1, 1)

    def test_empty_removal_is_full_slice(self):
        spec = pinch_spec(2, 4, [])
        assert spec.kind == "full-veronese"
        assert len(spec.generators()) == 5

    def test_multipinch_rejects_large_entries(self):
        # (1,3) carries the entry d-1 = 3 and must stay in place
        with pytest.raises(InvalidSpecError):
            pinch_spec(2, 4, [(2, 2), (1, 3)])
        with pytest.raises(InvalidSpecError):
            pinch_spec(3, 3, [(2, 1, 0), (1, 1, 1)])

    def test_multipinch_rejects_degree_two(self):
        with pytest.raises(InvalidSpecError):
            pinch_spec(4, 2, [(1, 1, 0, 0)], multipinch=True)

    def test_valid_multipinch(self):
        spec = pinch_spec(3, 4, [(2, 2, 0), (2, 1, 1)])
        assert spec.kind == "multi-pinch"
        assert len(spec.generators()) == 13

    @pytest.mark.parametrize("n, d", [(3, 4), (4, 3)])
    def test_maximal_multipinch_keeps_the_high_generators(self, n, d):
        # a multipinch may only remove vectors with max entry < d-1, so even
        # the maximal removal keeps every generator with an entry >= d-1, the
        # pure powers d*e_i among them: no removal empties the generator set
        full = veronese_generators(n, d)
        spec = pinch_spec(n, d, [m for m in full if m.max_entry() < d - 1])
        assert spec.kind == "multi-pinch"
        assert spec.generators() == tuple(m for m in full if m.max_entry() >= d - 1)
        assert all(tuple(d * (k == i) for k in range(n)) in spec.generators() for i in range(n))

    @pytest.mark.parametrize(
        "spec",
        [pinch_spec(3, 3, []), pinch_spec(3, 4, [(2, 2, 0), (2, 1, 1)])],
        ids=["full", "multipinch"],
    )
    def test_pinched_needs_a_single_pinch(self, spec):
        with pytest.raises(InvalidSpecError, match="has no single pinched vector"):
            spec.pinched()

    def test_forced_multipinch_with_one_vector(self):
        spec = pinch_spec(3, 3, [(1, 1, 1)], multipinch=True)
        assert spec.kind == "multi-pinch"

    def test_rejects_wrong_degree(self):
        with pytest.raises(InvalidSpecError):
            pinch_spec(2, 4, [(2, 1)])

    def test_rejects_wrong_arity(self):
        with pytest.raises(InvalidSpecError):
            pinch_spec(3, 4, [(2, 2)])

    def test_generators_all_have_degree_d(self):
        spec = pinch_spec(3, 4, [(2, 2, 0)])
        assert all(g.degree() == 4 for g in spec.generators())

    def test_duplicate_removals_collapse(self):
        spec = pinch_spec(2, 4, [(2, 2), (2, 2)])
        assert spec.kind == "single-pinch"

    @pytest.mark.parametrize(
        "n, d, removed, multipinch, case",
        [
            (3, 3, [], False, PinchCase.FULL),
            (3, 3, [(1, 1, 1)], True, PinchCase.MULTI),
            (2, 4, [(0, 4)], False, PinchCase.SATURATED),
            (2, 2, [(2, 0)], False, PinchCase.SATURATED),
            (2, 2, [(1, 1)], False, PinchCase.REGULAR_PLANE),
            (3, 2, [(0, 1, 1)], False, PinchCase.ODD_ODD),
            (3, 4, [(1, 3, 0)], False, PinchCase.LINE),
            (2, 3, [(2, 1)], False, PinchCase.LINE),
            (3, 3, [(1, 1, 1)], False, PinchCase.INTERIOR),
        ],
    )
    def test_pinch_case(self, n, d, removed, multipinch, case):
        spec = pinch_spec(n, d, removed, multipinch=multipinch)
        assert spec.case is case
        assert repr(spec).endswith(f"case={case!r})")
