"""Classification: depth table, Gorenstein socles, presentations, the plane iso."""

import pytest

from veropinch import (
    ExponentVector,
    InvalidSpecError,
    Normalization,
    Tristate,
    a_invariant,
    ci_relation_holds,
    classify,
    depth,
    gap_set_bruteforce,
    layer_members,
    lower_veronese_iso,
    pinch_spec,
    quotient_basis,
    verify_ci_presentation,
    veronese_generators,
    weak_compositions,
)

from reference_search import reference_member


class TestNormalizationType:
    def test_corner_pinch_is_self_normal(self):
        assert classify(pinch_spec(2, 4, [(4, 0)])).normalization is Normalization.SELF_NORMAL

    def test_regular_special_case(self):
        assert (
            classify(pinch_spec(2, 2, [(1, 1)])).normalization
            is Normalization.REGULAR_SPECIAL_CASE
        )

    def test_interior_pinch_closes_up_to_the_full_slice(self):
        assert (
            classify(pinch_spec(3, 3, [(1, 1, 1)])).normalization
            is Normalization.BY_VERONESE
        )


class TestDepth:
    @pytest.mark.parametrize(
        "n,d,m,expected",
        [
            (2, 4, (2, 2), 1),
            (4, 2, (1, 1, 0, 0), 3),
            (2, 5, (4, 1), 2),
            (2, 2, (1, 1), 2),
            (3, 4, (3, 1, 0), 2),
            (2, 4, (4, 0), 2),
            (3, 3, (3, 0, 0), 3),
        ],
    )
    def test_single_pinch_table(self, n, d, m, expected):
        assert depth(pinch_spec(n, d, [m])) == expected

    def test_multipinch_depth_is_one(self):
        assert depth(pinch_spec(3, 3, [(1, 1, 1)], multipinch=True)) == 1


class TestClassify:
    def test_gorenstein_line_pinch(self):
        report = classify(pinch_spec(2, 4, [(3, 1)]))
        assert report.cohen_macaulay
        assert report.gorenstein is Tristate.YES
        assert report.a_invariant == 0

    def test_complete_intersection_case(self):
        report = classify(pinch_spec(3, 2, [(1, 1, 0)]))
        assert report.cohen_macaulay
        assert report.complete_intersection is Tristate.YES
        assert report.gorenstein is Tristate.YES

    def test_corner_pinch_large_degree_not_gorenstein(self):
        report = classify(pinch_spec(2, 4, [(4, 0)]))
        assert report.cohen_macaulay
        assert report.gorenstein is Tristate.NO

    def test_corner_pinch_small_degree_gorenstein(self):
        assert classify(pinch_spec(2, 3, [(3, 0)])).gorenstein is Tristate.YES

    def test_interior_pinch_generalized_cm(self):
        report = classify(pinch_spec(3, 3, [(1, 1, 1)]))
        assert not report.cohen_macaulay
        assert report.depth == 1
        assert report.generalized_cm
        assert report.gorenstein is Tristate.NO

    def test_gorenstein_unknown_beyond_the_plane(self):
        report = classify(pinch_spec(3, 3, [(3, 0, 0)]))
        assert report.cohen_macaulay
        assert report.gorenstein is Tristate.UNKNOWN

    def test_multipinch_report(self):
        report = classify(pinch_spec(3, 4, [(2, 2, 0), (2, 1, 1)]))
        assert report.depth == 1
        assert not report.cohen_macaulay
        assert report.generalized_cm
        assert report.normalization is Normalization.BY_VERONESE

    def test_every_assertion_carries_a_reason(self):
        report = classify(pinch_spec(2, 5, [(3, 2)]))
        reasons = dict(report.rationale)
        for field in ("depth", "cohen_macaulay", "gorenstein", "normalization"):
            assert reasons[field]

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_cm_iff_depth_equals_dimension(self, n, d):
        for m in veronese_generators(n, d).members:
            spec = pinch_spec(n, d, [m])
            assert classify(spec).cohen_macaulay == (depth(spec) == n), tuple(m)

    @pytest.mark.parametrize("n,d", [(2, 3), (2, 4), (3, 2), (3, 3)])
    def test_cm_matches_gap_evidence(self, n, d):
        # non-CM interior pinches have finite nonempty gaps; saturated ones none
        for m in veronese_generators(n, d).members:
            spec = pinch_spec(n, d, [m])
            gaps = gap_set_bruteforce(spec, 6)
            if max(m) < d - 1:
                assert not classify(spec).cohen_macaulay
                assert gaps == (m,)
            if max(m) == d:
                assert gaps == ()


def _reference_quotient(spec):
    """(basis, socle) of the quotient by the pure powers, by the definition.

    The basis is the members of layers 0..3 with no v - d*e_i a member, and
    the socle the basis elements b with every b + g in the ideal of the pure
    powers; membership comes from the reference search alone.
    """
    d = spec.d
    powers = [tuple(d * (j == i) for j in range(spec.n)) for i in range(spec.n)]

    def in_ideal(v):
        rests = (tuple(a - b for a, b in zip(v, p)) for p in powers)
        return any(min(rest) >= 0 and reference_member(rest, spec) for rest in rests)

    members = [
        v for t in range(4) for v in weak_compositions(t * d, spec.n) if reference_member(v, spec)
    ]
    basis = sorted(v for v in members if not in_ideal(v))
    gens = spec.generators()
    socle = [b for b in basis if all(in_ideal(tuple(map(sum, zip(b, g)))) for g in gens)]
    return basis, socle


_PLANE_CM_PINCHES = [
    *(pinch_spec(2, d, [m]) for d in range(3, 9) for m in ((d - 1, 1), (1, d - 1))),
    pinch_spec(2, 2, [(1, 1)]),
]


class TestQuotientBasis:
    @pytest.mark.parametrize("spec", _PLANE_CM_PINCHES, ids=lambda s: s.describe())
    def test_matches_the_definition(self, spec):
        # the basis reaches past no degree the definition reads: a basis
        # element in layer 4 or later would be missing from the reference
        basis, socle = _reference_quotient(spec)
        qb = quotient_basis(spec)
        assert list(qb.basis) == basis
        assert list(qb.socle) == socle

    @pytest.mark.parametrize(
        "d,basis,socle",
        [
            (3, {(0, 0), (1, 2), (2, 4)}, (2, 4)),
            (4, {(0, 0), (2, 2), (1, 3), (3, 5)}, (3, 5)),
            (5, {(0, 0), (1, 4), (2, 3), (3, 2), (4, 6)}, (4, 6)),
        ],
    )
    def test_small_degrees(self, d, basis, socle):
        qb = quotient_basis(pinch_spec(2, d, [(d - 1, 1)]))
        assert set(map(tuple, qb.basis)) == basis
        assert qb.socle == (socle,)
        assert a_invariant(qb) == 0

    @pytest.mark.parametrize("d", range(3, 9))
    def test_socle_suite(self, d):
        qb = quotient_basis(pinch_spec(2, d, [(d - 1, 1)]))
        assert len(qb.basis) == d
        assert qb.socle == ((d - 1, d + 1),)
        assert a_invariant(qb) == 0

    def test_swapped_axes(self):
        qb = quotient_basis(pinch_spec(2, 4, [(1, 3)]))
        assert qb.socle == ((5, 3),)
        assert a_invariant(qb) == 0

    def test_regular_degree_two_case(self):
        # P = k[x^2, y^2]: the quotient is the ground field alone
        qb = quotient_basis(pinch_spec(2, 2, [(1, 1)]))
        assert qb.basis == ((0, 0),)
        assert a_invariant(qb) == -2

    def test_rejects_other_specs(self):
        with pytest.raises(InvalidSpecError):
            quotient_basis(pinch_spec(2, 4, [(2, 2)]))
        with pytest.raises(InvalidSpecError):
            quotient_basis(pinch_spec(3, 3, [(2, 1, 0)]))

    def test_multi_element_socle_has_no_top_degree(self):
        from veropinch import QuotientBasis

        fake = QuotientBasis(
            basis=(ExponentVector((0, 0)), ExponentVector((1, 2)), ExponentVector((2, 1))),
            socle=(ExponentVector((1, 2)), ExponentVector((2, 1))),
            spec=pinch_spec(2, 3, [(2, 1)]),
        )
        with pytest.raises(InvalidSpecError):
            a_invariant(fake)


class TestCIPresentation:
    def test_both_relations_hold(self):
        assert verify_ci_presentation()

    def test_first_relation(self):
        assert ci_relation_holds(("a", "e"), ("b", "b"))

    def test_second_relation(self):
        assert ci_relation_holds(("c", "e"), ("d", "d"))

    def test_negative_control(self):
        assert not ci_relation_holds(("a", "b"), ("c", "c"))


class TestLowerVeroneseIso:
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_axis_generator(self, d):
        assert lower_veronese_iso((0, d), d) == (1, 0)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_near_corner_generator(self, d):
        assert lower_veronese_iso((d - 1, 1), d) == (1, d - 1)

    def test_additive(self):
        d = 5
        u, v = ExponentVector((4, 1)), ExponentVector((2, 3))
        assert lower_veronese_iso(u.add(v), d) == tuple(
            a + b for a, b in zip(lower_veronese_iso(u, d), lower_veronese_iso(v, d))
        )

    def test_doubled_generator(self):
        d = 4
        assert lower_veronese_iso((2 * d - 2, 2), d) == (2, 2 * d - 2)

    def test_rejects_bad_degree(self):
        with pytest.raises(InvalidSpecError):
            lower_veronese_iso((2, 1), 4)

    def test_rejects_points_off_the_plane(self):
        with pytest.raises(InvalidSpecError, match="defined on the plane"):
            lower_veronese_iso((1, 1, 1), 3)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_injective_and_layer_counts(self, d):
        spec = pinch_spec(2, d, [(d, 0)])
        for t in range(1, 6):
            layer = layer_members(spec, t)
            images = {lower_veronese_iso(v, d) for v in layer}
            assert len(images) == len(layer)
            # images fill the t-th slice of the smaller-degree lattice
            assert images == {(t, w) for w in range(t * (d - 1) + 1)}
