"""Classification: depth table, normalization, reports, Gorenstein socles, the CI
presentation and the corner-pinch plane isomorphism."""

import pytest

from veropinch import (
    ExponentVector,
    InvalidSpecError,
    Normalization,
    Tristate,
    a_invariant,
    classify,
    depth,
    gap_set,
    is_member,
    layer_members,
    pinch_spec,
    quotient_basis,
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
        for m in veronese_generators(n, d):
            spec = pinch_spec(n, d, [m])
            assert classify(spec).cohen_macaulay == (depth(spec) == n), tuple(m)

    @pytest.mark.parametrize("n,d", [(2, 3), (2, 4), (3, 2), (3, 3)])
    def test_cm_matches_gap_evidence(self, n, d):
        # non-CM interior pinches have finite nonempty gaps; saturated ones none
        for m in veronese_generators(n, d):
            spec = pinch_spec(n, d, [m])
            gaps = gap_set(spec).materialize(6 * spec.d)
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

    def test_a_invariant_reads_a_one_element_socle_only(self):
        from veropinch import QuotientBasis

        fake = QuotientBasis(
            basis=(ExponentVector((0, 0)), ExponentVector((1, 2)), ExponentVector((2, 1))),
            socle=(ExponentVector((1, 2)), ExponentVector((2, 1))),
            spec=pinch_spec(2, 3, [(2, 1)]),
        )
        with pytest.raises(InvalidSpecError, match="one-element socle only"):
            a_invariant(fake)


class TestCIGenerators:
    """The pinch (3, 2, (1,1,0)) is presented by ae = b^2 and ce = d^2 on its five
    generators a=x^2, b=xz, c=y^2, d=yz, e=z^2; a binomial relation is an
    equality of exponent sums."""

    @pytest.fixture
    def gens(self):
        # the generators come sorted, so z^2 first
        e, d, c, b, a = pinch_spec(3, 2, [(1, 1, 0)]).generators()
        return a, b, c, d, e

    def test_generators_are_the_five_quadrics(self, gens):
        assert gens == ((2, 0, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))

    def test_first_relation(self, gens):
        a, b, _, _, e = gens
        assert a.add(e) == b.add(b)

    def test_second_relation(self, gens):
        _, _, c, d, e = gens
        assert c.add(e) == d.add(d)

    def test_negative_control(self, gens):
        a, b, c, _, _ = gens
        assert a.add(b) != c.add(c)

    def test_pairwise_sums_fill_the_second_layer(self, gens):
        spec = pinch_spec(3, 2, [(1, 1, 0)])
        sums = {u.add(v) for i, u in enumerate(gens) for v in gens[i:]}
        assert sums == set(layer_members(spec, 2))

    def test_the_two_relations_are_the_only_coincidences(self, gens):
        pairs = [(u, v) for i, u in enumerate(gens) for v in gens[i:]]
        assert len(pairs) - len({u.add(v) for u, v in pairs}) == 2


class TestCornerPinchPlane:
    """(2, d, (d,0)) is isomorphic to the degree-(d-1) slice of the plane via
    v -> (|v|/d, v_1); the map is read here on the package's generators and layers."""

    @staticmethod
    def image(v, d):
        return (v.degree() // d, v[0])

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_axis_generator(self, d):
        gens = pinch_spec(2, d, [(d, 0)]).generators()
        assert (0, d) in gens
        assert self.image(ExponentVector((0, d)), d) == (1, 0)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_near_corner_generator(self, d):
        gens = pinch_spec(2, d, [(d, 0)]).generators()
        assert (d - 1, 1) in gens
        assert self.image(ExponentVector((d - 1, 1)), d) == (1, d - 1)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_generators_map_onto_the_first_slice(self, d):
        gens = pinch_spec(2, d, [(d, 0)]).generators()
        assert sorted(self.image(g, d) for g in gens) == [(1, w) for w in range(d)]

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_additive_on_generator_pairs(self, d):
        gens = pinch_spec(2, d, [(d, 0)]).generators()
        for u in gens:
            for v in gens:
                assert self.image(u.add(v), d) == tuple(
                    a + b for a, b in zip(self.image(u, d), self.image(v, d))
                )

    def test_doubled_generator(self):
        d = 4
        assert self.image(ExponentVector((2 * d - 2, 2)), d) == (2, 2 * d - 2)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_axis_ray_leaves_the_semigroup(self, d):
        spec = pinch_spec(2, d, [(d, 0)])
        assert not any(is_member((k * d, 0), spec) for k in range(1, 6))

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_layer_sizes_match_the_lower_slice(self, d):
        spec = pinch_spec(2, d, [(d, 0)])
        assert [len(layer_members(spec, t)) for t in range(1, 6)] == [
            t * (d - 1) + 1 for t in range(1, 6)
        ]
