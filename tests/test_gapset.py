"""Gap sets: closed forms against the brute-force enumeration oracle."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from veropinch import (
    ExponentVector,
    GapKind,
    InvalidSpecError,
    PinchCase,
    ResourceLimitError,
    gap_census,
    gap_set_bruteforce,
    gap_set_closed_form,
    is_member,
    multipinch_coordinate_bound,
    multipinch_gap_set,
    pinch_spec,
    reset_membership_cache,
    verify_gap_equivalence,
    verify_principality,
    veronese_generators,
    weak_compositions,
)
from veropinch.cli import EXIT_RESOURCE, _removal_sets, main
from veropinch.membership import gap_walk

from reference_search import reference_member


class TestClosedForm:
    def test_interior_pinch_is_a_single_point(self):
        gap = gap_set_closed_form(pinch_spec(3, 3, [(1, 1, 1)]))
        assert gap.kind is GapKind.FINITE
        assert gap.members == ((1, 1, 1),)

    def test_degree_two_pinch_is_odd_odd(self):
        gap = gap_set_closed_form(pinch_spec(2, 2, [(1, 1)]))
        assert gap.kind is GapKind.ODD_ODD
        assert gap.axes == (0, 1)

    def test_near_corner_pinch_is_a_line(self):
        gap = gap_set_closed_form(pinch_spec(2, 4, [(3, 1)]))
        assert gap.kind is GapKind.LINE
        assert gap.materialize(12) == ((3, 1), (7, 1), (11, 1))

    def test_corner_pinch_has_no_gaps(self):
        gap = gap_set_closed_form(pinch_spec(2, 4, [(4, 0)]))
        assert gap.kind is GapKind.FINITE
        assert gap.members == ()

    def test_axes_follow_the_user_coordinates(self):
        # the removed vector is never reordered
        gap = gap_set_closed_form(pinch_spec(3, 4, [(1, 0, 3)]))
        assert gap.kind is GapKind.LINE
        assert gap.axes == (2, 0)
        assert gap.contains((1, 0, 3))
        assert gap.contains((1, 0, 7))
        assert not gap.contains((0, 1, 7))

    @pytest.mark.parametrize("m", [(1, 1, 1), (3, 1, 0), (1, 1, 0)], ids=["finite", "line", "odd-odd"])
    def test_contains_rejects_malformed_vectors(self, m):
        gap = gap_set_closed_form(pinch_spec(3, sum(m), [m]))
        assert gap.contains(m)
        assert not gap.contains(m[:2])  # wrong arity
        assert not gap.contains((m[0] + 1, m[1] + 1, -1))  # a negative coordinate

    def test_rejects_multipinch_and_full_slice(self):
        with pytest.raises(InvalidSpecError):
            gap_set_closed_form(pinch_spec(3, 4, [(2, 2, 0), (2, 1, 1)]))
        with pytest.raises(InvalidSpecError):
            gap_set_closed_form(pinch_spec(2, 4, []))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_contains_agrees_with_materialize(self, data):
        spec = data.draw(
            st.sampled_from(
                [
                    pinch_spec(2, 2, [(1, 1)]),
                    pinch_spec(2, 4, [(3, 1)]),
                    pinch_spec(3, 2, [(1, 0, 1)]),
                    pinch_spec(3, 3, [(1, 1, 1)]),
                ]
            )
        )
        gap = gap_set_closed_form(spec)
        bound = 6 * spec.d
        listed = set(gap.materialize(bound))
        v = tuple(
            data.draw(st.integers(0, bound)) for _ in range(spec.n)
        )
        if sum(v) <= bound:
            assert gap.contains(v) == (v in listed)


class TestBruteForce:
    def test_classic_non_cm_example(self):
        spec = pinch_spec(2, 4, [(2, 2)])
        assert gap_set_bruteforce(spec, 10) == ((2, 2),)

    def test_odd_odd_to_degree_eight(self):
        spec = pinch_spec(2, 2, [(1, 1)])
        expected = {
            (1, 1), (3, 1), (1, 3), (3, 3), (5, 1),
            (1, 5), (5, 3), (3, 5), (7, 1), (1, 7),
        }
        assert set(gap_set_bruteforce(spec, 4)) == expected

    def test_nothing_removed_nothing_missing(self):
        assert gap_set_bruteforce(pinch_spec(2, 4, []), 5) == ()

    def test_corner_pinch_is_already_saturated(self):
        assert gap_set_bruteforce(pinch_spec(2, 4, [(4, 0)]), 6) == ()

    @pytest.mark.parametrize("n,d,axis", [(2, 4, 0), (3, 3, 2), (4, 2, 1)])
    def test_corner_pinch_missing_set_characterization(self, n, d, axis):
        # removing d*e_k drops exactly the degree-td vectors whose off-axis
        # coordinate sum is below t: every other generator contributes at
        # least 1 off-axis, and conversely off-sum >= t admits a splitting.
        # Those vectors fall outside the pinched cone, which is why nothing
        # is missing from the normalization.
        from veropinch import layer_members, weak_compositions

        m = tuple(d if k == axis else 0 for k in range(n))
        spec = pinch_spec(n, d, [m])
        for t in range(1, 6):
            layer = set(layer_members(spec, t))
            for v in weak_compositions(t * d, n):
                off_axis = sum(v) - v[axis]
                assert (v in layer) == (off_axis >= t), (t, v)

    def test_gap_vectors_are_never_members(self):
        for spec in (
            pinch_spec(2, 3, [(2, 1)]),
            pinch_spec(3, 2, [(1, 1, 0)]),
            pinch_spec(3, 3, [(1, 1, 1)]),
        ):
            for v in gap_set_bruteforce(spec, 5):
                assert not is_member(v, spec)


def _small_removals(n, d):
    small = [m for m in veronese_generators(n, d) if max(m) < d - 1]
    return [pinch_spec(n, d, removal, multipinch=True) for removal in _removal_sets(small)]


def _early_stop_cases():
    # every single pinch and every swept removal set at n <= 3, d <= 4 ...
    for n in (2, 3):
        for d in (2, 3, 4):
            yield from (pinch_spec(n, d, [m]) for m in veronese_generators(n, d))
            yield from _small_removals(n, d)
    # ... and the maximal n=4 d=4 removal, whose gaps run to layer 5
    yield _small_removals(4, 4)[-1]


class TestEarlyStop:
    @pytest.mark.parametrize("spec", list(_early_stop_cases()), ids=lambda s: s.describe())
    def test_matches_the_plain_search(self, spec):
        # the memoized search never walks layers; it lists the non-members
        # of layers 1..6, against which the stopped walk may drop nothing
        expected = () if spec.case is PinchCase.SATURATED else tuple(
            sorted(
                v
                for t in range(1, 7)
                for v in weak_compositions(t * spec.d, spec.n)
                if not reference_member(v, spec)
            )
        )
        assert gap_set_bruteforce(spec, 6) == expected

    def test_gaps_past_layer_two_stop_at_the_first_full_layer(self, built_layers):
        spec = _small_removals(4, 4)[-1]
        reset_membership_cache()
        gaps = gap_set_bruteforce(spec, 20)
        assert max(v.degree() for v in gaps) == 5 * 4
        assert set(built_layers) == set(range(1, 7))
        reset_membership_cache()


def _census_cases():
    for n in (2, 3, 4):
        for d in (3, 4, 5):
            yield from _small_removals(n, d)


def _decoded_gaps(spec, top):
    """The gaps of layers 1..top, every layer decoded and none skipped."""
    return [v for _, _, vectors in itertools.islice(gap_walk(spec), top) for v in vectors()]


class TestCensus:
    @pytest.mark.parametrize("spec", list(_census_cases()), ids=lambda s: s.describe())
    def test_matches_the_decoded_walk(self, spec, built_layers):
        bound = multipinch_coordinate_bound(spec.n, spec.d)
        census = gap_census(spec, 6, bound)
        built = set(built_layers)
        stop = min(6, next(t for t, count, _ in gap_walk(spec) if not count))
        assert built == set(range(1, stop + 1))
        gaps = _decoded_gaps(spec, 6)
        assert census == (len(gaps), all(max(v) < bound for v in gaps))

    @pytest.mark.parametrize(
        "spec",
        [pinch_spec(3, 3, [(1, 1, 1)], multipinch=True), _small_removals(4, 4)[-1]],
        ids=lambda s: s.describe(),
    )
    def test_lowered_entry_bounds(self, spec):
        # below the true bound the flag turns false in some decoded layer;
        # the layers left undecoded never hold the entry that turns it
        gaps = _decoded_gaps(spec, 6)
        flags = []
        for bound in range(multipinch_coordinate_bound(spec.n, spec.d) + 1):
            flags.append(all(max(v) < bound for v in gaps))
            assert gap_census(spec, 6, bound) == (len(gaps), flags[-1]), bound
        assert not flags[0] and flags[-1]

    def test_skips_what_the_bruteforce_skips(self):
        assert gap_census(pinch_spec(2, 4, []), 5, 1) == (0, True)
        assert gap_census(pinch_spec(2, 4, [(4, 0)]), 6, 1) == (0, True)
        with pytest.raises(InvalidSpecError):
            gap_census(pinch_spec(3, 3, [(1, 1, 1)]), 0, 6)


class TestEquivalence:
    @pytest.mark.parametrize(
        "n,d,m,t_max",
        [
            (3, 3, (1, 1, 1), 6),
            (2, 5, (4, 1), 8),
            (4, 2, (1, 1, 0, 0), 5),
            (2, 2, (1, 1), 6),
            (2, 4, (4, 0), 6),
        ],
    )
    def test_named_instances(self, n, d, m, t_max):
        ok, diff = verify_gap_equivalence(pinch_spec(n, d, [m]), t_max)
        assert ok, diff

    @pytest.mark.parametrize(
        "spec",
        [pinch_spec(2, 4, []), pinch_spec(3, 3, [(1, 1, 1)], multipinch=True)],
        ids=["full", "multipinch"],
    )
    def test_rejects_non_single_pinch(self, spec):
        with pytest.raises(InvalidSpecError):
            verify_gap_equivalence(spec, 4)


class TestMultipinch:
    def test_single_interior_vector(self):
        spec = pinch_spec(3, 3, [(1, 1, 1)], multipinch=True)
        assert multipinch_gap_set(spec) == ((1, 1, 1),)

    def test_matches_single_pinch_closed_form(self):
        forced = pinch_spec(2, 4, [(2, 2)], multipinch=True)
        plain = pinch_spec(2, 4, [(2, 2)])
        assert set(multipinch_gap_set(forced)) == set(
            gap_set_closed_form(plain).materialize(100)
        )

    def test_two_vector_removal(self):
        spec = pinch_spec(3, 4, [(2, 2, 0), (2, 1, 1)])
        gaps = multipinch_gap_set(spec)
        assert (2, 2, 0) in gaps and (2, 1, 1) in gaps
        bound = multipinch_coordinate_bound(3, 4)
        assert all(v.max_entry() < bound for v in gaps)
        for v in gaps:
            assert not is_member(v, spec)

    def test_finiteness_bound_on_bruteforce_gaps(self):
        # nothing missing at or above the coordinate bound, for every valid
        # removal set with n <= 3, d <= 4 ((2,3) admits none and is vacuous)
        for n, d in ((2, 3), (3, 3), (2, 4), (3, 4)):
            smalls = [m for m in veronese_generators(n, d) if max(m) < d - 1]
            bound = multipinch_coordinate_bound(n, d)
            for size in range(1, len(smalls) + 1):
                for removal in itertools.combinations(smalls, size):
                    spec = pinch_spec(n, d, removal, multipinch=True)
                    for v in gap_set_bruteforce(spec, 6):
                        assert v.max_entry() < bound

    def test_rejects_single_pinch_spec(self):
        with pytest.raises(InvalidSpecError):
            multipinch_gap_set(pinch_spec(2, 4, [(2, 2)]))


def _saturation_cases():
    # every removal set the verify sweep builds at these (n, d) ...
    for n, d in ((3, 3), (3, 4), (4, 3)):
        small = [m for m in veronese_generators(n, d) if max(m) < d - 1]
        for removal in _removal_sets(small):
            yield pinch_spec(n, d, removal, multipinch=True)
    # ... and the n=4 d=4 removal bases of the multipinch benchmark
    for removal in (
        ((2, 1, 1, 0),),
        ((2, 1, 1, 0), (1, 1, 2, 0)),
        ((2, 2, 0, 0), (1, 1, 1, 1)),
    ):
        yield pinch_spec(4, 4, removal, multipinch=True)


class TestLayerSaturation:
    @pytest.mark.parametrize("spec", list(_saturation_cases()), ids=lambda s: s.describe())
    def test_agrees_with_memoized_search(self, spec):
        # the reference search never enumerates layers: an independent
        # oracle for the gap set and the Apéry lookup, on every vector of
        # degree <= 6d
        gaps = set(multipinch_gap_set(spec))
        for t in range(7):
            for v in weak_compositions(t * spec.d, spec.n):
                assert reference_member(v, spec) == (v not in gaps) == is_member(v, spec), v

    def test_maximal_n4_d5_removal(self):
        # all 40 generators with max < 4 removed: the gaps run to layer 8,
        # so the walk grows its radix on the way (at layers 2, 3, 5 and 9)
        small = [m for m in veronese_generators(4, 5) if max(m) < 4]
        assert len(small) == 40
        gaps = multipinch_gap_set(pinch_spec(4, 5, small, multipinch=True))
        assert len(gaps) == 2988
        assert max(v.degree() for v in gaps) == 8 * 5

    def test_layer_size_cap_exits_three(self, capsys, monkeypatch):
        # layer 2 at n=4 d=4 has C(11, 3) = 165 vectors, above a cap of 50
        monkeypatch.setenv("VEROPINCH_MEMO_CAP", "50")
        multipinch_gap_set.cache_clear()
        reset_membership_cache()
        code = main(
            ["analyze", "--n", "4", "--d", "4", "--remove", "2,1,1,0", "--multipinch"]
        )
        assert code == EXIT_RESOURCE
        assert "resource limit: layer 2" in capsys.readouterr().err
        with pytest.raises(ResourceLimitError):
            multipinch_gap_set(pinch_spec(4, 4, [(2, 1, 1, 0)], multipinch=True))
        monkeypatch.delenv("VEROPINCH_MEMO_CAP")
        reset_membership_cache()

    @pytest.mark.parametrize(
        "spec, cap",
        [
            (pinch_spec(4, 4, [(2, 1, 1, 0)], multipinch=True), 165),
            (pinch_spec(3, 3, [(1, 1, 1)], multipinch=True), 28),
            (pinch_spec(4, 3, [(1, 1, 1, 0)], multipinch=True), 84),
        ],
        ids=["n4-d4", "n3-d3", "n4-d3"],
    )
    def test_search_stops_at_the_first_full_layer(self, spec, cap, monkeypatch):
        # the cap is the size of layer 2, the first full one: the search
        # never builds layer 3
        multipinch_gap_set.cache_clear()
        expected = multipinch_gap_set(spec)
        multipinch_gap_set.cache_clear()
        monkeypatch.setenv("VEROPINCH_MEMO_CAP", str(cap))
        assert multipinch_gap_set(spec) == expected
        multipinch_gap_set.cache_clear()

    def test_gap_beyond_the_coordinate_bound_is_an_internal_error(self, monkeypatch):
        # with a bound of 1 every layer is forced full, so the gap (1,1,1)
        # contradicts the theorem the search checks
        import veropinch.gapset as gapset

        monkeypatch.setattr(gapset, "multipinch_coordinate_bound", lambda n, d: 1)
        multipinch_gap_set.cache_clear()
        with pytest.raises(AssertionError, match="coordinate bound 1"):
            multipinch_gap_set(pinch_spec(3, 3, [(1, 1, 1)], multipinch=True))


class TestMaterializeCap:
    @pytest.mark.parametrize(
        "m, max_degree, count",
        [((1, 1, 0), 40, 210), ((1, 1), 7, 6), ((3, 1), 40, 10)],
    )
    def test_count_is_exact_and_capped(self, m, max_degree, count, monkeypatch):
        # the count is computed before listing: a cap of exactly that many
        # admits the listing, one less refuses it
        gap = gap_set_closed_form(pinch_spec(len(m), sum(m), [m]))
        monkeypatch.setenv("VEROPINCH_MEMO_CAP", str(count))
        assert len(gap.materialize(max_degree)) == count
        monkeypatch.setenv("VEROPINCH_MEMO_CAP", str(count - 1))
        with pytest.raises(ResourceLimitError, match=f"has {count} vectors"):
            gap.materialize(max_degree)


class TestCokernelModel:
    def test_line_family_generator(self):
        spec = pinch_spec(2, 4, [(3, 1)])
        assert spec.pinched() == (3, 1)
        shifted = ExponentVector((7, 1)).sub_or_none(spec.pinched())
        assert shifted == (4, 0)
        assert is_member(shifted, spec)

    def test_odd_odd_generator(self):
        spec = pinch_spec(2, 2, [(1, 1)])
        assert spec.pinched() == (1, 1)
        shifted = ExponentVector((3, 5)).sub_or_none(spec.pinched())
        assert shifted == (2, 4)
        assert is_member(shifted, spec)

    def test_saturated_case_is_empty(self):
        # nothing is missing, so there is nothing for a generator to generate
        spec = pinch_spec(2, 4, [(4, 0)])
        assert gap_set_closed_form(spec).members == ()
        assert verify_principality(spec, 24) == (True, ())

    @pytest.mark.parametrize(
        "n,d,m",
        [
            (2, 4, (3, 1)),
            (2, 2, (1, 1)),
            (2, 4, (2, 2)),
            (3, 3, (1, 1, 1)),
            (3, 2, (0, 1, 1)),
            (4, 2, (1, 0, 0, 1)),
        ],
    )
    def test_principality_named_instances(self, n, d, m):
        ok, bad = verify_principality(pinch_spec(n, d, [m]), 6 * d)
        assert ok, bad

    def test_principality_failure_lists_the_counterexamples(self, monkeypatch):
        import veropinch.gapset as gapset

        monkeypatch.setattr(gapset, "is_member", lambda e, spec: False)
        spec = pinch_spec(2, 4, [(3, 1)])
        bad = tuple(ExponentVector((4 * s - 1, 1)) for s in range(2, 7))
        assert verify_principality(spec, 24) == (False, bad)

    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
    def test_principality_sweep(self, n, d):
        # every gap vector is the removed monomial plus a member (or it)
        for m in veronese_generators(n, d):
            if max(m) == d:
                continue
            ok, bad = verify_principality(pinch_spec(n, d, [m]), 6 * d)
            assert ok, (tuple(m), bad)
