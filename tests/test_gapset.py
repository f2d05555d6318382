"""Gap sets: closed forms against the Apéry boxes, and both against enumeration."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from veropinch import (
    ExponentVector,
    GapKind,
    GapSet,
    InvalidSpecError,
    PinchCase,
    ResourceLimitError,
    depth,
    f_singularity,
    frobenius_on_cokernel,
    gap_census,
    gap_set,
    gap_set_closed_form,
    is_member,
    layer_members,
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
from veropinch.membership import apery_set, gap_boxes

from reference_search import reference_member


class TestClosedForm:
    def test_interior_pinch_is_a_single_point(self):
        gap = gap_set_closed_form(pinch_spec(3, 3, [(1, 1, 1)]))
        assert gap.kind is GapKind.FINITE
        assert gap.boxes == (((1, 1, 1), (0, 0, 0)),)
        assert gap.is_finite and gap.axes is None
        assert gap.materialize(2) == () and gap.materialize(3) == ((1, 1, 1),)

    def test_degree_two_pinch_is_odd_odd(self):
        gap = gap_set_closed_form(pinch_spec(2, 2, [(1, 1)]))
        assert gap.kind is GapKind.ODD_ODD
        assert gap.boxes == (((1, 1), (math.inf, math.inf)),)
        assert gap.axes == (0, 1)

    def test_near_corner_pinch_is_a_line(self):
        gap = gap_set_closed_form(pinch_spec(2, 4, [(3, 1)]))
        assert gap.kind is GapKind.LINE
        assert gap.materialize(12) == ((3, 1), (7, 1), (11, 1))

    def test_corner_pinch_has_no_gaps(self):
        gap = gap_set_closed_form(pinch_spec(2, 4, [(4, 0)]))
        assert gap.kind is GapKind.FINITE
        assert gap.boxes == ()
        assert gap.is_finite and gap.materialize(40) == ()

    def test_three_free_axes_name_no_family(self):
        # a family has at most two free axes; a hand-built box with three
        # is refused by name, not with a bare IndexError
        gaps = GapSet(3, 2, (((1, 1, 1), (math.inf, math.inf, math.inf)),))
        with pytest.raises(InvalidSpecError, match="3 free axes"):
            gaps.kind

    def test_axes_follow_the_user_coordinates(self):
        # the removed vector is never reordered
        gap = gap_set_closed_form(pinch_spec(3, 4, [(1, 0, 3)]))
        assert gap.kind is GapKind.LINE
        assert gap.boxes == (((1, 0, 3), (0, 0, math.inf)),)
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

    def test_full_slice_is_empty_and_multipinch_rejected(self):
        with pytest.raises(InvalidSpecError):
            gap_set_closed_form(pinch_spec(3, 4, [(2, 2, 0), (2, 1, 1)]))
        # the full slice, like a saturated pinch, misses nothing
        assert gap_set_closed_form(pinch_spec(2, 4, [])) == GapSet(n=2, d=4, boxes=())

    def test_contains_agrees_with_materialize(self):
        # every single pinch with n <= 4, d <= 5: the listing up to degree 3d
        # is exactly the vectors of degree <= 3d that contains() accepts,
        # sorted, once each
        for n, d in itertools.product((2, 3, 4), (2, 3, 4, 5)):
            vectors = [v for t in range(3 * d + 1) for v in weak_compositions(t, n)]
            for m in veronese_generators(n, d):
                gap = gap_set_closed_form(pinch_spec(n, d, [m]))
                expected = tuple(sorted(v for v in vectors if gap.contains(v)))
                assert gap.materialize(3 * d) == expected, tuple(m)


class TestBruteForce:
    def test_classic_non_cm_example(self):
        spec = pinch_spec(2, 4, [(2, 2)])
        assert gap_set(spec).materialize(10 * spec.d) == ((2, 2),)

    def test_odd_odd_to_degree_eight(self):
        spec = pinch_spec(2, 2, [(1, 1)])
        expected = {
            (1, 1), (3, 1), (1, 3), (3, 3), (5, 1),
            (1, 5), (5, 3), (3, 5), (7, 1), (1, 7),
        }
        assert set(gap_set(spec).materialize(4 * spec.d)) == expected

    def test_nothing_removed_nothing_missing(self):
        assert gap_set(pinch_spec(2, 4, [])).materialize(5 * 4) == ()

    def test_corner_pinch_is_already_saturated(self):
        assert gap_set(pinch_spec(2, 4, [(4, 0)])).materialize(6 * 4) == ()

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
            for v in gap_set(spec).materialize(5 * spec.d):
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
        assert gap_set(spec).materialize(6 * spec.d) == expected

    def test_gaps_past_layer_two_read_the_walk_to_its_apery_stop(self, built_layers):
        # the boxes hold every degree, so asking for layers to 20 builds
        # only the Apéry layers and the first empty one after them
        spec = _small_removals(4, 4)[-1]
        reset_membership_cache()
        gaps = gap_set(spec).materialize(20 * spec.d)
        assert max(v.degree() for v in gaps) == 5 * 4
        stop = max(a.degree() for a in apery_set(spec)) // spec.d + 1
        assert built_layers == list(range(1, stop + 1))
        reset_membership_cache()


def _census_cases():
    for n in (2, 3, 4):
        for d in (3, 4, 5):
            yield from _small_removals(n, d)


def _layer_gaps(spec, t):
    """The vectors of degree t*d that layer t of the spec misses, read off its members, not its gap boxes."""
    members = set(layer_members(spec, t))
    return [v for v in weak_compositions(t * spec.d, spec.n) if v not in members]


def _decoded_gaps(spec, top):
    """The gaps of layers 1..top, every layer decoded and none skipped."""
    return [v for t in range(1, top + 1) for v in _layer_gaps(spec, t)]


class TestCensus:
    @pytest.mark.parametrize("spec", list(_census_cases()), ids=lambda s: s.describe())
    def test_matches_the_decoded_layers(self, spec):
        bound = multipinch_coordinate_bound(spec.n, spec.d)
        gaps = _decoded_gaps(spec, 6)
        assert gap_census(spec, 6, bound) == (len(gaps), all(max(v) < bound for v in gaps))

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

    @pytest.mark.parametrize("layer_bound", [2.5, 2.0])
    def test_a_layer_bound_is_an_int_or_inf(self, layer_bound):
        # the refusal names the layer bound passed, not the degree 3 * layer_bound
        spec = pinch_spec(3, 3, [(1, 1, 1)], multipinch=True)
        with pytest.raises(InvalidSpecError, match=rf"layer bound .* got {layer_bound!r}$"):
            gap_census(spec, layer_bound, 60)


class TestEquivalence:
    @pytest.mark.parametrize("n,d", list(itertools.product((2, 3, 4), (2, 3, 4, 5))))
    def test_boxes_are_the_closed_form(self, n, d):
        # every single pinch: the Apéry boxes equal the closed form's, so
        # the two gap sets agree in every degree
        for m in veronese_generators(n, d):
            spec = pinch_spec(n, d, [m])
            found, closed = gap_set(spec), gap_set_closed_form(spec)
            assert gap_boxes(spec) == closed.boxes, tuple(m)
            assert found == closed, tuple(m)
            assert (found.kind, found.axes, found.is_finite) == (closed.kind, closed.axes, closed.is_finite), tuple(m)

    def test_a_disagreement_lists_its_discrepancies(self, monkeypatch):
        # the box comparison decides; t_max only bounds the listing
        import veropinch.gapset as gapset

        spec = pinch_spec(2, 4, [(3, 1)])
        monkeypatch.setattr(gapset, "gap_boxes", lambda spec: ((ExponentVector((3, 1)), (2, 0)),))
        assert verify_gap_equivalence(spec, 6) == (False, ((15, 1), (19, 1), (23, 1)))
        assert verify_gap_equivalence(spec, 3) == (False, ())

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

    def test_full_slice_agrees_on_the_empty_family(self):
        assert verify_gap_equivalence(pinch_spec(2, 4, []), 4) == (True, ())

    def test_rejects_multipinch(self):
        with pytest.raises(InvalidSpecError):
            verify_gap_equivalence(pinch_spec(3, 3, [(1, 1, 1)], multipinch=True), 4)


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

    @pytest.mark.parametrize(
        "m",
        [
            m
            for n in (2, 3, 4)
            for d in (3, 4, 5)
            for m in veronese_generators(n, d)
            if max(m) < d - 1
        ],
        ids=lambda m: str(tuple(m)),
    )
    def test_singleton_multipinch_agrees_with_the_single_pinch(self, m):
        # an interior pinch and the same removal forced down the multipinch
        # path are one ring: the same gap set, depth and HSL numbers
        n, d = len(m), sum(m)
        plain, forced = pinch_spec(n, d, [m]), pinch_spec(n, d, [m], multipinch=True)
        assert gap_set_closed_form(plain).materialize(d) == multipinch_gap_set(forced) == (m,)
        assert depth(plain) == depth(forced)
        for p in (2, 3, 5):
            assert f_singularity(plain, p).hsl == f_singularity(forced, p).hsl, p

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
                    for v in gap_set(spec).materialize(6 * spec.d):
                        assert v.max_entry() < bound

    def test_rejects_single_pinch_spec(self):
        with pytest.raises(InvalidSpecError):
            multipinch_gap_set(pinch_spec(2, 4, [(2, 2)]))

    @pytest.mark.parametrize(
        "spec",
        [s for n, d in ((2, 4), (2, 5), (3, 3), (3, 4), (4, 3)) for s in _small_removals(n, d)],
        ids=lambda s: s.describe(),
    )
    def test_box_points_are_the_gaps_up_to_the_first_full_layer(self, spec):
        # the layer comparison: one full layer t >= 1 forces every later one
        # full, so the gaps of layers 1..t-1 are all of them
        gaps = []
        for t in itertools.count(1):
            found = _layer_gaps(spec, t)
            if not found:
                break
            gaps.extend(found)
        assert multipinch_gap_set(spec) == tuple(sorted(gaps))
        assert gap_set(spec).kind is GapKind.FINITE


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
        # so the walk grows its radix on the way (at layers 3, 5 and 9)
        small = [m for m in veronese_generators(4, 5) if max(m) < 4]
        assert len(small) == 40
        spec = pinch_spec(4, 5, small, multipinch=True)
        gaps = multipinch_gap_set(spec)
        assert len(gaps) == 2988
        # the figures the README's verify --multipinch example cites
        assert gap_census(spec, 6, multipinch_coordinate_bound(4, 5)) == (2532, True)
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
        "spec",
        [
            pinch_spec(4, 4, [(2, 1, 1, 0)], multipinch=True),
            pinch_spec(3, 3, [(1, 1, 1)], multipinch=True),
            pinch_spec(4, 3, [(1, 1, 1, 0)], multipinch=True),
        ],
        ids=["n4-d4", "n3-d3", "n4-d3"],
    )
    def test_search_stops_at_the_apery_stop(self, spec, monkeypatch):
        # the cap is the size of the first layer with no Apéry element,
        # where the walk stops: the search never builds the layer after it
        n, d = spec.n, spec.d
        multipinch_gap_set.cache_clear()
        reset_membership_cache()
        expected = multipinch_gap_set(spec)
        stop = max(a.degree() for a in apery_set(spec)) // d + 1
        multipinch_gap_set.cache_clear()
        reset_membership_cache()
        monkeypatch.setenv("VEROPINCH_MEMO_CAP", str(math.comb(stop * d + n - 1, n - 1)))
        assert multipinch_gap_set(spec) == expected
        multipinch_gap_set.cache_clear()
        reset_membership_cache()

    def test_gap_beyond_the_coordinate_bound_is_an_internal_error(self, monkeypatch):
        # with a bound of 1 every entry is at or above it, so the gap (1,1,1)
        # contradicts the theorem the search checks
        import veropinch.gapset as gapset

        monkeypatch.setattr(gapset, "multipinch_coordinate_bound", lambda n, d: 1)
        multipinch_gap_set.cache_clear()
        with pytest.raises(AssertionError, match="coordinate bound 1"):
            multipinch_gap_set(pinch_spec(3, 3, [(1, 1, 1)], multipinch=True))

    @pytest.mark.parametrize("edge", [4, math.inf], ids=["finite", "free"])
    def test_the_bound_is_checked_on_every_far_corner(self, edge, monkeypatch):
        # n=3, d=3: bound 12, which forces layer 12 (degree 36) full.  The
        # added box (0,1,2) + 3*[0, 4]e_1 ends in degree 15, wholly below that
        # layer, but its far corner (12,1,2) reaches the bound; a free axis
        # has no far corner below any bound
        import veropinch.gapset as gapset

        spec = pinch_spec(3, 3, [(1, 1, 1)], multipinch=True)
        boxes = gap_boxes(spec)
        assert boxes == (((1, 1, 1), (0, 0, 0)),)
        monkeypatch.setattr(gapset, "gap_boxes", lambda s: boxes + (((0, 1, 2), (edge, 0, 0)),))
        multipinch_gap_set.cache_clear()
        with pytest.raises(AssertionError, match="coordinate bound 12"):
            multipinch_gap_set(spec)
        multipinch_gap_set.cache_clear()

    def test_entries_below_reads_the_far_corner(self):
        gaps = GapSet(2, 3, (((1, 2), (3, 0)),))  # far corner (10, 2)
        assert gaps.entries_below(11) and not gaps.entries_below(10)
        assert not GapSet(2, 3, (((1, 2), (math.inf, 0)),)).entries_below(10**9)
        assert GapSet(2, 3).entries_below(0)

    def test_entries_below_cuts_the_far_corner_to_the_degree(self):
        # corner (1, 2) of degree 3, so degree 9 leaves two steps on axis 0:
        # the cut far corner is (7, 2) where the whole box's is (10, 2)
        gaps = GapSet(2, 3, (((1, 2), (3, 0)),))
        assert gaps.entries_below(8, 9) and not gaps.entries_below(7, 9)
        # a free axis has a cut far corner under a finite degree bound
        assert GapSet(2, 3, (((1, 2), (math.inf, 0)),)).entries_below(8, 9)
        # a box whose corner lies past the degree bound holds no gap there
        assert gaps.entries_below(0, 2)
        assert GapSet(2, 3, (((10, 2), (0, 0)),)).entries_below(1, 3)


class TestMaterializeCap:
    @pytest.mark.parametrize(
        "m, max_degree, count",
        [
            ((1, 1, 0), 40, 210),
            ((1, 1), 7, 6),
            ((3, 1), 40, 10),
            ((0, 1, 3), 40, 10),
            ((1, 0, 0, 1), 20, 55),
        ],
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


@st.composite
def _boxes(draw):
    """A GapSet whose box corners lie in [0, d)^n, as every built box's do; edges in {0..3, inf}."""
    n, d = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    corner = st.tuples(*[st.integers(0, d - 1)] * n)
    edges = st.tuples(*[st.sampled_from([0, 1, 2, 3, math.inf])] * n)
    return GapSet(n, d, tuple(draw(st.lists(st.tuples(corner, edges), min_size=1, max_size=3))))


class TestEveryDegree:
    """``math.inf`` as a degree bound means every degree, in every read."""

    def test_materialize_lists_a_multipinch_whole(self):
        spec = pinch_spec(3, 3, [(1, 1, 1)], multipinch=True)
        assert gap_set(spec).materialize(math.inf) == multipinch_gap_set(spec) == ((1, 1, 1),)
        assert gap_set(spec).size() == 1

    def test_census_in_every_degree_counts_every_gap(self):
        small = [m for m in veronese_generators(4, 5) if max(m) < 4]
        spec = pinch_spec(4, 5, small, multipinch=True)
        assert gap_census(spec, math.inf, 60) == (2988, True)

    def test_a_free_axis_is_refused_before_listing(self, monkeypatch):
        import veropinch.gapset as gapset

        listed = []
        monkeypatch.setattr(gapset, "ExponentVector", lambda v: listed.append(v) or v)
        gap = gap_set_closed_form(pinch_spec(2, 4, [(3, 1)]))
        with pytest.raises(ResourceLimitError, match="has inf vectors"):
            gap.materialize(math.inf)
        assert listed == [] and gap.size() == math.inf

    def test_an_infinite_listing_admits_no_cap(self):
        spec = pinch_spec(2, 4, [(3, 1)])
        for refused in (lambda: gap_set_closed_form(spec).materialize(math.inf),
                        lambda: frobenius_on_cokernel(spec, 3, math.inf)):
            with pytest.raises(ResourceLimitError, match="a free axis never ends, so no cap admits") as info:
                refused()
            assert "VEROPINCH_MEMO_CAP" not in str(info.value)

    @pytest.mark.parametrize("bound", [8.0, 2.5, -math.inf])
    @pytest.mark.parametrize("read", ["materialize", "size", "entries_below"])
    def test_a_degree_bound_is_an_int_or_inf(self, read, bound):
        gap = gap_set_closed_form(pinch_spec(3, 4, [(2, 1, 1)]))
        call = (lambda b: gap.entries_below(10, b)) if read == "entries_below" else getattr(gap, read)
        with pytest.raises(InvalidSpecError, match=f"got {bound!r}"):
            call(bound)

    @given(_boxes(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_size_and_far_corners_agree_with_the_listing(self, gaps, data):
        degrees = list(range(8 * gaps.d + 1))
        if gaps.is_finite:
            degrees.append(math.inf)
        for top in degrees:
            listed = gaps.materialize(top)
            assert gaps.size(top) == len(listed), top
            bound = data.draw(st.integers(0, 4 * gaps.d), label="entry bound")
            assert gaps.entries_below(bound, top) == all(max(v) < bound for v in listed), (top, bound)


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
        assert gap_set_closed_form(spec).boxes == ()
        assert verify_principality(spec, 24) == (True, ())

    @pytest.mark.parametrize(
        "spec, message",
        [
            (pinch_spec(2, 4, []), "no single pinched vector"),
            (pinch_spec(3, 3, [(1, 1, 1)], multipinch=True), "no closed form"),
        ],
        ids=["full", "multipinch"],
    )
    def test_principality_rejects_non_single_pinch(self, spec, message):
        with pytest.raises(InvalidSpecError, match=message):
            verify_principality(spec, 24)

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

    def test_principality_holds_in_every_degree(self, monkeypatch):
        # below degree 8 the line (4s-1, 1) lists only m itself, but the gap
        # (7, 1) is m + (4, 0), which the patched membership rejects
        import veropinch.gapset as gapset

        monkeypatch.setattr(gapset, "is_member", lambda e, spec: tuple(e) != (4, 0))
        ok, _ = verify_principality(pinch_spec(2, 4, [(3, 1)]), 4)
        assert not ok

    @pytest.mark.parametrize("m", [(1, 1, 0), (1, 1, 1), (2, 1, 0)])
    def test_principality_asks_one_query_per_free_axis(self, m, monkeypatch):
        import veropinch.gapset as gapset

        asked = []
        monkeypatch.setattr(gapset, "is_member", lambda e, spec: asked.append(tuple(e)) or is_member(e, spec))
        spec = pinch_spec(3, sum(m), [m])
        assert verify_principality(spec, 60) == (True, ())
        d = spec.d
        free = [i for i, e in enumerate(gap_set_closed_form(spec).boxes[0][1]) if e == math.inf]
        assert asked == [tuple(d * (k == i) for k in range(3)) for i in free]

    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
    def test_principality_sweep(self, n, d):
        # every gap vector is the removed monomial plus a member (or it)
        for m in veronese_generators(n, d):
            if max(m) == d:
                continue
            ok, bad = verify_principality(pinch_spec(n, d, [m]), 6 * d)
            assert ok, (tuple(m), bad)
