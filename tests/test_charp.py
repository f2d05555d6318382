"""Frobenius action on the missing monomials and the derived invariants."""

from math import comb, inf

import pytest

import veropinch.charp as charp
from veropinch import (
    FType,
    GapSet,
    INJECTIVE_EVIDENCE,
    InvalidSpecError,
    ceil_log,
    f_singularity,
    frobenius_on_cokernel,
    multipinch_coordinate_bound,
    multipinch_nilpotency_index,
    pinch_spec,
    veronese_generators,
)
from veropinch.cli import EXIT_USAGE, main

LINE = pinch_spec(2, 4, [(3, 1)])
ENTRY_POINTS = {
    "frobenius_on_cokernel": lambda p: frobenius_on_cokernel(LINE, p, 6 * LINE.d),
    "f_singularity": lambda p: f_singularity(LINE, p),
    "multipinch_nilpotency_index": lambda p: multipinch_nilpotency_index(
        pinch_spec(3, 3, [(1, 1, 1)], multipinch=True), p
    ),
    "analyze --char": lambda p: main(
        ["analyze", "--n", "2", "--d", "4", "--pinch", "3,1", "--char", str(p)]
    ),
    "verify --chars": lambda p: main(["verify", "--frobenius", "--chars", str(p)]),
}


@pytest.mark.parametrize("p", [1, 4, 6, 9, 100, 10_007])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_rejects_a_non_prime(capsys, entry, p):
    # one check of the prime serves the library and the CLI alike
    if entry.startswith(("analyze", "verify")):
        with pytest.raises(SystemExit) as exc:
            ENTRY_POINTS[entry](p)
        assert exc.value.code == EXIT_USAGE
        assert "characteristic" in capsys.readouterr().err
    else:
        with pytest.raises(InvalidSpecError, match="characteristic"):
            ENTRY_POINTS[entry](p)


class TestCeilLog:
    def test_ceil_log(self):
        assert ceil_log(2, 12) == 4
        assert ceil_log(3, 12) == 3
        assert ceil_log(5, 1) == 0
        assert ceil_log(2, 16) == 4

    @pytest.mark.parametrize("base", [1, 0, -2])
    def test_ceil_log_rejects_base_below_two(self, base):
        with pytest.raises(InvalidSpecError, match="base must be at least 2"):
            ceil_log(base, 5)


class TestFrobeniusTrace:
    def test_interior_point_killed(self):
        spec = pinch_spec(3, 3, [(1, 1, 1)])
        trace = frobenius_on_cokernel(spec, 5, 6 * spec.d)
        assert trace.nilpotency_index == 1
        (step,) = trace.action
        assert step.image == (5, 5, 5)
        assert step.killed

    def test_line_killed_because_small_entry_leaves_one(self):
        spec = pinch_spec(2, 4, [(3, 1)])
        trace = frobenius_on_cokernel(spec, 3, 6 * spec.d)
        first = trace.action[0]
        assert first.vector == (3, 1)
        assert first.image == (9, 3)
        assert first.killed
        assert all(s.killed for s in trace.action)

    def test_odd_odd_persists_in_odd_characteristic(self):
        spec = pinch_spec(2, 2, [(1, 1)])
        trace = frobenius_on_cokernel(spec, 3, 12)
        assert trace.nilpotency_index == INJECTIVE_EVIDENCE
        assert not any(s.killed for s in trace.action)
        by_vector = {tuple(s.vector): s for s in trace.action}
        assert by_vector[(1, 1)].image == (3, 3)

    def test_odd_odd_dies_at_two(self):
        spec = pinch_spec(2, 2, [(1, 1)])
        trace = frobenius_on_cokernel(spec, 2, 12)
        assert trace.nilpotency_index == 1
        by_vector = {tuple(s.vector): s for s in trace.action}
        assert by_vector[(3, 5)].image == (6, 10)
        assert by_vector[(3, 5)].killed

    def test_every_degree_traces_an_interior_gap(self):
        trace = frobenius_on_cokernel(pinch_spec(3, 4, [(2, 1, 1)]), 3, inf)
        (step,) = trace.action
        assert step.vector == (2, 1, 1) and step.killed
        assert trace.nilpotency_index == 1

    def test_empty_cokernel_rejected(self):
        spec = pinch_spec(2, 4, [(4, 0)])
        with pytest.raises(InvalidSpecError):
            frobenius_on_cokernel(spec, 3, 6 * spec.d)

    def test_rejects_multipinch(self):
        spec = pinch_spec(3, 3, [(1, 1, 1)], multipinch=True)
        with pytest.raises(InvalidSpecError, match="no closed form"):
            frobenius_on_cokernel(spec, 3, 6 * spec.d)

    @pytest.mark.parametrize(
        "spec, truncation",
        [(pinch_spec(3, 3, [(1, 1, 1)]), 2), (LINE, 3), (pinch_spec(2, 4, []), 24)],
        ids=["interior", "line", "full"],
    )
    def test_empty_trace_names_the_truncation(self, spec, truncation):
        # the first gap vector, (1,1,1) or (3,1), lies above the truncation;
        # the full slice's family is empty
        message = f"no gap vector up to degree {truncation}: nothing to trace"
        with pytest.raises(InvalidSpecError, match=message):
            frobenius_on_cokernel(spec, 3, truncation)

    def test_a_member_inside_the_family_raises(self, monkeypatch):
        # every image of the odd-odd plane at p = 3 is a gap vector
        monkeypatch.setattr(charp, "is_member", lambda e, spec: True)
        with pytest.raises(AssertionError, match="both a member and a gap vector"):
            frobenius_on_cokernel(pinch_spec(2, 2, [(1, 1)]), 3, 12)

    def test_a_trace_that_kills_some_images_raises(self, monkeypatch):
        # both engines agree that (3, 3) is a member and every other image a gap
        monkeypatch.setattr(charp, "is_member", lambda e, spec: tuple(e) == (3, 3))
        monkeypatch.setattr(GapSet, "contains", lambda self, v: tuple(v) != (3, 3))
        with pytest.raises(AssertionError, match="kills 1 of 21 gap vectors, not all or none"):
            frobenius_on_cokernel(pinch_spec(2, 2, [(1, 1)]), 3, 12)

    def test_large_prime_traces_stay_cheap(self):
        # exponent arithmetic only: no blow-up near the characteristic cap
        spec = pinch_spec(2, 2, [(1, 1)])
        trace = frobenius_on_cokernel(spec, 9973, 12)
        assert trace.nilpotency_index == INJECTIVE_EVIDENCE
        spec = pinch_spec(2, 4, [(3, 1)])
        trace = frobenius_on_cokernel(spec, 9973, 24)
        assert trace.nilpotency_index == 1
        assert all(s.killed for s in trace.action)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_parity_dichotomy(self, n, p):
        m = (1, 1) + (0,) * (n - 2)
        spec = pinch_spec(n, 2, [m])
        trace = frobenius_on_cokernel(spec, p, 12)
        if p == 2:
            assert trace.nilpotency_index == 1
            assert all(s.killed for s in trace.action)
        else:
            assert trace.nilpotency_index == INJECTIVE_EVIDENCE
            assert not any(s.killed for s in trace.action)


class TestFSingularity:
    def test_interior_pinch_nilpotent(self):
        report = f_singularity(pinch_spec(3, 3, [(1, 1, 1)]), 7)
        assert report.ftype is FType.F_NILPOTENT
        assert report.f_pure == "no"

    def test_three_variable_quadratic_injective_and_pure(self):
        report = f_singularity(pinch_spec(3, 2, [(1, 1, 0)]), 3)
        assert report.ftype is FType.F_INJECTIVE
        assert report.f_pure == "yes"

    def test_four_variable_quadratic_purity_open(self):
        report = f_singularity(pinch_spec(4, 2, [(1, 1, 0, 0)]), 5)
        assert report.ftype is FType.F_INJECTIVE
        assert report.f_pure == "unknown"

    def test_corner_pinch_f_regular(self):
        report = f_singularity(pinch_spec(2, 4, [(4, 0)]), 2)
        assert report.ftype is FType.F_REGULAR
        assert report.f_pure == "yes"

    def test_regular_special_case(self):
        report = f_singularity(pinch_spec(2, 2, [(1, 1)]), 5)
        assert report.ftype is FType.REGULAR

    def test_quadratic_characteristic_two_nilpotent(self):
        report = f_singularity(pinch_spec(3, 2, [(1, 1, 0)]), 2)
        assert report.ftype is FType.F_NILPOTENT

    def test_multipinch_nilpotent(self):
        spec = pinch_spec(3, 4, [(2, 2, 0), (2, 1, 1)])
        assert f_singularity(spec, 3).ftype is FType.F_NILPOTENT

    @pytest.mark.parametrize("n,d", [(2, 3), (2, 4), (3, 2), (3, 3)])
    @pytest.mark.parametrize("p", [2, 3])
    def test_hsl_zero_iff_injective_type(self, n, d, p):
        for m in veronese_generators(n, d):
            spec = pinch_spec(n, d, [m])
            report = f_singularity(spec, p)
            injective = report.ftype in (FType.F_REGULAR, FType.F_INJECTIVE, FType.REGULAR)
            assert (report.hsl == 0) == injective, tuple(m)


class TestHsl:
    def test_saturated_pinch(self):
        for p in (2, 3, 5):
            assert f_singularity(pinch_spec(2, 4, [(4, 0)]), p).hsl == 0

    def test_non_cm_pinch(self):
        assert f_singularity(pinch_spec(2, 4, [(2, 2)]), 3).hsl == 1

    def test_cm_but_not_injective(self):
        assert f_singularity(pinch_spec(3, 2, [(1, 1, 0)]), 2).hsl == 1

    def test_never_exceeds_one_for_single_pinches(self):
        for n, d in ((2, 3), (3, 2), (3, 3)):
            for m in veronese_generators(n, d):
                for p in (2, 3):
                    assert f_singularity(pinch_spec(n, d, [m]), p).hsl <= 1


class TestFte:
    def test_plane_gorenstein_exact_one(self):
        result = f_singularity(pinch_spec(2, 5, [(4, 1)]), 3).fte
        assert result.kind == "exact" and result.value == 1

    def test_binom_n2_bound(self):
        result = f_singularity(pinch_spec(4, 3, [(2, 1, 0, 0)]), 2).fte
        assert result.kind == "bound" and result.value == comb(4, 2) == 6

    def test_linear_bound(self):
        result = f_singularity(pinch_spec(3, 3, [(1, 1, 1)]), 2).fte
        assert result.kind == "bound" and result.value == 3

    def test_multipinch_log_formula(self):
        spec = pinch_spec(3, 3, [(1, 1, 1)], multipinch=True)
        result = f_singularity(spec, 2).fte
        assert result.kind == "bound" and result.value == 3 * ceil_log(2, 12) == 12

    def test_open_question_case(self):
        result = f_singularity(pinch_spec(4, 2, [(1, 1, 0, 0)]), 3).fte
        assert result.kind == "unknown" and result.value is None

    def test_exact_zero_rationale_is_frobenius_closure(self):
        for spec, p in [
            (pinch_spec(2, 4, [(4, 0)]), 5),
            (pinch_spec(2, 2, [(1, 1)]), 3),
            (pinch_spec(3, 2, [(1, 1, 0)]), 3),
        ]:
            result = f_singularity(spec, p).fte
            assert result.kind == "exact" and result.value == 0
            assert result.rationale == "every parameter ideal Frobenius closed"

    def test_exact_values_respect_family_bounds(self):
        # exact 1 in the plane Gorenstein family vs its binomial bound
        assert f_singularity(pinch_spec(2, 4, [(3, 1)]), 2).fte.value <= comb(2, 2)
        # exact 1 at (3,2,max 1,p=2) vs binom(3,3)
        assert f_singularity(pinch_spec(3, 2, [(0, 1, 1)]), 2).fte.value <= comb(3, 3)


class TestMultipinchNilpotency:
    def test_interior_vector_cleared_in_one_step(self):
        spec = pinch_spec(3, 3, [(1, 1, 1)], multipinch=True)
        assert multipinch_nilpotency_index(spec, 2) == 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize(
        "n,d,removal",
        [
            (3, 3, [(1, 1, 1)]),
            (2, 4, [(2, 2)]),
            (3, 4, [(2, 2, 0), (2, 1, 1)]),
            (2, 5, [(3, 2), (2, 3)]),
        ],
    )
    def test_index_within_log_bound(self, p, n, d, removal):
        spec = pinch_spec(n, d, removal, multipinch=True)
        index = multipinch_nilpotency_index(spec, p)
        assert 1 <= index <= ceil_log(p, multipinch_coordinate_bound(n, d))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_index_within_log_bound_exhaustive(self, p):
        import itertools

        for n, d in ((2, 3), (3, 3), (2, 4), (3, 4)):
            smalls = [m for m in veronese_generators(n, d) if max(m) < d - 1]
            limit = ceil_log(p, multipinch_coordinate_bound(n, d))
            for size in range(1, len(smalls) + 1):
                for removal in itertools.combinations(smalls, size):
                    spec = pinch_spec(n, d, removal, multipinch=True)
                    index = multipinch_nilpotency_index(spec, p)
                    assert 1 <= index <= limit, (n, d, removal)

    def test_full_removal_can_need_two_steps(self):
        # at (3,4), removing every small generator leaves (2,1,1) needing
        # two doublings: (4,2,2) is still a gap, (8,4,4) is a member
        smalls = [m for m in veronese_generators(3, 4) if max(m) < 3]
        spec = pinch_spec(3, 4, smalls, multipinch=True)
        assert multipinch_nilpotency_index(spec, 2) == 2
        assert f_singularity(spec, 2).hsl == 2

    def test_hsl_equals_index_for_multipinch(self):
        spec = pinch_spec(3, 4, [(2, 2, 0), (2, 1, 1)])
        assert f_singularity(spec, 2).hsl == multipinch_nilpotency_index(spec, 2)

    def test_rejects_single_pinch(self):
        with pytest.raises(InvalidSpecError):
            multipinch_nilpotency_index(pinch_spec(2, 4, [(2, 2)]), 2)
