"""Acceptance suite: the nine exit criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every check is exact (set equality / integer equality); nothing is
tolerance-based.
"""

from math import comb

from veropinch import (
    INJECTIVE_EVIDENCE,
    Fte,
    ceil_log,
    classify,
    f_singularity,
    frobenius_on_cokernel,
    gap_set,
    layer_members,
    multipinch_coordinate_bound,
    multipinch_gap_set,
    pinch_spec,
    quotient_basis,
    a_invariant,
    verify_gap_equivalence,
    veronese_generators,
)
from veropinch.cli import _removal_sets


def _report(number: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {title}{suffix}")
    assert ok, f"criterion {number} failed: {title}{suffix}"


def test_criterion_1_closed_form_matches_oracle():
    failures = []
    count = 0
    for n in (2, 3, 4):
        for d in (2, 3, 4, 5):
            for m in veronese_generators(n, d):
                spec = pinch_spec(n, d, [m])
                ok, diff = verify_gap_equivalence(spec, 6)
                count += 1
                if not ok:
                    failures.append((n, d, tuple(m), diff[:3]))
    _report(
        1,
        "closed-form gap sets match the Apéry boxes",
        not failures,
        f"{count} pinches at t_max=6" + (f"; failures {failures}" if failures else ""),
    )


def test_criterion_2_classic_non_cm_instance():
    spec = pinch_spec(2, 4, [(2, 2)])
    gaps = gap_set(spec).materialize(10 * spec.d)  # layers to degree 40
    report = classify(spec)
    ok = gaps == ((2, 2),) and report.depth == 1 and not report.cohen_macaulay
    _report(
        2,
        "(2,4) interior pinch: gap {(2,2)} to degree 40, depth 1, not CM",
        ok,
        f"gaps={[tuple(g) for g in gaps]} depth={report.depth}",
    )


def test_criterion_3_gorenstein_socle_suite():
    failures = []
    for d in range(3, 9):
        qb = quotient_basis(pinch_spec(2, d, [(d - 1, 1)]))
        good = (
            len(qb.basis) == d
            and qb.socle == ((d - 1, d + 1),)
            and a_invariant(qb) == 0
        )
        if not good:
            failures.append(d)
    _report(
        3,
        "socle suite d=3..8: |basis|=d, socle (d-1,d+1), a-invariant 0",
        not failures,
        f"failures at d={failures}" if failures else "6/6",
    )


def test_criterion_4_ci_presentation():
    # the generators come sorted, so z^2 first: a=x^2, b=xz, c=y^2, d=yz, e=z^2
    e, d, c, b, a = pinch_spec(3, 2, [(1, 1, 0)]).generators()
    named = (a, b, c, d, e) == ((2, 0, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    # a binomial relation is an equality of exponent sums
    positive = a.add(e) == b.add(b) and c.add(e) == d.add(d)
    negative = a.add(b) != c.add(c)
    _report(
        4,
        "CI relations ae=b^2 and ce=d^2 hold on the generators; ab=c^2 fails",
        named and positive and negative,
    )


def test_criterion_5_frobenius_parity_dichotomy():
    failures = []
    for n in (2, 3, 4):
        m = (1, 1) + (0,) * (n - 2)
        spec = pinch_spec(n, 2, [m])
        trace = frobenius_on_cokernel(spec, 2, 12)
        if trace.nilpotency_index != 1 or not all(s.killed for s in trace.action):
            failures.append((n, 2))
        for p in (3, 5, 7):
            trace = frobenius_on_cokernel(spec, p, 12)
            if trace.nilpotency_index != INJECTIVE_EVIDENCE or any(
                s.killed for s in trace.action
            ):
                failures.append((n, p))
    _report(
        5,
        "quadratic pinches: p=2 kills every gap vector to degree 12, odd p never does",
        not failures,
        f"failures {failures}" if failures else "n=2,3,4 x p=2,3,5,7",
    )


def test_criterion_6_one_step_kill_above_degree_two():
    failures = []
    count = 0
    for d in (3, 4, 5):
        for n in (2, 3):
            for m in veronese_generators(n, d):
                if max(m) >= d:
                    continue
                spec = pinch_spec(n, d, [m])
                for p in (2, 3, 5):
                    trace = frobenius_on_cokernel(spec, p, 6 * d)
                    count += 1
                    if trace.nilpotency_index != 1 or not all(
                        s.killed for s in trace.action
                    ):
                        failures.append((n, d, tuple(m), p))
    _report(
        6,
        "d>2 pinches: the cokernel dies in one Frobenius step for every p",
        not failures,
        f"{count} traces" + (f"; failures {failures}" if failures else ""),
    )


def test_criterion_7_fte_table():
    # (spec kwargs, p, expected kind, expected value)
    table = [
        ((2, 4, [(4, 0)], False), 5, "exact", 0),
        ((3, 3, [(3, 0, 0)], False), 2, "exact", 0),
        ((4, 2, [(2, 0, 0, 0)], False), 7, "exact", 0),
        ((2, 2, [(1, 1)], False), 2, "exact", 0),
        ((2, 2, [(1, 1)], False), 3, "exact", 0),
        ((3, 2, [(1, 1, 0)], False), 3, "exact", 0),
        ((3, 2, [(1, 1, 0)], False), 5, "exact", 0),
        ((2, 3, [(2, 1)], False), 2, "exact", 1),
        ((2, 4, [(3, 1)], False), 3, "exact", 1),
        ((2, 5, [(4, 1)], False), 5, "exact", 1),
        ((3, 2, [(1, 1, 0)], False), 2, "exact", 1),
        ((3, 2, [(0, 1, 1)], False), 2, "exact", 1),
        ((3, 4, [(3, 1, 0)], False), 2, "bound", comb(3, 2)),
        ((4, 3, [(2, 1, 0, 0)], False), 3, "bound", comb(4, 2)),
        ((4, 2, [(1, 1, 0, 0)], False), 2, "bound", comb(4, 3)),
        ((5, 2, [(1, 1, 0, 0, 0)], False), 2, "bound", comb(5, 3)),
        ((3, 3, [(1, 1, 1)], False), 2, "bound", 3),
        ((2, 4, [(2, 2)], False), 3, "bound", 2),
        ((4, 4, [(2, 1, 1, 0)], False), 5, "bound", 4),
        ((3, 3, [(1, 1, 1)], True), 2, "bound", 3 * ceil_log(2, 12)),
        ((3, 3, [(1, 1, 1)], True), 3, "bound", 3 * ceil_log(3, 12)),
        ((2, 4, [(2, 2)], True), 2, "bound", 2 * ceil_log(2, 12)),
        ((4, 2, [(1, 1, 0, 0)], False), 3, "unknown", None),
        ((5, 2, [(1, 0, 0, 0, 1)], False), 5, "unknown", None),
    ]
    failures = []
    for (n, d, removed, multi), p, kind, value in table:
        spec = pinch_spec(n, d, removed, multipinch=multi)
        result = f_singularity(spec, p).fte
        if result.kind != kind or result.value != value:
            failures.append(((n, d, removed, multi, p), (result.kind, result.value)))
    _report(
        7,
        "Frobenius test exponent table (exact values, bounds, unknowns)",
        not failures,
        f"{len(table)} cases" + (f"; failures {failures}" if failures else ""),
    )


def test_criterion_8_multipinch_coordinate_bound():
    failures = []
    count = 0
    for n, d in ((3, 3), (2, 4), (3, 4), (4, 3), (3, 5), (4, 4)):
        full = pinch_spec(n, d, [], multipinch=True)
        if gap_set(full).materialize(6 * full.d):  # the boxes hold every degree: complete
            failures.append((n, d, (), "the full slice has gaps"))
        bound = multipinch_coordinate_bound(n, d)
        smalls = [m for m in veronese_generators(n, d) if max(m) < d - 1]
        for removal in _removal_sets(smalls):
            gaps = multipinch_gap_set(pinch_spec(n, d, removal, multipinch=True))
            count += 1
            offenders = [tuple(v) for v in gaps if v.max_entry() >= bound]
            if offenders:
                failures.append((n, d, removal, offenders))
    _report(
        8,
        "complete multipinch gap sets stay below the coordinate bound (n-1)(d^2-d)",
        not failures,
        f"{count} removal sets" + (f"; failures {failures}" if failures else ""),
    )


def test_criterion_9_lower_veronese_layer_bijection():
    failures = []
    for d in (3, 4, 5):
        spec = pinch_spec(2, d, [(d, 0)])
        for t in range(1, 6):
            layer = layer_members(spec, t)
            images = {(v.degree() // d, v[0]) for v in layer}
            if len(images) != len(layer):
                failures.append((d, t, "not injective"))
            elif images != {(t, w) for w in range(t * (d - 1) + 1)}:
                failures.append((d, t, "image mismatch"))
    _report(
        9,
        "plane corner pinch maps layer t bijectively onto layer t of the (d-1)-slice",
        not failures,
        f"failures {failures}" if failures else "d=3,4,5; t<=5",
    )
