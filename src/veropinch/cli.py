"""Command-line surface: per-spec analysis, verification sweeps, gap listings.

Exit codes: 0 success, 1 verification failure, 2 usage or spec error,
3 resource-cap failure (a package cap, or the interpreter's stack or memory
running out), 4 internal error (one of the package's own consistency checks
failed, which means a bug, not a bad input).  JSON goes to stdout (schema version "1", sorted
keys, 1-based axes), diagnostics to stderr.  Identical invocations produce
byte-identical output.

``verify`` computes its (n, d) cells in forked worker processes, one per CPU
the process may run on, and merges their rows back in sweep order, so its
output does not depend on the CPU count (see :func:`_sweep_rows`).  A
failure in a worker is never transported: the sweeps run again in this
process and raise what they raise.  A worker holds one cell at a time.  On
SIGTERM the workers are killed and reaped, with no exception of the map's
own, and the signal is delivered again under the handler found.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import marshal
import os
import sys
from itertools import chain, combinations
from typing import Any, BinaryIO, Callable, Iterator, Sequence

from veropinch.charp import (
    FSingularityReport,
    INJECTIVE_EVIDENCE,
    _prime,
    f_singularity,
    frobenius_on_cokernel,
)
from veropinch.classify import (
    ClassificationReport,
    Normalization,
    a_invariant,
    classify,
    quotient_basis,
)
from veropinch.exceptions import InvalidSpecError, ResourceLimitError
from veropinch.gapset import (
    gap_census,
    gap_set,
    gap_set_closed_form,
    multipinch_coordinate_bound,
    multipinch_gap_set,
    verify_gap_equivalence,
    verify_principality,
)
from veropinch.lattice import (
    ExponentVector,
    PinchCase,
    SemigroupSpec,
    _removable,
    pinch_spec,
    veronese_generators,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

SCHEMA = "1"


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidSpecError(f"cannot parse vector {text!r}: comma-separated integers expected") from exc


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        return tuple(_prime(int(part)) for part in text.split(","))
    except ValueError as exc:  # argparse would print the parser's name, not the reason
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _int_at_least(lo: int):
    """An argparse type: an integer no smaller than lo."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"integer expected, got {text!r}") from exc
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    return parse


def _parse_range(text: str) -> range:
    """'2..4' -> range(2, 5); a bare integer is a one-element range."""
    lo, dots, hi = text.partition("..")
    try:
        lo_i = int(lo)
        hi_i = int(hi) if dots else lo_i
    except ValueError as exc:
        raise InvalidSpecError(f"cannot parse range {text!r}: an integer or lo..hi expected") from exc
    if hi_i < lo_i:
        raise InvalidSpecError(f"empty range {text!r}")
    return range(lo_i, hi_i + 1)


def _build_spec(args: argparse.Namespace) -> SemigroupSpec:
    if args.pinch and args.remove:
        raise InvalidSpecError("--pinch and --remove are mutually exclusive")
    if args.pinch and args.multipinch:
        raise InvalidSpecError("--multipinch goes with --remove, not --pinch")
    removed = [_parse_vector(v) for v in ([args.pinch] if args.pinch else args.remove or [])]
    return pinch_spec(args.n, args.d, removed, multipinch=args.multipinch)


def _spec_payload(spec: SemigroupSpec) -> dict[str, Any]:
    gens = spec.generators()
    return {
        "n": spec.n,
        "d": spec.d,
        "kind": spec.kind,
        "removed": [list(m) for m in spec.removed],
        "generator_count": len(gens),
        "generators": [list(g) for g in gens],
    }


def _gap_listing(
    spec: SemigroupSpec, max_degree: int
) -> tuple[tuple[ExponentVector, ...], bool, dict[str, Any]]:
    """(gaps up to max_degree, whether those are all the gaps, gap family).

    A multipinch lists its Apéry boxes, and any other spec its closed form,
    whose family carries its 1-based axis pair and d when it has them.
    """
    if spec.case is PinchCase.MULTI:
        return multipinch_gap_set(spec), True, {"family": "finite"}
    gap = gap_set_closed_form(spec)
    family: dict[str, Any] = {"family": gap.kind.value}
    if gap.axes is not None:
        family["axes"] = [gap.axes[0] + 1, gap.axes[1] + 1]
        family["d"] = gap.d
    return gap.materialize(max_degree), gap.is_finite, family


def _classification_payload(report: ClassificationReport) -> dict[str, Any]:
    return {
        "dimension": report.dimension,
        "depth": report.depth,
        "cohen_macaulay": report.cohen_macaulay,
        "generalized_cohen_macaulay": report.generalized_cm,
        "gorenstein": report.gorenstein.value,
        "complete_intersection": report.complete_intersection.value,
        "a_invariant": report.a_invariant,
        "normalization": report.normalization.value,
    }


def _frobenius_payload(report: FSingularityReport) -> dict[str, Any]:
    return {
        "p": report.p,
        "type": report.ftype.value,
        "rationale": report.rationale,
        "f_pure": report.f_pure,
        "hsl": report.hsl,
        "fte": report.fte._asdict(),
        "notes": list(report.notes),
    }


def cmd_analyze(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    if spec.case is PinchCase.FULL:
        raise InvalidSpecError("analyze needs a removed generator (--pinch or --remove)")
    max_degree = args.tmax * spec.d
    report = classify(spec)
    payload: dict[str, Any] = {
        "schema": SCHEMA,
        "command": "analyze",
        "spec": _spec_payload(spec),
        "classification": _classification_payload(report),
        "rationale": {k: v for k, v in report.rationale},
    }
    members, complete, family = _gap_listing(spec, max_degree)
    gap = payload["gap"] = {**family, "finite": complete}
    frobenius = payload["frobenius"] = [_frobenius_payload(f_singularity(spec, p)) for p in args.chars]
    verification: dict[str, Any] = {}
    if spec.case is PinchCase.MULTI:
        bound = multipinch_coordinate_bound(spec.n, spec.d)
        gap.update(complete=complete, members=[list(v) for v in members], coordinate_bound=bound)
        for entry in frobenius:
            # a multipinch is always F-nilpotent: its HSL number is the index
            entry["cokernel_trace"] = {"nilpotency_index": entry["hsl"]}
        verification["coordinate_bound"] = {"bound": bound, "ok": gap_set(spec).entries_below(bound)}
    else:
        gap["truncation_degree"] = max_degree
        gap["members" if complete else "sample"] = [list(v) for v in members]
        for entry in frobenius if members else []:  # with no gap there is nothing to trace
            trace = frobenius_on_cokernel(spec, entry["p"], max_degree)
            entry["cokernel_trace"] = {
                "nilpotency_index": trace.nilpotency_index,
                "truncation_degree": trace.truncation,
                "traced": len(trace.action),
                "killed": sum(1 for s in trace.action if s.killed),
            }
        ok, diff = verify_gap_equivalence(spec, args.tmax)
        verification["gap_equivalence"] = {
            "t_max": args.tmax,
            "ok": ok,
            "discrepancies": [list(v) for v in diff],
        }
        p_ok, bad = verify_principality(spec, max_degree)
        verification["principality"] = {
            "max_degree": max_degree,
            "ok": p_ok,
            "counterexamples": [list(v) for v in bad],
        }
    payload["verification"] = verification
    payload["caveats"] = _caveats(report, frobenius)
    _emit(payload, args.format)
    if not all(section["ok"] for section in verification.values()):
        return EXIT_VERIFICATION
    return EXIT_OK


def _caveats(
    report: ClassificationReport, frobenius: Sequence[dict[str, Any]]
) -> list[str]:
    """Open questions the report touches, stated once each."""
    out = [reason for field, reason in report.rationale if field == "open"]
    if any(f["f_pure"] == "unknown" for f in frobenius):
        out.append(
            "F-purity for quadratic pinches beyond three variables in odd "
            "characteristic is an open question"
        )
    if any(f["fte"]["kind"] == "unknown" for f in frobenius):
        out.append(
            "no finiteness result is known for the Frobenius test exponent in "
            "this F-injective non-Cohen-Macaulay family"
        )
    if frobenius and report.normalization is Normalization.BY_VERONESE:
        out.append(
            "the Frobenius classification is read off the embedding into the "
            "ambient degree-d slice; intrinsic semigroup criteria for these "
            "singularity classes are open"
        )
    return out


def cmd_gaps(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    bound = args.bound if args.bound is not None else 6 * spec.d
    payload: dict[str, Any] = {
        "schema": SCHEMA,
        "command": "gaps",
        "spec": _spec_payload(spec),
        "bound_degree": bound,
    }
    members, complete, family = _gap_listing(spec, bound)
    if spec.case is PinchCase.MULTI:
        payload["total_gap_size"] = len(members)
    payload["members"] = [list(v) for v in members if v.degree() <= bound]
    payload["complete"] = complete
    payload["family"] = family
    _emit(payload, args.format)
    return EXIT_OK


# A verification sweep yields one (check, spec, ok, detail) row per check.
Row = tuple[str, str, bool, str]


def _single_pinches(ns: Sequence[int], ds: Sequence[int]) -> Iterator[tuple[SemigroupSpec, str]]:
    """(spec, label) for the single pinch of every generator, every n in ns and d in ds."""
    for n in ns:
        for d in ds:
            for m in veronese_generators(n, d):
                yield pinch_spec(n, d, [m]), f"n={n} d={d} m={tuple(m)}"


def _sweep_gap_equivalence(ns: Sequence[int], ds: Sequence[int], t_max: int) -> Iterator[Row]:
    for spec, label in _single_pinches(ns, ds):
        ok, diff = verify_gap_equivalence(spec, t_max)
        detail = f"{len(diff)} discrepancies" if diff else ""
        yield "gap-equivalence", label, ok, detail


def _sweep_socle(ds: Sequence[int]) -> Iterator[Row]:
    for d in ds:
        spec = pinch_spec(2, d, [(d - 1, 1)])  # refuses a degree below 2
        if spec.case is PinchCase.REGULAR_PLANE:
            continue  # the plane pinch of (1, 1) is a polynomial ring: no socle row
        qb = quotient_basis(spec)
        expected_socle = (ExponentVector((d - 1, d + 1)),)
        ok = (
            len(qb.basis) == d
            and qb.socle == expected_socle
            and a_invariant(qb) == 0
        )
        socle = [tuple(s) for s in qb.socle]
        yield "socle", f"n=2 d={d} m={(d - 1, 1)}", ok, f"|basis|={len(qb.basis)} socle={socle}"


def _sweep_frobenius(ns: Sequence[int], ds: Sequence[int], t_max: int, chars: Sequence[int]) -> Iterator[Row]:
    for spec, label in _single_pinches(ns, ds):
        if not gap_set_closed_form(spec).boxes:
            continue  # nothing is missing, so there is nothing to trace
        for p in chars:
            # the paper's parity rule: a quadratic pinch persists at odd p,
            # every other pinch dies in one step
            persists = spec.d == 2 and p > 2
            trace = frobenius_on_cokernel(spec, p, t_max * spec.d)
            ok = trace.nilpotency_index == (INJECTIVE_EVIDENCE if persists else 1)
            yield "frobenius", f"{label} p={p}", ok, "persists" if persists else "one-step kill"


def _removal_sets(small: Sequence[ExponentVector]) -> list[tuple[ExponentVector, ...]]:
    # exhaustive for few removable generators; extremes (singletons, the
    # maximal removal, and its near-misses) once the power set gets large
    if 2 ** len(small) <= 64:
        sets: list[tuple[ExponentVector, ...]] = []
        for size in range(1, len(small) + 1):
            sets.extend(combinations(small, size))
        return sets
    sets = [tuple([m]) for m in small]
    sets.extend(tuple(m for m in small if m != skip) for skip in small)
    sets.append(tuple(small))
    return sets


def _sweep_multipinch(ns: Sequence[int], ds: Sequence[int], t_max: int) -> Iterator[Row]:
    for n in ns:
        for d in ds:
            small = [m for m in veronese_generators(n, d) if _removable(m, d)]
            bound = multipinch_coordinate_bound(n, d)
            for removal in _removal_sets(small):
                spec = pinch_spec(n, d, removal, multipinch=True)
                count, ok = gap_census(spec, t_max, bound)
                detail = f"{count} gaps below entry bound {bound}"
                yield "multipinch-bound", f"n={n} d={d} removed={[tuple(m) for m in removal]}", ok, detail


def cmd_verify(args: argparse.Namespace) -> int:
    ns = _parse_range(args.n)
    ds = _parse_range(args.d)
    sweeps = {
        "gaps": lambda ns, ds: _sweep_gap_equivalence(ns, ds, args.tmax),
        "socle": lambda ns, ds: _sweep_socle(ds),
        "frobenius": lambda ns, ds: _sweep_frobenius(ns, ds, args.tmax, args.chars),
        "multipinch": lambda ns, ds: _sweep_multipinch(ns, ds, args.tmax),
    }
    chosen = [name for name in sweeps if getattr(args, name)] or list(sweeps)
    rows = _sweep_rows(sweeps, chosen, ns, ds)
    passed = sum(row[2] for row in rows)
    ok = passed == len(rows)
    if args.format == "json":
        results = [dict(zip(("check", "spec", "ok", "detail"), row)) for row in rows]
        _emit({"schema": SCHEMA, "command": "verify", "ok": ok, "results": results}, "json")
    else:
        for check, spec, row_ok, detail in rows:
            detail = f"  ({detail})" if detail else ""
            print(f"[{'pass' if row_ok else 'FAIL'}] {check:18s} {spec}{detail}")
        print(f"{'all pass' if ok else 'FAILURES'}: {passed}/{len(rows)} checks")
    return EXIT_OK if ok else EXIT_VERIFICATION


def _sweep_rows(
    sweeps: dict[str, Callable[[range, range], Iterator[Row]]], chosen: list[str], ns: range, ds: range
) -> list[Row]:
    """The chosen sweeps' rows over ns x ds, sweep by sweep, each in its own order.

    No walk is shared between two (n, d) cells, so each cell, with every
    chosen sweep's rows for it, is one unit of work, and the socle sweep one
    more; forked workers, one per usable CPU, each with its own memos, take
    them largest cell first.
    If a unit raises or a worker dies, the sweeps run again here, in order,
    and raise what they raise.  With one CPU, one unit, no ``os.fork`` or
    a thread other than the main one, they run here directly.
    """
    per_cell = [name for name in chosen if name != "socle"]
    units = chain(
        ((n, d) for n in reversed(ns) for d in reversed(ds)) if per_cell else (),
        ["socle"] if "socle" in chosen else (),
    )
    # range lengths, which len() refuses past sys.maxsize
    count = ((ns.stop - ns.start) * (ds.stop - ds.start) if per_cell else 0) + ("socle" in chosen)

    def unit_rows(unit: tuple[int, int] | str) -> list:
        if unit == "socle":
            return list(sweeps["socle"](ns, ds))
        n, d = unit
        return [list(sweeps[name](range(n, n + 1), range(d, d + 1))) for name in per_cell]

    workers = min(count, _usable_cpus())
    done = _fork_map(units, workers, unit_rows) if workers > 1 and hasattr(os, "fork") else None
    if done is None:
        return [row for name in chosen for row in sweeps[name](ns, ds)]
    rows: list[Row] = []
    for name in chosen:
        if name == "socle":
            rows.extend(done["socle"])
        else:
            k = per_cell.index(name)
            rows.extend(row for n in ns for d in ds for row in done[n, d][k])
    return rows


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_map(units: Iterator[Any], workers: int, compute: Callable[[Any], Any]) -> dict[Any, Any] | None:
    """{unit: compute(unit)} for every unit, computed in that many forked workers; None on any failure.

    Each unit goes to whichever worker is idle, in the order given, and comes
    back through a pipe as ``marshal`` data; this process computes nothing.
    A worker holds one unit at a time, so no buffered reader holds bytes that
    ``poll`` has not reported.  A unit that raises, a worker that dies, or a
    SIGTERM, whose handler only kills the workers, ends the map with None;
    no exception of the map's own leaves it.  Every worker is killed and
    reaped before this returns or raises, and then a SIGTERM met is delivered
    again under the handler found.  Workers are forked, not spawned, so they
    start with this process's imports instead of paying for them again; the
    CLI starts no thread, so forking is safe.
    """
    import select
    import signal

    terminated: list[int] = []  # the SIGTERMs met while the workers ran

    def kill_workers(signum: int, frame: Any) -> None:
        terminated.append(signum)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)

    pids: list[int] = []
    files: list[BinaryIO] = []  # this process's ends of every worker's pipes
    idle: list[tuple[BinaryIO, BinaryIO]] = []  # (task writer, result reader) of each idle worker
    busy: dict[int, tuple[tuple[BinaryIO, BinaryIO], Any]] = {}  # result fd -> (worker, its unit)
    waiting = select.poll()  # the result fds in busy
    done: dict[Any, Any] = {}
    try:
        previous = signal.signal(signal.SIGTERM, kill_workers)
    except ValueError:  # outside the main thread no handler can be set, so no worker may be forked
        return None
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGTERM])  # until every worker is in pids
    try:
        for _ in range(workers):
            task_r, task_w = map(os.fdopen, os.pipe(), ("rb", "wb"))
            result_r, result_w = map(os.fdopen, os.pipe(), ("rb", "wb"))
            files += [task_w, result_r]
            try:
                pid = os.fork()
            except OSError:
                task_r.close()
                result_w.close()
                return None
            if pid == 0:  # a worker: never returns into the caller, and flushes nothing
                try:
                    signal.signal(signal.SIGTERM, signal.SIG_DFL)
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    for file in files:
                        file.close()
                    while (unit := _receive(task_r)) is not None:
                        _send(result_w, compute(unit))
                finally:
                    os._exit(0)
            pids.append(pid)
            task_r.close()
            result_w.close()
            idle.append((task_w, result_r))
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        while True:
            while idle and (unit := next(units, None)) is not None:
                worker = idle.pop()
                try:
                    _send(worker[0], unit)
                except BrokenPipeError:  # the worker has died
                    return None
                busy[worker[1].fileno()] = (worker, unit)
                waiting.register(worker[1], select.POLLIN)
            if not busy:
                return done
            for fd, _ in waiting.poll():
                waiting.unregister(fd)
                worker, unit = busy.pop(fd)
                result = _receive(worker[1])
                if result is None:
                    return None
                done[unit] = result
                idle.append(worker)
    finally:
        signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGTERM])  # no kill after a pid is reaped
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
        for file in files:
            with contextlib.suppress(BrokenPipeError):  # closing flushes a unit a dead worker never took
                file.close()
        signal.signal(signal.SIGTERM, previous)
        if terminated:
            signal.raise_signal(signal.SIGTERM)  # pending until the mask is restored
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _send(file: BinaryIO, value: Any) -> None:
    data = marshal.dumps(value)
    file.write(len(data).to_bytes(8, "little") + data)
    file.flush()


def _receive(file: BinaryIO) -> Any:
    """The next value sent down file, or None once its writer has gone (``read`` returns short only then)."""
    size = int.from_bytes(file.read(8), "little")
    body = file.read(size)
    return marshal.loads(body) if size and len(body) == size else None


def _emit(payload: dict[str, Any], fmt: str) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2) if fmt == "json" else _render(payload, "")[1:])


def _render(value: Any, pad: str) -> str:
    """The text form of value: a space, then the value inline.

    A non-empty dict, or a list holding one, renders instead as a block of
    newline-led lines indented by pad: dict keys sorted, one "-" line per
    list item.
    """
    if isinstance(value, dict) and value:
        return "".join(f"\n{pad}{key}:{_render(value[key], pad + '  ')}" for key in sorted(value))
    if isinstance(value, list):
        items = [_render(item, pad + "  ") for item in value]
        if any(item.startswith("\n") for item in items):
            return "".join(f"\n{pad}-{item}" for item in items)
        return " [" + ", ".join(item[1:] for item in items) + "]"
    return " " + (json.dumps(value) if value is None or isinstance(value, bool) else str(value))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="veropinch",
        description="Exact gap sets, classification, and Frobenius behaviour of pinched degree-d semigroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full report for one spec")
    _add_spec_flags(analyze)
    analyze.add_argument("--char", dest="chars", type=_parse_primes, default=(),
                         help="comma-separated primes, e.g. 2,7")
    analyze.add_argument("--tmax", type=_int_at_least(1), default=6, help="layer bound of the gap listing, the trace and principality")
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.set_defaults(func=cmd_analyze)

    gaps = sub.add_parser("gaps", help="list missing vectors")
    _add_spec_flags(gaps)
    gaps.add_argument("--bound", type=_int_at_least(0), default=None, help="degree bound (default 6d)")
    gaps.add_argument("--format", choices=("text", "json"), default="text")
    gaps.set_defaults(func=cmd_gaps)

    verify = sub.add_parser("verify", help="oracle sweeps; nonzero exit on any discrepancy")
    verify.add_argument("--n", default="2..3", help="range, e.g. 2..4")
    verify.add_argument("--d", default="2..4", help="range, e.g. 2..5 (socle sweep needs d >= 3)")
    verify.add_argument("--tmax", type=_int_at_least(1), default=6,
                        help="layer bound of the frobenius traces and the multipinch gap count, "
                        "and of the discrepancies the gaps sweep lists")
    verify.add_argument("--chars", type=_parse_primes, default=(2, 3, 5))
    verify.add_argument("--gaps", action="store_true", help="closed form vs Apéry boxes, in every degree")
    verify.add_argument("--socle", action="store_true", help="quotient basis and socle suite")
    verify.add_argument("--frobenius", action="store_true", help="trace kills and parity dichotomy")
    verify.add_argument("--multipinch", action="store_true", help="coordinate bound sweep")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(func=cmd_verify)
    return parser


def _add_spec_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True, help="number of variables")
    sub.add_argument("--d", type=int, required=True, help="generator degree")
    sub.add_argument("--pinch", help="single removed vector, e.g. 1,1,1")
    sub.add_argument("--remove", action="append",
                     help="removed vector (repeatable), e.g. --remove 2,2")
    sub.add_argument("--multipinch", action="store_true",
                     help="treat --remove vectors as a multipinch")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceLimitError, RecursionError, MemoryError) as exc:
        # a bare MemoryError carries no message
        print(f"resource limit: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RESOURCE
    except AssertionError as exc:
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
