"""Golden behaviour lock: sha256 digests of CLI output and of report reprs.

Every case is a ``veropinch`` command line run in process through
``cli.main`` (it must exit 0; the digest is of its stdout), or the ``repr``
of a library report the CLI cannot reach (full-slice ``classify`` and
``f_singularity``).  A change that keeps behaviour keeps every digest; a
change that alters an answer on purpose re-records the file and says so.

    PYTHONPATH=src python tests/test_golden.py   # rewrite tests/golden_digests.json

The rewrite first prints each digest it adds, changes or drops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
from typing import Callable, Iterator

import pytest

from veropinch import classify, f_singularity, pinch_spec, veronese_generators
from veropinch.cli import EXIT_OK, _removal_sets, main

GOLDEN = pathlib.Path(__file__).with_name("golden_digests.json")

NS = range(2, 5)
DS = range(2, 6)
CHARS = (2, 3, 5)

README_EXAMPLES = (
    "analyze --n 2 --d 4 --pinch 3,1 --char 3",
    "gaps --n 2 --d 2 --pinch 1,1 --bound 8",
    "analyze --n 3 --d 3 --remove 1,1,1 --multipinch",
    "verify --n 2..4 --d 2..5 --tmax 6 --format json",
    "verify --socle --d 3..8 --format json",
    "verify --frobenius --n 2..3 --d 2..4 --chars 2,3,5 --format json",
)

# text output: analyze for one spec of each PinchCase (LINE, INTERIOR,
# ODD_ODD at n = 3 and 4, SATURATED, REGULAR_PLANE, MULTI), gaps for each
# gap family and for the full slice
TEXT_EXAMPLES = (
    "analyze --n 2 --d 3 --pinch 2,1 --char 2,3",
    "analyze --n 3 --d 3 --pinch 1,1,1 --char 2,3",
    "analyze --n 3 --d 2 --pinch 1,1,0 --char 2,3",
    "analyze --n 4 --d 2 --pinch 1,1,0,0 --char 2,3",
    "analyze --n 2 --d 3 --pinch 3,0 --char 2,3",
    "analyze --n 2 --d 2 --pinch 1,1 --char 2,3",
    "analyze --n 3 --d 4 --remove 1,1,2 --remove 2,1,1 --multipinch --char 2,3",
    "gaps --n 2 --d 3 --pinch 2,1",
    "gaps --n 3 --d 2 --pinch 1,1,0",
    "gaps --n 3 --d 3 --pinch 1,1,1",
    "gaps --n 2 --d 3 --pinch 3,0",
    "gaps --n 3 --d 2",
)

MULTIPINCH_GAPS = (
    "gaps --n 3 --d 4 --remove 1,1,2 --remove 1,2,1 --remove 2,1,1 --multipinch --format json",
    "gaps --n 3 --d 4 --remove 1,1,2 --remove 1,2,1 --remove 2,1,1 --multipinch --bound 3",
)


def _csv(v) -> str:
    return ",".join(str(c) for c in v)


def _run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == EXIT_OK, f"veropinch {' '.join(argv)} exited {code}"
    return out.getvalue()


def _cli(command: str) -> tuple[str, Callable[[], str]]:
    return f"veropinch {command}", lambda: _run_cli(command.split())


def _cli_cases() -> Iterator[tuple[str, str]]:
    """(group, command line) for every locked CLI invocation."""
    for n in NS:
        for d in DS:
            base = f"--n {n} --d {d}"
            yield "gaps", f"gaps {base} --format json"
            for m in veronese_generators(n, d):
                pinch = f"{base} --pinch {_csv(m)}"
                yield "analyze", f"analyze {pinch} --char {_csv(CHARS)} --format json"
                yield "gaps", f"gaps {pinch} --format json"
    for n, d in ((3, 3), (3, 4)):
        small = [m for m in veronese_generators(n, d) if max(m) < d - 1]
        for removal in _removal_sets(small):
            removes = " ".join(f"--remove {_csv(m)}" for m in removal)
            yield "multipinch", (
                f"analyze --n {n} --d {d} {removes} --multipinch "
                f"--char {_csv(CHARS)} --format json"
            )
    yield "multipinch", (
        f"analyze --n 4 --d 3 --remove 1,1,1,0 --multipinch "
        f"--char {_csv(CHARS)} --format json"
    )
    yield "verify", "verify --format json"
    yield "verify", "verify"
    for command in TEXT_EXAMPLES:
        yield command.split()[0], command
    for command in MULTIPINCH_GAPS:
        yield "multipinch", command
    for command in README_EXAMPLES:
        yield "readme", command


def golden_cases() -> dict[str, dict[str, Callable[[], str]]]:
    """group -> case name -> function returning the text whose digest is locked."""
    groups: dict[str, dict[str, Callable[[], str]]] = {}
    for group, command in _cli_cases():
        name, run = _cli(command)
        groups.setdefault(group, {})[name] = run
    library = groups.setdefault("library", {})
    for n in NS:
        for d in DS:
            spec = pinch_spec(n, d, [])
            library[f"classify(pinch_spec({n}, {d}, []))"] = (
                lambda spec=spec: repr(classify(spec))
            )
            for p in CHARS:
                library[f"f_singularity(pinch_spec({n}, {d}, []), {p})"] = (
                    lambda spec=spec, p=p: repr(f_singularity(spec, p))
                )
    return groups


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _record() -> dict[str, dict[str, str]]:
    return {
        group: {name: _digest(run()) for name, run in cases.items()}
        for group, cases in golden_cases().items()
    }


@pytest.mark.parametrize("group", ["analyze", "gaps", "multipinch", "verify", "readme", "library"])
def test_golden_digests(group):
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))[group]
    cases = golden_cases()[group]
    assert sorted(cases) == sorted(recorded)
    changed = [name for name, run in cases.items() if _digest(run()) != recorded[name]]
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:3]}"


def _changes(old: dict[str, dict[str, str]], new: dict[str, dict[str, str]]) -> Iterator[str]:
    """One line per digest that ``new`` adds, changes or drops against ``old``."""
    for group in sorted(old.keys() | new.keys()):
        before, after = old.get(group, {}), new.get(group, {})
        for name in sorted(before.keys() | after.keys()):
            if name not in before:
                yield f"added {group}: {name}"
            elif name not in after:
                yield f"dropped {group}: {name}"
            elif before[name] != after[name]:
                yield f"changed {group}: {name}"


if __name__ == "__main__":
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    digests = _record()
    for line in _changes(recorded, digests):
        print(line)
    GOLDEN.write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n", encoding="utf-8")
