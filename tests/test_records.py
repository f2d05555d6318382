"""The records are ``typing.NamedTuple``s that act as frozen dataclasses would.

Each record is checked against a ``dataclasses.make_dataclass(...,
frozen=True)`` twin with the same fields and defaults, for repr, equality,
hash, immutability and construction, on instances that real calls return.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import math
import os
import pathlib
import subprocess
import sys

import pytest

from veropinch import (
    ClassificationReport,
    Decomposition,
    FrobeniusTrace,
    FSingularityReport,
    Fte,
    GapSet,
    InvalidSpecError,
    QuotientBasis,
    SemigroupSpec,
    TraceStep,
    classify,
    decompose,
    f_singularity,
    frobenius_on_cokernel,
    gap_set_closed_form,
    pinch_spec,
    quotient_basis,
    veronese_generators,
)

charp, classify_module, gapset, lattice, membership = (
    importlib.import_module(f"veropinch.{name}")
    for name in ("charp", "classify", "gapset", "lattice", "membership")
)

RECORDS = (
    ClassificationReport,
    Decomposition,
    FrobeniusTrace,
    FSingularityReport,
    Fte,
    GapSet,
    QuotientBasis,
    SemigroupSpec,
    TraceStep,
)

EV = lattice.ExponentVector((0, 0))
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _fields(cls: type) -> list:
    """name, or (name, type, default), per field of the record."""
    defaults = cls._field_defaults
    return [
        (name, object, dataclasses.field(default=defaults[name])) if name in defaults else name
        for name in cls._fields
    ]


TWINS = {
    cls: dataclasses.make_dataclass(cls.__qualname__, _fields(cls), frozen=True) for cls in RECORDS
}


def _values(record) -> dict:
    """The record's fields by name, in declaration order."""
    return {name: getattr(record, name) for name in record._fields}


def _twin(record):
    return TWINS[type(record)](**_values(record))


def _instances() -> list:
    """Records returned by real calls, at least two of every class."""
    line = pinch_spec(2, 4, [(3, 1)])
    odd = pinch_spec(3, 2, [(1, 1, 0)])
    saturated = pinch_spec(2, 3, [(3, 0)])
    multi = pinch_spec(4, 3, [(1, 1, 1, 0), (1, 1, 0, 1)])
    specs = [line, odd, saturated, multi, pinch_spec(3, 3, []), pinch_spec(3, 3, [(1, 1, 1)])]
    out: list = list(specs)
    out += [classify(s) for s in specs]
    for spec, p in itertools.product(specs, (2, 3)):
        report = f_singularity(spec, p)
        out += [report, report.fte]
    out += [gap_set_closed_form(s) for s in (line, odd, saturated)]
    for spec, p in itertools.product((line, odd), (2, 5)):
        trace = frobenius_on_cokernel(spec, p, 12)
        out += [trace, *trace.action]
    out += [quotient_basis(line), quotient_basis(pinch_spec(2, 3, [(2, 1)]))]
    out += [decompose((4, 4), line), decompose((6, 2, 0), odd), decompose((0, 0), line)]
    return out


INSTANCES = _instances()
# the first instance of each record class: adding or removing instances
# leaves this sample, and the case names it gives, unchanged
FIRST_OF_EACH = [
    r for i, r in enumerate(INSTANCES) if all(type(q) is not type(r) for q in INSTANCES[:i])
]


def test_every_record_is_covered():
    found = {
        obj
        for module in (lattice, membership, gapset, classify_module, charp)
        for obj in vars(module).values()
        if isinstance(obj, type) and hasattr(obj, "_fields") and obj.__module__ == module.__name__
    }
    assert found == set(RECORDS)
    assert {type(r) for r in INSTANCES} == set(RECORDS)


@pytest.mark.parametrize("record", INSTANCES, ids=lambda r: type(r).__name__)
def test_repr_eq_hash_match_the_dataclass_twin(record):
    twin = _twin(record)
    assert repr(record) == repr(twin)
    values = _values(record)
    assert hash(record) == hash(twin) == hash(tuple(values.values()))
    rebuilt = type(record)(**values)
    assert rebuilt == record and not (rebuilt != record)
    assert record.__eq__(twin) is NotImplemented and record != twin
    assert record.__match_args__ == twin.__match_args__


def test_eq_agrees_with_the_twin_on_every_pair():
    for a, b in itertools.product(INSTANCES, repeat=2):
        if type(a) is type(b):
            assert (a == b) == (_twin(a) == _twin(b)), (a, b)
        else:
            assert a != b


@pytest.mark.parametrize("record", FIRST_OF_EACH, ids=lambda r: type(r).__name__)
def test_assignment_and_deletion_raise(record):
    name = TWINS[type(record)].__match_args__[0]
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        setattr(record, "extra", 1)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is value


def test_post_init_still_validates():
    parts = veronese_generators(2, 2)[:2]
    with pytest.raises(InvalidSpecError):
        Decomposition(parts=parts, target=lattice.ExponentVector((4, 1)))
    with pytest.raises(InvalidSpecError):
        Decomposition(parts, lattice.ExponentVector((0, 3)))


def test_construction_by_position_keyword_and_default():
    gaps = GapSet(2, 3)
    assert gaps == GapSet(n=2, d=3, boxes=()) and gaps.kind is gapset.GapKind.FINITE
    line = (((2, 1), (math.inf, 0)),)
    assert GapSet(2, 3, line).axes == (0, 1) and GapSet(2, 3, line).kind is gapset.GapKind.LINE
    report = FSingularityReport(charp.FType.REGULAR, "yes", 0, Fte.exact(0, "r"), 2)
    assert report.rationale == ""


@pytest.mark.parametrize(
    "build",
    [
        lambda: TraceStep(),
        lambda: TraceStep((1, 2), (2, 4), True, False),
        lambda: TraceStep((1, 2), (2, 4), True, vector=(1, 2)),
        lambda: TraceStep(vector=(1, 2), image=(2, 4), alive=False),
        lambda: TraceStep((1, 2), (2, 4), killed=True, q=2),
        lambda: TraceStep(vector=(1, 2), image=(2, 4)),
        lambda: GapSet(2),
        lambda: GapSet(2, 3, (), None),
        lambda: QuotientBasis(basis=(), socle=(), spec=None, extra=1),
        lambda: Decomposition(),
        lambda: Decomposition((), EV, None),
        lambda: Decomposition(parts=(), goal=EV),
    ],
)
def test_bad_construction_raises_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    probe = "import sys, veropinch.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
