"""The package's public surface: ``__all__`` names exactly what ``__init__`` imports,
every public name is used outside the tests, the package imports only the standard
library, and the README's example holds."""

import ast
import math
import pathlib
import re
import sys

import veropinch
from veropinch import GapKind, PinchCase, Tristate

INIT = pathlib.Path(veropinch.__file__)
ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from veropinch import *", namespace)
    assert set(veropinch.__all__) <= namespace.keys()


def test_all_lists_every_imported_public_name():
    imported = {
        alias.asname or alias.name
        for node in ast.parse(INIT.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert sorted(veropinch.__all__) == sorted(set(veropinch.__all__))
    assert set(veropinch.__all__) == imported


def test_every_public_name_is_used_outside_the_tests():
    # a use is any line of the package's modules (``__init__`` only re-exports),
    # the README or perfbench, other than the name's own def/class line
    sources = [m for m in INIT.parent.glob("*.py") if m != INIT]
    sources += [ROOT / "README.md", *(ROOT / "perfbench").glob("*.py")]
    lines = [line for path in sources for line in path.read_text().splitlines()]
    unused = [
        name
        for name in veropinch.__all__
        if not any(
            re.search(rf"\b{name}\b", line) and not re.match(rf"\s*(def|class) {name}\b", line)
            for line in lines
        )
    ]
    assert not unused


def _absolute_imports(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_the_package_imports_only_the_standard_library():
    # the runtime has no dependencies: every absolute import in src/veropinch
    # names the package itself or a standard library module
    allowed = {"veropinch", *sys.stdlib_module_names}
    foreign = [
        (path.name, name)
        for path in sorted(INIT.parent.glob("*.py"))
        for name in _absolute_imports(path.read_text())
        if name.partition(".")[0] not in allowed
    ]
    assert foreign == []
    assert list(_absolute_imports("import numpy.linalg\nfrom .x import y")) == ["numpy.linalg"]


# the ROADMAP's count of lines that name a spec's case split (aim 2)
CASE_SPLIT = re.compile(r"PinchCase\.|SpecKind\.|max_entry\(\)|max\(m\)|[nd] [=<>]=? ?[23]\b")


def test_case_split_count_does_not_grow():
    lines = [line for path in INIT.parent.glob("*.py") for line in path.read_text().splitlines()]
    assert sum(1 for line in lines if CASE_SPLIT.search(line)) <= 64


def test_readme_library_example_claims():
    # run the README's python block, keeping each bare expression's value by its source
    block = (ROOT / "README.md").read_text().split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    values = {}
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            values[source] = eval(source, namespace)
        else:
            exec(source, namespace)
    spec = namespace["spec"]
    assert values["is_member((6, 2), spec)"] is True
    assert values["decompose((6, 2), spec).parts"] == ((4, 0), (2, 2))
    assert values["spec.case"] is PinchCase.LINE
    family = values["gap_set_closed_form(spec)"]
    assert (family.kind, family.axes) == (GapKind.LINE, (0, 1))
    assert family.boxes == (((3, 1), (math.inf, 0)),)
    assert values["gap_set(spec).materialize(12)"] == ((3, 1), (7, 1), (11, 1))
    assert values["gap_set(spec).size(12)"] == 3 and veropinch.gap_set(spec).size() == math.inf
    assert values["verify_gap_equivalence(spec, 6)"] == (True, ())
    assert values["classify(spec).gorenstein"] is Tristate.YES
    assert veropinch.classify(spec).a_invariant == 0
    fte = values["f_singularity(spec, 3).fte"]
    assert (fte.kind, fte.value) == ("exact", 1)
