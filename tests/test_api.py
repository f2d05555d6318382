"""The package's public surface: ``__all__`` names exactly what ``__init__`` imports."""

import ast
import pathlib

import veropinch

INIT = pathlib.Path(veropinch.__file__)


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
