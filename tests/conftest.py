"""Fixtures shared by the test modules."""

import pytest

from veropinch import membership


@pytest.fixture
def built_layers(monkeypatch):
    """The t of every layer built from here on, in order of building."""
    built = []
    check = membership._check_layer

    def recording(spec, t):
        built.append(t)
        check(spec, t)

    monkeypatch.setattr(membership, "_check_layer", recording)
    return built
