"""Fixtures shared by the test modules."""

import pytest

import circreg.homology as homology_mod


@pytest.fixture
def rank_int_calls(monkeypatch) -> list:
    """The row count of each call to the integer elimination, in order."""
    calls: list = []
    real = homology_mod._rank_int
    monkeypatch.setattr(homology_mod, "_rank_int", lambda rows: calls.append(len(rows)) or real(rows))
    return calls
