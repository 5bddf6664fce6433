"""Fixtures shared by the test modules."""

import pytest

import circreg.homology as homology_mod


@pytest.fixture
def rational_rank_calls(monkeypatch) -> list:
    """The row count of each boundary ranked over Q, in order."""
    calls: list = []
    real = homology_mod._boundary_rank

    def record(smaller, larger, field, pivots):
        if field == homology_mod.RATIONALS:
            calls.append(len(smaller))
        return real(smaller, larger, field, pivots)

    monkeypatch.setattr(homology_mod, "_boundary_rank", record)
    return calls
