"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def replace_reducer(monkeypatch):
    """``replace_reducer(real, mutated)`` puts ``mutated`` in every row of
    ``scores._RECIPES`` that names the statistics reducer ``real``, for the
    test only: the rows hold the reducers themselves, so patching the module
    name would miss them (the Wishart rows read their model's full reducer
    through the table too)."""
    import minscore.scores as scores

    def replace(real, mutated):
        for key, row in scores._RECIPES.items():
            if row[0] is real:
                monkeypatch.setitem(scores._RECIPES, key, (mutated, *row[1:]))

    return replace
