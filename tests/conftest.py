import numpy as np
import pytest

from l0control import fem


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def solve_calls(monkeypatch):
    """A list that grows by one entry per PDE solve performed (fem.AssembledPDE.solve)."""
    calls = []
    solve = fem.AssembledPDE.solve

    def counted(self, rhs):
        calls.append(None)
        return solve(self, rhs)

    monkeypatch.setattr(fem.AssembledPDE, "solve", counted)
    return calls
