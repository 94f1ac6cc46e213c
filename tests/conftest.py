"""Fixtures shared across test modules."""

import pytest
from scipy.optimize import OptimizeResult

from ricci_fragility import transport


@pytest.fixture
def failing_lp(monkeypatch):
    """Every transport LP reports a solver failure (HiGHS status 4)."""
    calls = []

    def linprog(*args, **kwargs):
        calls.append(1)
        return OptimizeResult(status=4, message="simulated numerical difficulties", x=None)

    monkeypatch.setattr(transport, "linprog", linprog)
    return calls
