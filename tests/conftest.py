"""Fixtures shared across test modules."""

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from ricci_fragility import transport


@pytest.fixture
def failing_lp(monkeypatch):
    """Every transport LP reports a solver failure (HiGHS status 4).

    Hop-distance residuals rarely reach the LP, so here residuals with
    three or more distinct distances skip the integer-dual closed form;
    on small tree-like panels the failing LP is then reached in some
    windows only.
    """
    calls = []
    closed_form = transport._integer_dual
    monkeypatch.setattr(transport, "_integer_dual", lambda w, rcaps, ccaps: (
        None if np.unique(w).size > 2 else closed_form(w, rcaps, ccaps)))

    def linprog(*args, **kwargs):
        calls.append(1)
        return OptimizeResult(status=4, message="simulated numerical difficulties", x=None)

    monkeypatch.setattr(transport, "linprog", linprog)
    return calls
