"""Fixtures shared across test modules."""

import numpy as np
import pytest
import scipy.optimize
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
    closed_form = transport._integer_duals

    def integer_duals(gaps, rcaps, ccaps, cols):
        out = closed_form(gaps, rcaps, ccaps, cols)
        out[[np.unique(w[r > 0][:, c > 0]).size > 2
             for w, r, c in zip(gaps, rcaps, ccaps)]] = np.nan
        return out

    monkeypatch.setattr(transport, "_integer_duals", integer_duals)

    def linprog(*args, **kwargs):
        calls.append(1)
        return OptimizeResult(status=4, message="simulated numerical difficulties", x=None)

    monkeypatch.setattr(scipy.optimize, "linprog", linprog)
    return calls
