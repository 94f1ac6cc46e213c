"""The benchmark's four workloads: inputs drawn from a seed, and the
top-level library calls that process them.

Importing this module imports numpy, scipy and ``ricci_fragility``, so
the set-up time measured around the import covers the library's own
import cost. ``src`` must already be on ``sys.path``.

Every rolling workload samples windows of the default corpus
``regime_switch()`` with the default ``WindowConfig()``. The seed picks
which windows: the eligible window starts are cut into ``calls``
equal-width strata and one short panel is drawn per stratum. Per-window cost varies
by a factor of about three along each phase, so contiguous stretches
would make the run-to-run spread across seeds a measure of which windows
were drawn rather than of speed; stratifying keeps every run's mix of
early and late windows the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.optimize import linprog

from ricci_fragility import (
    PriceMatrix,
    SubsampleConfig,
    WindowConfig,
    indicator_series,
    regime_switch,
    run_bounds_suite,
    subsample_indicator_series,
)
from ricci_fragility.synthetic import CALM_ROWS

#: T=132, xi=0.85, edges mode, edge_weight measures, raw prices.
CONFIG = WindowConfig()
T = CONFIG.T

#: Rows of the default ``regime_switch()`` corpus.
N_DATES = 600

#: One swap scan per window. The local search takes one to eight scans
#: depending on the window, which would swamp the spread across seeds;
#: one scan fixes the work at m(n-m) = 225 scored candidates per window.
SUB_CONFIG = SubsampleConfig(m=5, restarts=0, seed=0, max_iters=1)

BOUNDS_WEIGHTINGS = ("edge_weight", "uniform")


@dataclass(frozen=True)
class Workload:
    """One workload: which library call it makes and on how much input.

    Rolling and subsample workloads make ``calls`` calls, each on a panel
    of ``panel`` windows drawn from window starts ``first..last``
    (inclusive). The bounds workload makes ``calls`` suite runs of
    ``trials`` random instances each, alternating the weighting. Short
    calls keep each one inside a single phase of machine speed, so the
    calibration around it holds.
    """

    name: str
    kind: str
    first: int = 0
    last: int = 0
    calls: int = 0
    panel: int = 0
    trials: int = 0


WORKLOADS = {
    w.name: w for w in (
        Workload("rolling-calm", "rolling", first=0, last=CALM_ROWS - T,
                 calls=20, panel=10),
        Workload("rolling-crisis", "rolling", first=CALM_ROWS, last=N_DATES - T,
                 calls=8, panel=2),
        Workload("subsample", "subsample", first=0, last=N_DATES - T,
                 calls=8, panel=2),
        Workload("bounds", "bounds", calls=8, trials=100),
    )
}


@dataclass(frozen=True)
class Panel:
    """Corpus rows handed to one library call; window ``j`` of the panel
    is corpus window ``start + j``."""

    start: int
    prices: PriceMatrix

    @property
    def windows(self) -> int:
        return self.prices.n_dates - T + 1


def panel_starts(spec: Workload, seed: int) -> list:
    """One panel start per equal-width stratum, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    stop = spec.last - spec.panel + 2  # exclusive bound on panel starts
    edges = np.linspace(spec.first, stop, spec.calls + 1).round().astype(int)
    return [int(rng.integers(a, b)) for a, b in zip(edges, edges[1:])]


def bounds_suites(spec: Workload, seed: int) -> list:
    """``(suite seed, weighting)`` per bounds call; distinct suite seeds,
    so every call draws its own instances."""
    return [(spec.calls * seed + i, BOUNDS_WEIGHTINGS[i % len(BOUNDS_WEIGHTINGS)])
            for i in range(spec.calls)]


def make_inputs(spec: Workload, seed: int):
    """Panels for rolling and subsample workloads; suite seeds and
    weightings for bounds."""
    if spec.kind == "bounds":
        return bounds_suites(spec, seed)
    corpus = regime_switch()
    return [Panel(k, corpus.window(k, k + T + spec.panel - 1))
            for k in panel_starts(spec, seed)]


def warm_up() -> None:
    """Load HiGHS, so that the first timed call does not pay for it."""
    linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], bounds=(0, None), method="highs")


def setup(name: str, seed: int):
    """Everything ``setup_s`` times after the imports: inputs and warm-up."""
    spec = WORKLOADS[name]
    inputs = make_inputs(spec, seed)
    warm_up()
    return spec, inputs


def calls(spec: Workload, inputs) -> list:
    """The workload's top-level public calls, serial, one process: one
    zero-argument callable per panel or bounds suite."""
    if spec.kind == "rolling":
        return [partial(indicator_series, p.prices, CONFIG) for p in inputs]
    if spec.kind == "subsample":
        return [partial(subsample_indicator_series, p.prices, CONFIG, SUB_CONFIG)
                for p in inputs]
    return [partial(run_bounds_suite, spec.trials, s, w) for s, w in inputs]


def items(spec: Workload, inputs, outputs) -> list:
    """Flatten one repetition's outputs, one per call, into one comparable
    record per item; every item of a call that raised (output ``None``)
    becomes ``None``.

    Rolling: ``(window start, date, value)``. Subsample: the same plus the
    chosen subset. Bounds: ``(weighting, label, reports)`` per trial.
    """
    out = []
    if spec.kind == "bounds":
        for result in outputs:
            if result is None:
                out.extend([None] * spec.trials)
                continue
            trials = {}
            for r in result.reports:
                trials.setdefault(r.instance_label, []).append(r)
            out.extend((result.weighting, label, tuple(reports))
                       for label, reports in trials.items())
        return out
    for p, result in zip(inputs, outputs):
        if result is None:
            out.extend([None] * p.windows)
            continue
        series = result if spec.kind == "rolling" else result[0]
        subsets = (None,) * p.windows if spec.kind == "rolling" else result[1]
        for j, (date, value, subset) in enumerate(zip(series.dates, series.values, subsets)):
            row = (p.start + j, date, value)
            out.append(row if subset is None else row + (tuple(subset),))
    return out


def item_count(spec: Workload, inputs) -> int:
    if spec.kind == "bounds":
        return spec.trials * spec.calls
    return sum(p.windows for p in inputs)
