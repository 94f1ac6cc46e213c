"""Digests of the indicator's values and of the bounds suites' reports.

Prints one sha256 per run, over the raw float bits of its output, so that two
checkouts compute bit-identical values exactly when they print the same lines:

- ``indicator_series(regime_switch(), WindowConfig(xi=..., weighting=...))``
  at xi 0.85, 0.9 and 1.0 and both weightings (all 469 windows of the
  default corpus), hashing the series' dates, the values' raw bits and the
  gap notes; xi 1.0 keeps the MST alone, whose windows have the largest
  diameters, where hop counts clipped at 3 differ most from true ones;
- the same series on rows 200..480 of ``regime_switch()`` (150 windows,
  calm and crisis) with a seeded 5% of cells missing, under ``log_return``
  with each distance transform (``sqrt``, ``power:0.5``, ``power:1.5``,
  ``log1p``) and under ``raw_price`` with ``sqrt``: the masked,
  pairwise-complete correlation path, which the complete corpus never
  reaches (numpy computes ``** 0.5`` as a square root, so ``power:0.5``
  prints the ``sqrt`` digest, and ``power:1.5`` is the power branch's own);
- pairs mode on rows 300..480 of ``regime_switch()`` (50 windows across the
  regime switch) at xi 0.85 under both weightings: every node pair of a
  window, whose pooled residuals vary most in shape; and the same on rows
  0..150 (20 calm windows, diameters 18 to 24), the deepest graphs whose
  full hop counts the indicator takes;
- ``run_bounds_suite(100, s, WEIGHTINGS[s % 2])`` for suite seeds 0..7
  (the benchmark's ``bounds`` suites at its seed 0), hashing each report's
  name, pair, label and flag and the raw bits of its lhs, rhs and slack;
- ``subsample_indicator_series`` on the same rows 300..480 with
  ``SubsampleConfig(m=5, restarts=2, max_iters=3)`` under both weightings
  (complete window graphs: closed-form scans, engine-scored subsets),
  hashing the series as above and the chosen subsets; and the same under
  ``edge_weight`` with ``objective="maximize"``, where the swap pick walks
  the negated scores' running minima;
- ``extremal_subgraph(window_graph(...), SubsampleConfig(m=5, restarts=5))``
  on the windows starting at rows 100, 300 and 420 (filtered graphs: every
  swap scan goes through the engine), hashing the nodes and the raw bits of
  the average;
- ``average_curvature(build_complete_graph(...))`` of the windows starting
  at rows 100 and 420 in both averaging modes under both weightings, and
  ``exhaustive_extremum`` with m = 4 under both objectives on the complete
  graph of the first 8 assets of the window at row 300: stacks whose
  off-diagonal hop counts are all 1, which the engine prices in closed
  form, hashing the per-pair values' raw bits (or the nodes and the value).

Run from the repository root on each checkout and compare the output:

    PYTHONPATH=src python3 scripts/value_digest.py
"""

import argparse
import hashlib
import struct

import numpy as np

from ricci_fragility import (
    DistanceTransform,
    PriceMatrix,
    SubsampleConfig,
    WindowConfig,
    average_curvature,
    build_complete_graph,
    correlation_matrix,
    distance_from_correlation,
    exhaustive_extremum,
    extremal_subgraph,
    indicator_series,
    regime_switch,
    run_bounds_suite,
    subsample_indicator_series,
    window_graph,
)
from ricci_fragility.transport import WEIGHTINGS


def masked(prices) -> PriceMatrix:
    """Rows 200..480 of ``prices`` with 5% of their cells missing (seed 0)."""
    part = prices.window(200, 481)
    values = part.values.copy()
    values[np.random.default_rng(0).random(values.shape) < 0.05] = np.nan
    return PriceMatrix(dates=part.dates, tickers=part.tickers, values=values)


def complete_graph(window):
    """The complete correlation-distance graph of ``window``."""
    rho, _ = correlation_matrix(window)
    return build_complete_graph(distance_from_correlation(rho, DistanceTransform()), rho,
                                nodes=window.tickers)


def series_digest(series) -> str:
    digest = hashlib.sha256()
    digest.update(repr(series.dates).encode())
    digest.update(np.asarray(series.values, dtype="<f8").tobytes())
    digest.update(repr(series.notes).encode())
    return digest.hexdigest()


def reports_digest(reports) -> str:
    digest = hashlib.sha256()
    for r in reports:
        digest.update(repr((r.bound_name, r.pair, r.instance_label, r.satisfied)).encode())
        digest.update(struct.pack("<3d", r.lhs, r.rhs, r.slack))
    return digest.hexdigest()


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()

    prices = regime_switch()
    for xi in (0.85, 0.9, 1.0):
        for weighting in WEIGHTINGS:
            series = indicator_series(prices, WindowConfig(xi=xi, weighting=weighting))
            print(f"indicator xi={xi:g} weighting={weighting} windows={len(series.values)} "
                  f"gaps={series.gap_count()} sha256={series_digest(series)}")
    for (start, stop), rows in (((300, 481), ""), ((0, 151), " rows=0..150")):
        for weighting in WEIGHTINGS:
            series = indicator_series(prices.window(start, stop), WindowConfig(
                weighting=weighting, averaging_mode="pairs"))
            print(f"pairs{rows} xi=0.85 weighting={weighting} windows={len(series.values)} "
                  f"gaps={series.gap_count()} sha256={series_digest(series)}")
    holes = masked(prices)
    for input_mode, distance in (("log_return", "sqrt"), ("log_return", "power:0.5"),
                                 ("log_return", "power:1.5"), ("log_return", "log1p"),
                                 ("raw_price", "sqrt")):
        series = indicator_series(holes, WindowConfig(
            transform=DistanceTransform.parse(distance), input_mode=input_mode))
        print(f"masked input={input_mode} distance={distance} windows={len(series.values)} "
              f"gaps={series.gap_count()} sha256={series_digest(series)}")
    reports = []
    for s in range(8):
        reports += run_bounds_suite(100, s, WEIGHTINGS[s % 2]).reports
    print(f"bounds suites=8 reports={len(reports)} sha256={reports_digest(reports)}")
    searches = [(w, "minimize") for w in WEIGHTINGS] + [("edge_weight", "maximize")]
    for weighting, objective in searches:
        series, subsets = subsample_indicator_series(
            prices.window(300, 481), WindowConfig(weighting=weighting),
            SubsampleConfig(m=5, objective=objective, restarts=2, max_iters=3))
        tag = "" if objective == "minimize" else f" objective={objective}"
        print(f"subsample m=5 weighting={weighting}{tag} windows={len(series.values)} "
              f"gaps={series.gap_count()} sha256={series_digest(series)} "
              f"subsets={hashlib.sha256(repr(subsets).encode()).hexdigest()}")
    for k in (100, 300, 420):
        config = WindowConfig()
        nodes, report = extremal_subgraph(window_graph(prices.window(k, k + config.T), config),
                                          SubsampleConfig(m=5, restarts=5))
        digest = hashlib.sha256(repr(nodes).encode() + struct.pack("<d", report.average))
        print(f"extremal window={k} m=5 nodes={','.join(nodes)} sha256={digest.hexdigest()}")
    for k in (100, 420):
        graph = complete_graph(prices.window(k, k + WindowConfig().T))
        for mode in ("edges", "pairs"):
            for weighting in WEIGHTINGS:
                kappa = average_curvature(graph, mode=mode, weighting=weighting).per_pair
                digest = hashlib.sha256(np.array(list(kappa.values()), dtype="<f8").tobytes())
                print(f"complete window={k} mode={mode} weighting={weighting} "
                      f"pairs={len(kappa)} sha256={digest.hexdigest()}")
    window = prices.window(300, 300 + WindowConfig().T)
    graph = complete_graph(PriceMatrix(dates=window.dates, tickers=window.tickers[:8],
                                       values=window.values[:, :8]))
    for objective in ("minimize", "maximize"):
        nodes, value = exhaustive_extremum(graph, 4, objective)
        digest = hashlib.sha256(repr(nodes).encode() + struct.pack("<d", value))
        print(f"exhaustive window=300 assets=8 m=4 objective={objective} "
              f"nodes={','.join(nodes)} sha256={digest.hexdigest()}")


if __name__ == "__main__":
    main()
