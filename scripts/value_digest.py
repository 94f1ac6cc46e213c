"""Digests of the indicator's values and of the bounds suites' reports.

Prints one sha256 per run, over the raw float bits of its output, so that two
checkouts compute bit-identical values exactly when they print the same lines:

- ``indicator_series(regime_switch(), WindowConfig(xi=..., weighting=...))``
  at xi 0.85 and 0.9 and both weightings (all 469 windows of the default
  corpus), hashing the series' dates, the values' raw bits and the gap notes;
- ``run_bounds_suite(100, s, WEIGHTINGS[s % 2])`` for suite seeds 0..7
  (the benchmark's ``bounds`` suites at its seed 0), hashing each report's
  name, pair, label and flag and the raw bits of its lhs, rhs and slack.

Run from the repository root on each checkout and compare the output:

    PYTHONPATH=src python3 scripts/value_digest.py
"""

import argparse
import hashlib
import struct

import numpy as np

from ricci_fragility import WindowConfig, indicator_series, regime_switch, run_bounds_suite
from ricci_fragility.transport import WEIGHTINGS


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
    for xi in (0.85, 0.9):
        for weighting in WEIGHTINGS:
            series = indicator_series(prices, WindowConfig(xi=xi, weighting=weighting))
            print(f"indicator xi={xi:g} weighting={weighting} windows={len(series.values)} "
                  f"gaps={series.gap_count()} sha256={series_digest(series)}")
    reports = []
    for s in range(8):
        reports += run_bounds_suite(100, s, WEIGHTINGS[s % 2]).reports
    print(f"bounds suites=8 reports={len(reports)} sha256={reports_digest(reports)}")


if __name__ == "__main__":
    main()
