"""Price-panel loading, validation, screening, and serialisation.

The on-disk format is long-form CSV with header ``date,ticker,close``:
one row per observation, ``YYYY-MM-DD`` dates, strictly positive prices.
Loading pivots the rows into a date x ticker panel with missing cells
marked NaN. Ragged listings (IPOs, delistings, gaps) are simply absent
rows — nothing is imputed here, and downstream correlation code works
pairwise on the overlapping dates.

Screening is deliberately inclusive: every entity with at least one
observation in the requested range is retained by default, and
low-coverage tickers are only flagged. An explicit strict mode drops
them; either way the report records what a strict run would remove.
"""

from __future__ import annotations

import csv
import datetime
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError

CSV_HEADER = ("date", "ticker", "close")


def _parse_date(text: str) -> datetime.date:
    """Parse ``YYYY-MM-DD`` only; ``ValueError`` otherwise.

    Dates are compared as strings downstream, which orders them only in
    this one ISO form (Python 3.11 would also accept ``20200105``).
    """
    day = datetime.date.fromisoformat(text)
    if day.isoformat() != text:
        raise ValueError("expected YYYY-MM-DD")
    return day


def _require_observed(tickers: tuple, present: np.ndarray) -> None:
    """``DataError`` naming every ticker without a present observation."""
    silent = np.flatnonzero(~present.any(axis=0))
    if silent.size:
        raise DataError(f"tickers with no observations: {[tickers[i] for i in silent]}")


@dataclass(frozen=True)
class PriceMatrix:
    """Aligned price panel: rows are dates, columns are tickers.

    ``values`` is a float array with ``NaN`` for missing observations;
    present values are strictly positive, and every ticker and every
    date has at least one present observation (so the long CSV format
    represents the panel losslessly). Dates are strictly increasing
    ``YYYY-MM-DD`` strings and ticker names are unique and non-empty.
    """

    dates: tuple
    tickers: tuple
    values: np.ndarray

    def __post_init__(self):
        dates = tuple(str(d) for d in self.dates)
        tickers = tuple(str(t) for t in self.tickers)
        values = np.asarray(self.values, dtype=float).copy()
        if values.ndim != 2 or values.shape != (len(dates), len(tickers)):
            raise DataError("values shape does not match dates x tickers")
        if len(set(tickers)) != len(tickers):
            raise DataError("duplicate ticker names")
        if any(not t for t in tickers):
            raise DataError("empty ticker name")
        prev = None
        for d in dates:
            try:
                cur = _parse_date(d)
            except ValueError as exc:
                raise DataError(f"bad date {d!r}: {exc}") from exc
            if prev is not None and cur <= prev:
                raise DataError(f"dates not strictly increasing at {d!r}")
            prev = cur
        present = ~np.isnan(values)
        if np.any(values[present] <= 0.0) or np.any(np.isinf(values)):
            raise DataError("prices must be strictly positive and finite")
        _require_observed(tickers, present)
        empty_rows = np.flatnonzero(~present.any(axis=1))
        if empty_rows.size:
            raise DataError(
                f"dates with no observations: {[dates[i] for i in empty_rows]}")
        values.flags.writeable = False
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "tickers", tickers)
        object.__setattr__(self, "values", values)

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    @property
    def n_tickers(self) -> int:
        return len(self.tickers)

    @property
    def prices(self) -> np.ndarray:
        """Alias for ``values`` (read-only date x ticker array)."""
        return self.values

    @cached_property
    def missing(self) -> np.ndarray:
        """Boolean mask, True where an observation is absent."""
        mask = np.isnan(self.values)
        mask.flags.writeable = False
        return mask

    @cached_property
    def coverage(self) -> dict:
        """Ticker -> fraction of rows with a present observation."""
        frac = 1.0 - np.isnan(self.values).mean(axis=0)
        return {t: float(f) for t, f in zip(self.tickers, frac)}

    def window(self, start: int, stop: int) -> "PriceMatrix":
        """Row slice ``[start, stop)`` as a new panel.

        Raises ``DataError`` if some ticker has no observation inside
        the slice (the panel invariant), which rolling callers treat as
        a per-window gap. A row slice of a valid panel keeps its dates,
        tickers and prices valid, so only that check runs again; the
        slice shares this panel's read-only values.
        """
        if not 0 <= start < stop <= self.n_dates:
            raise ConfigError(f"window [{start}, {stop}) out of range")
        _require_observed(self.tickers, ~self.missing[start:stop])
        out = object.__new__(PriceMatrix)
        for name, value in (("dates", self.dates[start:stop]), ("tickers", self.tickers),
                            ("values", self.values[start:stop])):
            object.__setattr__(out, name, value)
        return out

    def select(self, tickers) -> "PriceMatrix":
        """Column subset, keeping panel ticker order."""
        wanted = set(tickers)
        unknown = wanted - set(self.tickers)
        if unknown:
            raise DataError(f"unknown tickers {sorted(unknown)}")
        cols = [i for i, t in enumerate(self.tickers) if t in wanted]
        if len(cols) < 2:
            raise DataError("need at least two tickers")
        return PriceMatrix(dates=self.dates,
                           tickers=tuple(self.tickers[i] for i in cols),
                           values=self.values[:, cols])


def load_price_csv(path) -> PriceMatrix:
    """Read long-form rows ``date,ticker,close`` and pivot to a panel.

    Tickers keep first-appearance order; dates are sorted ascending.
    Raises ``DataError`` with the offending row number for ragged rows,
    bad dates, bad numbers, nonpositive prices, and duplicate
    (date, ticker) keys. I/O failures propagate as ``OSError``.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if tuple(h.strip().lower() for h in header) != CSV_HEADER:
            raise DataError(f"{path}: header must be 'date,ticker,close'")

        observations = {}
        tickers = []
        seen = set()
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataError(f"{path}: row {lineno}: expected 3 cells, got {len(row)}")
            date, ticker, cell = (c.strip() for c in row)
            try:
                _parse_date(date)
            except ValueError:
                raise DataError(f"{path}: row {lineno}: bad date {date!r}") from None
            if not ticker:
                raise DataError(f"{path}: row {lineno}: empty ticker")
            try:
                close = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: row {lineno}: bad number {cell!r} for {ticker}") from None
            if not np.isfinite(close) or close <= 0.0:
                raise DataError(
                    f"{path}: row {lineno}: nonpositive price {close!r} for {ticker}")
            key = (date, ticker)
            if key in observations:
                raise DataError(
                    f"{path}: row {lineno}: duplicate observation for {ticker} on {date}")
            if ticker not in seen:
                seen.add(ticker)
                tickers.append(ticker)
            observations[key] = close

    if not observations:
        raise DataError(f"{path}: no data rows")
    dates = sorted({d for d, _ in observations})
    row_of = {d: i for i, d in enumerate(dates)}
    col_of = {t: j for j, t in enumerate(tickers)}
    values = np.full((len(dates), len(tickers)), np.nan)
    for (date, ticker), close in observations.items():
        values[row_of[date], col_of[ticker]] = close
    try:
        return PriceMatrix(dates=tuple(dates), tickers=tuple(tickers), values=values)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_price_csv(prices: PriceMatrix, path) -> None:
    """Inverse of ``load_price_csv``: one row per present observation,
    grouped by ticker in panel order so a reload reproduces the panel
    exactly (ticker order via first appearance, dates re-sorted)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for j, ticker in enumerate(prices.tickers):
            for i, date in enumerate(prices.dates):
                x = prices.values[i, j]
                if not np.isnan(x):
                    writer.writerow((date, ticker, repr(float(x))))


def screen_entities(prices: PriceMatrix, start: str | None = None,
                    end: str | None = None, min_coverage: float = 0.0,
                    strict: bool = False):
    """Restrict to the dates from ``start`` to ``end`` (inclusive,
    ``YYYY-MM-DD``), keeping every entity observed in them.

    Coverage is measured inside the range. Tickers with zero in-range
    observations are excluded (their correlations are undefined);
    tickers below ``min_coverage`` are flagged but retained unless
    ``strict`` is set, in which case they are dropped. Returns the
    screened panel and a report — one ``{ticker, coverage, action}``
    row per excluded, flagged, or dropped ticker (fully kept tickers
    are not listed, so a clean panel yields an empty report).
    """
    if not 0.0 <= min_coverage <= 1.0:
        raise ConfigError(f"min_coverage {min_coverage} outside [0, 1]")
    for day in (start, end):
        if day is not None:
            try:
                _parse_date(day)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad date {day!r}: {exc}") from exc
    lo, hi = 0, prices.n_dates
    if start is not None:
        lo = next((i for i, d in enumerate(prices.dates) if d >= start), prices.n_dates)
    if end is not None:
        hi = next((i for i, d in enumerate(prices.dates) if d > end), prices.n_dates)
    if lo >= hi:
        raise ConfigError(f"date range [{start!r}, {end!r}] selects no rows")

    sub = prices.values[lo:hi]
    coverage = 1.0 - np.isnan(sub).mean(axis=0)
    report = []
    kept = []
    for j, t in enumerate(prices.tickers):
        cov = float(coverage[j])
        if cov == 0.0:
            report.append({"ticker": t, "coverage": cov, "action": "excluded"})
        elif cov < min_coverage:
            if strict:
                report.append({"ticker": t, "coverage": cov, "action": "dropped"})
            else:
                report.append({"ticker": t, "coverage": cov, "action": "flagged"})
                kept.append(j)
        else:
            kept.append(j)
    if len(kept) < 2:
        raise DataError(f"screening left {len(kept)} tickers; need at least 2")
    screened = PriceMatrix(dates=prices.dates[lo:hi],
                           tickers=tuple(prices.tickers[j] for j in kept),
                           values=sub[:, kept])
    return screened, report
