"""Series diagnostics: autocorrelation with white-noise bands, and
elasticity sweeps of the rolling indicator over xi and T.

The autocorrelation estimator is the standard biased one (lagged
deviation products over the total sum of squared deviations), which is
what conventional ACF plots show. Gaps are never imputed: a lagged
product enters the numerator only when both endpoints are present, and
the white-noise band is widened by using the count of present
observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .errors import ConfigError, DataError
from .indicator import IndicatorSeries, WindowConfig, _sweep_label, indicator_series
from .ingestion import PriceMatrix


@dataclass(frozen=True)
class AcfResult:
    """Sample autocorrelations at lags 0..max_lag plus a symmetric
    white-noise confidence band of half-width ``band``."""

    lags: tuple
    acf: tuple
    band: float
    n_effective: int

    def __post_init__(self):
        lags = tuple(int(k) for k in self.lags)
        acf = tuple(float(a) for a in self.acf)
        if len(lags) != len(acf) or not lags or lags[0] != 0:
            raise DataError("lags and acf must align and start at lag 0")
        if acf[0] != 1.0:
            raise DataError("acf at lag 0 must be 1")
        if any(abs(a) > 1.0 + 1e-9 for a in acf):
            raise DataError("autocorrelations must lie in [-1, 1]")
        if not (self.band > 0.0) or self.n_effective < 1:
            raise DataError("band must be positive and n_effective >= 1")
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "acf", acf)

    def outside_band_fraction(self, min_lag: int = 1) -> float:
        """Fraction of lags >= ``min_lag`` with |acf| beyond the band."""
        tail = [a for k, a in zip(self.lags, self.acf) if k >= min_lag]
        if not tail:
            raise ConfigError(f"no lags >= {min_lag}")
        return sum(1 for a in tail if abs(a) > self.band) / len(tail)


def autocorrelation(series, max_lag: int, confidence: float = 0.95) -> AcfResult:
    """Biased sample ACF of a possibly gappy series.

    ``series`` may be any sequence of floats with NaN marking gaps (an
    ``IndicatorSeries`` works via its ``values``). Requires more points
    than ``max_lag`` and a non-constant series.
    """
    if isinstance(series, IndicatorSeries):
        series = series.values
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise DataError("series must be one-dimensional")
    if not isinstance(max_lag, int) or max_lag < 1:
        raise ConfigError(f"max_lag must be an integer >= 1, got {max_lag!r}")
    if len(x) <= max_lag:
        raise ConfigError(
            f"series has {len(x)} points; need more than max_lag={max_lag}")
    if not 0.0 < confidence < 1.0:
        raise ConfigError(f"confidence {confidence} outside (0, 1)")

    present = np.isfinite(x)
    n_eff = int(present.sum())
    if n_eff < 2:
        raise DataError("series has fewer than two usable points")
    mean = float(x[present].mean())
    dev = np.where(present, x - mean, 0.0)
    denom = float(dev @ dev)
    scale = float(np.abs(x[present]).max()) or 1.0
    if denom <= (1e-14 * scale) ** 2 * n_eff:
        raise DataError("constant series has no autocorrelation")

    acf = [1.0]
    for k in range(1, max_lag + 1):
        acf.append(float(dev[:-k] @ dev[k:]) / denom)
    z = NormalDist().inv_cdf((1.0 + confidence) / 2.0)
    return AcfResult(lags=tuple(range(max_lag + 1)), acf=tuple(acf),
                     band=z / math.sqrt(n_eff), n_effective=n_eff)


def write_acf_csv(result: AcfResult, path) -> None:
    """Rows of ``lag,acf,band`` (the band is constant, written per row)."""
    with open(path, "w", newline="") as fh:
        fh.write("lag,acf,band\n")
        for k, a in zip(result.lags, result.acf):
            fh.write(f"{k},{a!r},{result.band!r}\n")


def _sweep_configs(base_config: WindowConfig, parameter: str, values: list) -> dict:
    """Each grid value's `WindowConfig`, keyed by value in grid order, all
    built before any series runs. Values that share a key or a column
    label (`_sweep_label`) are duplicates."""
    if not values:
        raise ConfigError(f"{parameter} grid must be nonempty")
    configs = {v: replace(base_config, **{parameter: v}) for v in values}
    labels = [_sweep_label(parameter, v) for v in values]
    if len(configs) < len(values) or len(set(labels)) < len(values):
        raise ConfigError(f"duplicate {parameter} values in sweep: {', '.join(labels)}")
    return configs


def xi_sweep(prices: PriceMatrix, base_config: WindowConfig, xi_values,
             jobs: int = 1) -> dict:
    """One indicator series per threshold, everything else fixed.

    All series share the same window grid, so their date vectors are
    identical and the result can be written as one aligned table.
    """
    configs = _sweep_configs(base_config, "xi", [float(xi) for xi in xi_values])
    return {xi: indicator_series(prices, config, jobs=jobs) for xi, config in configs.items()}


def t_sweep(prices: PriceMatrix, base_config: WindowConfig, t_values,
            jobs: int = 1) -> dict:
    """One indicator series per window length, aligned to a common grid.

    Longer windows start later, so every series is truncated to the
    dates the longest window can reach; gap notes for truncated dates
    are dropped with them.
    """
    configs = _sweep_configs(base_config, "T", list(t_values))
    for T in configs:
        if T + 1 > prices.n_dates:
            raise ConfigError(
                f"T={T} needs at least {T + 1} rows; panel has {prices.n_dates}")

    cutoff = prices.dates[max(configs) - 1]
    out = {}
    for T, config in configs.items():
        series = indicator_series(prices, config, jobs=jobs)
        offset = series.dates.index(cutoff)
        out[T] = IndicatorSeries(
            dates=series.dates[offset:],
            values=series.values[offset:],
            config=series.config,
            notes=tuple(n for n in series.notes if n[:10] >= cutoff),
        )
    return out
