"""Tests for autocorrelation diagnostics and parameter sweeps."""

import math
from statistics import NormalDist

import numpy as np
import pytest

from ricci_fragility import diagnostics
from ricci_fragility.diagnostics import (
    AcfResult,
    autocorrelation,
    t_sweep,
    write_acf_csv,
    xi_sweep,
)
from ricci_fragility.errors import ConfigError, DataError
from ricci_fragility.indicator import IndicatorSeries, WindowConfig, indicator_series
from ricci_fragility.synthetic import comoving, iid


class TestAcfResult:
    def test_validation(self):
        with pytest.raises(DataError):
            AcfResult(lags=(0, 1), acf=(0.9, 0.1), band=0.1, n_effective=10)
        with pytest.raises(DataError):
            AcfResult(lags=(1, 2), acf=(1.0, 0.1), band=0.1, n_effective=10)
        with pytest.raises(DataError):
            AcfResult(lags=(0, 1), acf=(1.0, 1.5), band=0.1, n_effective=10)
        with pytest.raises(DataError):
            AcfResult(lags=(0,), acf=(1.0,), band=0.0, n_effective=10)

    def test_outside_band_fraction(self):
        r = AcfResult(lags=(0, 1, 2, 3), acf=(1.0, 0.5, 0.05, -0.3),
                      band=0.2, n_effective=25)
        assert r.outside_band_fraction() == pytest.approx(2 / 3)
        assert r.outside_band_fraction(min_lag=2) == pytest.approx(1 / 2)
        with pytest.raises(ConfigError):
            r.outside_band_fraction(min_lag=9)


class TestAutocorrelation:
    def test_lag_zero_exactly_one(self):
        rng = np.random.default_rng(0)
        r = autocorrelation(rng.standard_normal(50), max_lag=5)
        assert r.acf[0] == 1.0
        assert r.lags == (0, 1, 2, 3, 4, 5)

    def test_white_noise_mostly_inside_band(self):
        rng = np.random.default_rng(42)
        r = autocorrelation(rng.standard_normal(2000), max_lag=40)
        assert r.band == pytest.approx(1.959964 / math.sqrt(2000), abs=1e-6)
        assert r.outside_band_fraction() <= 0.10

    def test_ar1_matches_analytic_decay(self):
        rng = np.random.default_rng(7)
        phi, n = 0.9, 5000
        x = np.empty(n)
        x[0] = rng.standard_normal()
        for t in range(1, n):
            x[t] = phi * x[t - 1] + rng.standard_normal()
        r = autocorrelation(x, max_lag=5)
        for k in range(1, 6):
            assert r.acf[k] == pytest.approx(phi ** k, abs=0.1)

    def test_band_formula_and_confidence(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(400)
        r95 = autocorrelation(x, max_lag=3)
        r99 = autocorrelation(x, max_lag=3, confidence=0.99)
        assert r95.band == pytest.approx(
            NormalDist().inv_cdf(0.975) / math.sqrt(400), abs=1e-12)
        assert r99.band > r95.band
        assert r95.n_effective == 400

    def test_gaps_dropped_pairwise(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(120)
        gappy = x.copy()
        gappy[10:20] = np.nan
        r = autocorrelation(gappy, max_lag=4)
        assert r.n_effective == 110
        assert r.band > autocorrelation(x, max_lag=4).band
        assert all(abs(a) <= 1.0 for a in r.acf)

    def test_accepts_indicator_series(self):
        series = IndicatorSeries(
            dates=tuple(f"2020-01-{d:02d}" for d in range(1, 11)),
            values=(0.1, 0.5, -0.2, 0.4, 0.0, 0.3, -0.1, 0.2, 0.6, -0.4),
            config=WindowConfig(T=5, xi=0.5),
        )
        r = autocorrelation(series, max_lag=2)
        assert len(r.acf) == 3

    def test_errors(self):
        with pytest.raises(DataError):
            autocorrelation(np.full(50, 3.25), max_lag=4)  # constant
        with pytest.raises(ConfigError):
            autocorrelation(np.arange(10.0), max_lag=10)  # too short
        with pytest.raises(ConfigError):
            autocorrelation(np.arange(10.0), max_lag=0)
        with pytest.raises(ConfigError):
            autocorrelation(np.arange(10.0), max_lag=2, confidence=1.0)
        with pytest.raises(DataError):
            autocorrelation(np.ones((4, 4)), max_lag=1)

    def test_write_csv(self, tmp_path):
        r = AcfResult(lags=(0, 1), acf=(1.0, 0.25), band=0.2, n_effective=25)
        path = tmp_path / "acf.csv"
        write_acf_csv(r, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "lag,acf,band"
        assert lines[1] == "0,1.0,0.2"
        assert lines[2] == "1,0.25,0.2"


class TestXiSweep:
    def test_single_value_matches_plain_series(self):
        panel = iid(n_assets=5, n_dates=30, seed=11)
        base = WindowConfig(T=10, xi=0.85)
        swept = xi_sweep(panel, base, [0.6])
        direct = indicator_series(panel, WindowConfig(T=10, xi=0.6))
        assert swept[0.6].dates == direct.dates
        assert swept[0.6].values == direct.values

    def test_aligned_dates_across_thresholds(self):
        panel = iid(n_assets=5, n_dates=30, seed=11)
        swept = xi_sweep(panel, WindowConfig(T=10), [0.5, 0.7, 0.9])
        dates = {s.dates for s in swept.values()}
        assert len(dates) == 1

    def test_comoving_extreme_thresholds_give_complete_graph_value(self):
        panel = comoving(n_assets=5, n_dates=30, seed=13)
        swept = xi_sweep(panel, WindowConfig(T=10), [-1.0, 1.0])
        for xi in (-1.0, 1.0):
            values = swept[xi].values
            assert all(v == pytest.approx(3 / 4, abs=1e-12) for v in values)

    def test_errors(self):
        panel = iid(n_assets=4, n_dates=30, seed=1)
        base = WindowConfig(T=10)
        with pytest.raises(ConfigError):
            xi_sweep(panel, base, [])
        with pytest.raises(ConfigError):
            xi_sweep(panel, base, [0.5, 1.5])
        with pytest.raises(ConfigError):
            xi_sweep(panel, base, [0.5, 0.5])

    # Values are duplicates when their sweep columns would share a key or
    # a header label; every grid value is checked before any series runs.
    @pytest.mark.parametrize("grid", [[0.85, 0.8500001], [0.0, -0.0], [0.5, 1.5]])
    def test_grid_is_checked_before_any_series(self, monkeypatch, grid):
        monkeypatch.setattr(diagnostics, "indicator_series",
                            lambda *args, **kwargs: pytest.fail("a series ran"))
        with pytest.raises(ConfigError):
            xi_sweep(iid(n_assets=4, n_dates=30, seed=1), WindowConfig(T=10), grid)


class TestTSweep:
    def test_aligned_to_longest_window(self):
        panel = iid(n_assets=5, n_dates=40, seed=11)
        swept = t_sweep(panel, WindowConfig(T=10, xi=0.6), [5, 10, 20])
        dates = {s.dates for s in swept.values()}
        assert len(dates) == 1
        common = swept[20].dates
        assert common[0] == panel.dates[19]
        assert len(common) == 21

    def test_values_are_suffixes_of_full_series(self):
        panel = iid(n_assets=5, n_dates=40, seed=11)
        swept = t_sweep(panel, WindowConfig(T=10, xi=0.6), [5, 20])
        full5 = indicator_series(panel, WindowConfig(T=5, xi=0.6))
        assert swept[5].values == full5.values[-len(swept[5].values):]

    def test_errors(self):
        panel = iid(n_assets=4, n_dates=30, seed=1)
        base = WindowConfig(T=10)
        with pytest.raises(ConfigError):
            t_sweep(panel, base, [])
        with pytest.raises(ConfigError):
            t_sweep(panel, base, [2])
        with pytest.raises(ConfigError):
            t_sweep(panel, base, [10, 30])  # needs 31 rows
        with pytest.raises(ConfigError):
            t_sweep(panel, base, [10, 10])
