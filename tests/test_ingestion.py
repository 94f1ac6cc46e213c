"""Tests for price-panel loading, screening, and serialisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricci_fragility.errors import ConfigError, DataError
from ricci_fragility.ingestion import (
    PriceMatrix,
    load_price_csv,
    screen_entities,
    write_price_csv,
)
from ricci_fragility.synthetic import regime_switch


def make_panel(dates, tickers, values):
    return PriceMatrix(dates=tuple(dates), tickers=tuple(tickers),
                       values=np.asarray(values, dtype=float))


PANEL = make_panel(
    ["2020-01-01", "2020-01-02", "2020-01-03"],
    ["AAA", "BBB"],
    [[100.0, 50.0], [101.0, np.nan], [102.0, 52.0]],
)


class TestPriceMatrix:
    def test_basic_fields(self):
        assert PANEL.n_dates == 3
        assert PANEL.n_tickers == 2
        assert PANEL.coverage["AAA"] == 1.0
        assert PANEL.coverage["BBB"] == pytest.approx(2 / 3)
        assert PANEL.missing[1, 1] and not PANEL.missing[0, 0]
        assert PANEL.prices is PANEL.values

    def test_values_read_only(self):
        with pytest.raises(ValueError):
            PANEL.values[0, 0] = 1.0
        with pytest.raises(ValueError):
            PANEL.missing[0, 0] = True

    def test_rejects_bad_dates(self):
        with pytest.raises(DataError):
            make_panel(["2020-01-01", "2020-01-01"], ["A", "B"],
                       [[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(DataError):
            make_panel(["2020-01-02", "2020-01-01"], ["A", "B"],
                       [[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(DataError):
            make_panel(["not-a-date"], ["A", "B"], [[1.0, 1.0]])
        # Dates are compared as strings downstream, so another ISO form
        # next to YYYY-MM-DD would sort out of date order.
        with pytest.raises(DataError, match="bad date '20200114'"):
            make_panel(["20200114", "2020-01-16"], ["A", "B"], [[1.0, 1.0], [1.0, 1.0]])

    def test_rejects_bad_tickers(self):
        with pytest.raises(DataError):
            make_panel(["2020-01-01"], ["A", "A"], [[1.0, 1.0]])
        with pytest.raises(DataError):
            make_panel(["2020-01-01"], ["A", ""], [[1.0, 1.0]])

    def test_rejects_nonpositive_prices(self):
        with pytest.raises(DataError):
            make_panel(["2020-01-01"], ["A", "B"], [[0.0, 1.0]])
        with pytest.raises(DataError):
            make_panel(["2020-01-01"], ["A", "B"], [[-3.0, 1.0]])
        with pytest.raises(DataError):
            make_panel(["2020-01-01"], ["A", "B"], [[np.inf, 1.0]])

    def test_rejects_silent_ticker(self):
        with pytest.raises(DataError, match="no observations"):
            make_panel(["2020-01-01", "2020-01-02"], ["A", "B"],
                       [[1.0, np.nan], [2.0, np.nan]])

    def test_rejects_silent_date(self):
        with pytest.raises(DataError, match="dates with no observations"):
            make_panel(["2020-01-01", "2020-01-02"], ["A", "B"],
                       [[1.0, 2.0], [np.nan, np.nan]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DataError):
            make_panel(["2020-01-01"], ["A", "B"], [[1.0, 1.0], [2.0, 2.0]])

    def test_window_and_select(self):
        w = PANEL.window(0, 2)
        assert w.dates == ("2020-01-01", "2020-01-02")
        assert w.values.shape == (2, 2)
        with pytest.raises(ConfigError):
            PANEL.window(2, 2)
        with pytest.raises(DataError):
            PANEL.select(["AAA"])  # fewer than two tickers
        with pytest.raises(DataError):
            PANEL.select(["AAA", "ZZZ"])

    def test_window_with_silent_ticker_raises(self):
        panel = make_panel(
            ["2020-01-01", "2020-01-02", "2020-01-03"],
            ["A", "B"],
            [[1.0, np.nan], [2.0, np.nan], [3.0, 5.0]],
        )
        with pytest.raises(DataError):
            panel.window(0, 2)


class TestCsvRoundTrip:
    def test_complete_panel(self, tmp_path):
        path = tmp_path / "prices.csv"
        write_price_csv(PANEL, path)
        again = load_price_csv(path)
        assert again.dates == PANEL.dates
        assert again.tickers == PANEL.tickers
        np.testing.assert_array_equal(again.values, PANEL.values)

    def test_header_written(self, tmp_path):
        path = tmp_path / "prices.csv"
        write_price_csv(PANEL, path)
        assert path.read_text().splitlines()[0] == "date,ticker,close"

    def test_long_rows_any_order(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text(
            "date,ticker,close\n"
            "2020-01-02,BBB,51.5\n"
            "2020-01-01,AAA,100.0\n"
            "2020-01-02,AAA,101.0\n"
            "2020-01-01,BBB,50.0\n"
        )
        panel = load_price_csv(path)
        assert panel.dates == ("2020-01-01", "2020-01-02")
        assert panel.tickers == ("BBB", "AAA")  # first appearance
        assert panel.values[0, 1] == 100.0
        assert panel.values[1, 0] == 51.5

    def test_missing_observation_masked(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text(
            "date,ticker,close\n"
            "2020-01-01,AAA,100.0\n"
            "2020-01-02,AAA,101.0\n"
            "2020-01-02,BBB,50.0\n"
        )
        panel = load_price_csv(path)
        assert np.isnan(panel.values[0, 1])
        assert panel.coverage["BBB"] == 0.5

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_round_trip_with_gaps(self, tmp_path_factory, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        n_dates, n_tickers = 6, 4
        values = rng.uniform(1.0, 200.0, size=(n_dates, n_tickers))
        mask = rng.random((n_dates, n_tickers)) < 0.3
        for j in range(n_tickers):  # keep every ticker observed somewhere
            mask[rng.integers(n_dates), j] = False
        mask[mask.all(axis=1)] = False  # ... and every date, too
        values[mask] = np.nan
        panel = make_panel(
            [f"2021-02-{i + 1:02d}" for i in range(n_dates)],
            [f"T{j}" for j in range(n_tickers)],
            values,
        )
        path = tmp_path_factory.mktemp("csv") / "p.csv"
        write_price_csv(panel, path)
        again = load_price_csv(path)
        assert again.dates == panel.dates
        assert again.tickers == panel.tickers
        np.testing.assert_array_equal(again.values, panel.values)


class TestCsvErrors:
    def write(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_price_csv(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            load_price_csv(self.write(tmp_path, ""))

    def test_wrong_header(self, tmp_path):
        with pytest.raises(DataError, match="header"):
            load_price_csv(self.write(tmp_path, "day,symbol,price\n"))

    def test_no_data_rows(self, tmp_path):
        with pytest.raises(DataError, match="no data rows"):
            load_price_csv(self.write(tmp_path, "date,ticker,close\n"))

    def test_ragged_row(self, tmp_path):
        body = "date,ticker,close\n2020-01-01,AAA\n"
        with pytest.raises(DataError, match="row 2"):
            load_price_csv(self.write(tmp_path, body))

    def test_bad_date(self, tmp_path):
        body = "date,ticker,close\n01/02/2020,AAA,5.0\n"
        with pytest.raises(DataError, match="bad date"):
            load_price_csv(self.write(tmp_path, body))
        body = "date,ticker,close\n2020-01-16,AAA,5.0\n20200114,AAA,5.0\n"
        with pytest.raises(DataError, match="row 3: bad date '20200114'"):
            load_price_csv(self.write(tmp_path, body))

    def test_empty_ticker(self, tmp_path):
        body = "date,ticker,close\n2020-01-01,,5.0\n"
        with pytest.raises(DataError, match="empty ticker"):
            load_price_csv(self.write(tmp_path, body))

    def test_bad_number(self, tmp_path):
        body = "date,ticker,close\n2020-01-01,AAA,abc\n"
        with pytest.raises(DataError, match="bad number"):
            load_price_csv(self.write(tmp_path, body))

    def test_nonpositive_price(self, tmp_path):
        body = "date,ticker,close\n2020-01-01,AAA,-4\n"
        with pytest.raises(DataError, match="nonpositive"):
            load_price_csv(self.write(tmp_path, body))

    def test_duplicate_key_names_row(self, tmp_path):
        body = ("date,ticker,close\n"
                "2020-01-01,AAA,5.0\n"
                "2020-01-02,AAA,6.0\n"
                "2020-01-01,AAA,7.0\n")
        with pytest.raises(DataError, match="row 4.*duplicate"):
            load_price_csv(self.write(tmp_path, body))


class TestScreening:
    def panel(self):
        # C lists mid-range, D never observed in-range.
        dates = [f"2020-01-{i:02d}" for i in range(1, 7)]
        values = np.array([
            [10.0, 20.0, np.nan, 1.0],
            [11.0, 21.0, np.nan, np.nan],
            [12.0, 22.0, np.nan, np.nan],
            [13.0, 23.0, 30.0, np.nan],
            [14.0, 24.0, 31.0, np.nan],
            [15.0, 25.0, 32.0, np.nan],
        ])
        return make_panel(dates, ["A", "B", "C", "D"], values)

    def test_zero_threshold_is_identity_with_empty_report(self):
        full = make_panel(["2020-01-01", "2020-01-02"], ["A", "B"],
                          [[1.0, 2.0], [3.0, 4.0]])
        screened, report = screen_entities(full, min_coverage=0.0)
        assert screened.tickers == full.tickers
        np.testing.assert_array_equal(screened.values, full.values)
        assert report == []

    def test_mid_range_listing_flagged_but_retained(self):
        screened, report = screen_entities(
            self.panel(), start="2020-01-02", end="2020-01-06", min_coverage=0.9)
        assert screened.tickers == ("A", "B", "C")
        actions = {r["ticker"]: r["action"] for r in report}
        assert actions == {"C": "flagged", "D": "excluded"}
        flagged = next(r for r in report if r["ticker"] == "C")
        assert flagged["coverage"] == pytest.approx(0.6)

    def test_strict_mode_drops_flagged(self):
        screened, report = screen_entities(
            self.panel(), start="2020-01-02", end="2020-01-06",
            min_coverage=0.9, strict=True)
        assert screened.tickers == ("A", "B")
        actions = {r["ticker"]: r["action"] for r in report}
        assert actions == {"C": "dropped", "D": "excluded"}

    def test_never_drops_observed_ticker_by_default(self):
        screened, _ = screen_entities(self.panel(), min_coverage=1.0)
        assert screened.tickers == ("A", "B", "C", "D")

    def test_empty_range(self):
        with pytest.raises(ConfigError, match="selects no rows"):
            screen_entities(self.panel(), start="2021-01-01", end="2021-02-01")
        with pytest.raises(ConfigError, match="selects no rows"):
            screen_entities(self.panel(), start="2020-01-05", end="2020-01-02")

    # Dates compare as strings: "2000-1-10" sorts after every "2000-0x-"
    # date, so it would keep the rows through September, not eight.
    @pytest.mark.parametrize("bound", ["start", "end"])
    @pytest.mark.parametrize("day", ["2000-1-10", "20000110", "2000-01-32", "10/01/2000"])
    def test_rejects_a_date_not_in_iso_form(self, bound, day):
        with pytest.raises(ConfigError, match="bad date"):
            screen_entities(regime_switch(), **{bound: day})
        assert screen_entities(regime_switch(), end="2000-01-10")[0].n_dates == 8

    def test_bad_min_coverage(self):
        with pytest.raises(ConfigError):
            screen_entities(self.panel(), min_coverage=1.5)

    def test_too_few_survivors(self):
        panel = make_panel(
            ["2020-01-01", "2020-01-02"],
            ["A", "B"],
            [[1.0, 5.0], [2.0, np.nan]],
        )
        with pytest.raises(DataError, match="need at least 2"):
            screen_entities(panel, min_coverage=1.0, strict=True)
