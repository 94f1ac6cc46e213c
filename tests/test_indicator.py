"""Tests for the rolling-indicator pipeline: correlations, transforms,
window graphs, series assembly, and serialisation."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricci_fragility import indicator
from ricci_fragility.errors import (
    ConfigError,
    DataError,
    InsufficientOverlapError,
)
from ricci_fragility.graphs import (
    MarketGraph,
    _prim,
    augment_high_value_edges,
    build_complete_graph,
    minimum_spanning_tree,
)
from ricci_fragility.indicator import (
    DistanceTransform,
    IndicatorSeries,
    WindowConfig,
    _points_for_starts,
    _stack_curvature,
    _stack_kappa,
    _window_arrays,
    correlation_matrix,
    distance_from_correlation,
    indicator_series,
    window_graph,
    write_series_csv,
    write_series_json,
    write_sweep_csv,
)
from ricci_fragility.ingestion import PriceMatrix
from ricci_fragility.synthetic import comoving, iid, regime_switch
from ricci_fragility.transport import AVERAGING_MODES, WEIGHTINGS, NodeMeasure, average_curvature


def make_panel(values, start_day=1):
    values = np.asarray(values, dtype=float)
    rows, cols = values.shape
    dates = [f"2020-03-{start_day + i:02d}" for i in range(rows)]
    tickers = [f"S{j}" for j in range(cols)]
    return PriceMatrix(dates=tuple(dates), tickers=tuple(tickers), values=values)


class TestDistanceTransform:
    def test_parse_and_label(self):
        assert DistanceTransform.parse("sqrt").kind == "sqrt_ultrametric"
        assert DistanceTransform.parse("log1p").kind == "log1p_scaled"
        t = DistanceTransform.parse("power:0.5")
        assert t.kind == "power" and t.p == 0.5
        assert DistanceTransform.parse("sqrt").label() == "sqrt"
        assert t.label() == "power:0.5"
        assert DistanceTransform.parse("log1p").label() == "log1p"

    def test_parse_errors(self):
        for bad in ("cosine", "power:", "power:zero", "power:-1", "power:0"):
            with pytest.raises(ConfigError):
                DistanceTransform.parse(bad)

    def test_constructor_validation(self):
        with pytest.raises(ConfigError):
            DistanceTransform("power")  # missing exponent
        with pytest.raises(ConfigError):
            DistanceTransform("sqrt_ultrametric", p=2.0)  # stray exponent
        with pytest.raises(ConfigError):
            DistanceTransform("nope")

    def test_sqrt_formula(self):
        rho = np.array([[1.0, 0.5], [0.5, 1.0]])
        d = DistanceTransform().apply(rho)
        assert d[0, 1] == pytest.approx(math.sqrt(1.0), abs=1e-15)
        assert d[0, 0] == 0.0
        rho = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert DistanceTransform().apply(rho)[0, 1] == pytest.approx(2.0, abs=1e-15)

    def test_power_and_log1p_formulas(self):
        rho = np.array([[1.0, 0.25], [0.25, 1.0]])
        spread = 2.0 * (1.0 - 0.25)
        assert DistanceTransform("power", p=1.0).apply(rho)[0, 1] == pytest.approx(spread)
        assert DistanceTransform("power", p=2.0).apply(rho)[0, 1] == pytest.approx(spread ** 2)
        assert DistanceTransform("log1p_scaled").apply(rho)[0, 1] == pytest.approx(
            math.log1p(spread))

    @settings(max_examples=30, deadline=None)
    @given(rho=st.floats(-1.0, 1.0), rho2=st.floats(-1.0, 1.0))
    def test_decreasing_in_rho(self, rho, rho2):
        lo, hi = min(rho, rho2), max(rho, rho2)
        for t in (DistanceTransform(), DistanceTransform("power", p=0.7),
                  DistanceTransform("log1p_scaled")):
            m_lo = t.apply(np.array([[1.0, lo], [lo, 1.0]]))[0, 1]
            m_hi = t.apply(np.array([[1.0, hi], [hi, 1.0]]))[0, 1]
            assert m_lo >= m_hi - 1e-12


class TestWindowConfig:
    def test_defaults(self):
        cfg = WindowConfig()
        assert cfg.T == 132 and cfg.xi == 0.85
        assert cfg.transform.kind == "sqrt_ultrametric"
        assert cfg.averaging_mode == "edges"
        assert cfg.weighting == "edge_weight"
        assert cfg.input_mode == "raw_price"

    def test_validation(self):
        with pytest.raises(ConfigError):
            WindowConfig(T=2)
        with pytest.raises(ConfigError):
            WindowConfig(xi=1.5)
        with pytest.raises(ConfigError):
            WindowConfig(averaging_mode="both")
        with pytest.raises(ConfigError):
            WindowConfig(weighting="degree")
        with pytest.raises(ConfigError):
            WindowConfig(input_mode="returns")

    def test_to_dict(self):
        d = WindowConfig(T=22, xi=0.7).to_dict()
        assert d["T"] == 22 and d["xi"] == 0.7 and d["distance"] == "sqrt"


class TestIndicatorSeries:
    def test_gap_count_and_validation(self):
        s = IndicatorSeries(dates=("2020-01-01", "2020-01-02"),
                            values=(0.5, float("nan")), config=WindowConfig())
        assert s.gap_count() == 1
        with pytest.raises(DataError):
            IndicatorSeries(dates=("2020-01-02", "2020-01-01"),
                            values=(0.1, 0.2), config=WindowConfig())
        with pytest.raises(DataError):
            IndicatorSeries(dates=("2020-01-01",), values=(1.5,), config=WindowConfig())
        with pytest.raises(DataError):
            IndicatorSeries(dates=("2020-01-01",), values=(0.1, 0.2),
                            config=WindowConfig())


class TestCorrelationMatrix:
    def test_matches_corrcoef_complete_data(self):
        rng = np.random.default_rng(3)
        panel = make_panel(rng.uniform(50, 150, size=(20, 4)))
        rho, flagged = correlation_matrix(panel)
        assert flagged == ()
        expected = np.corrcoef(panel.values.T)
        np.testing.assert_allclose(rho, expected, atol=1e-12)

    def test_log_return_mode(self):
        rng = np.random.default_rng(4)
        panel = make_panel(rng.uniform(50, 150, size=(15, 3)))
        rho, _ = correlation_matrix(panel, "log_return")
        rets = np.diff(np.log(panel.values), axis=0)
        np.testing.assert_allclose(rho, np.corrcoef(rets.T), atol=1e-12)

    def test_pairwise_complete_uses_overlap_only(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(50, 150, size=(12, 3))
        values[0:4, 2] = np.nan
        panel = make_panel(values)
        rho, _ = correlation_matrix(panel)
        sub = panel.values[4:, :]  # rows where S2 is present
        expected = np.corrcoef(sub[:, 0], sub[:, 2])[0, 1]
        assert rho[0, 2] == pytest.approx(expected, abs=1e-12)
        full = np.corrcoef(panel.values[:, 0], panel.values[:, 1])[0, 1]
        assert rho[0, 1] == pytest.approx(full, abs=1e-12)

    def test_insufficient_overlap_names_tickers(self):
        values = np.array([
            [1.0, np.nan],
            [2.0, np.nan],
            [3.0, np.nan],
            [np.nan, 4.0],
            [np.nan, 5.0],
        ])
        panel = make_panel(values)
        with pytest.raises(InsufficientOverlapError, match="S0/S1"):
            correlation_matrix(panel)

    def test_too_few_rows(self):
        panel = make_panel([[1.0, 2.0], [1.1, 2.1]])
        with pytest.raises(InsufficientOverlapError):
            correlation_matrix(panel)

    def test_constant_series_flagged_zero(self):
        values = np.column_stack([
            np.full(10, 42.0),
            np.linspace(10, 20, 10),
            np.linspace(30, 10, 10),
        ])
        panel = make_panel(values)
        rho, flagged = correlation_matrix(panel)
        assert ("S0", "S1") in flagged and ("S0", "S2") in flagged
        assert rho[0, 1] == 0.0 and rho[0, 2] == 0.0
        assert rho[1, 2] == pytest.approx(-1.0, abs=1e-12)

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            correlation_matrix(make_panel([[1.0, 2.0]] * 4), "levels")


class TestDistanceFromCorrelation:
    def test_validation(self):
        t = DistanceTransform()
        good = np.array([[1.0, 0.3], [0.3, 1.0]])
        d = distance_from_correlation(good, t)
        assert d[0, 1] == pytest.approx(math.sqrt(2 * 0.7))
        with pytest.raises(DataError):
            distance_from_correlation(np.ones((2, 3)), t)
        with pytest.raises(DataError):
            distance_from_correlation(np.array([[1.0, 0.5], [0.1, 1.0]]), t)
        with pytest.raises(DataError):
            distance_from_correlation(np.array([[1.0, 1.5], [1.5, 1.0]]), t)
        with pytest.raises(DataError):
            distance_from_correlation(np.array([[0.5, 0.3], [0.3, 1.0]]), t)


def kruskal_tree(dist):
    """Minimum spanning tree of the complete graph on ``dist`` as a set of
    ``(i, j)`` pairs, ``i < j``: Kruskal over the pairs sorted by
    ``(dist[i, j], i, j)``, with union-find."""
    parent = list(range(len(dist)))

    def root(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    tree = set()
    for _, i, j in sorted((dist[i, j], i, j) for i, j in zip(*np.triu_indices(len(dist), 1))):
        a, b = root(i), root(j)
        if a != b:
            parent[a] = b
            tree.add((i, j))
    return tree


class TestWindowGraph:
    def test_structure_bounds(self):
        panel = iid(n_assets=6, n_dates=40, seed=11)
        g = window_graph(panel.window(0, 20), WindowConfig(T=20, xi=0.5))
        n = 6
        assert g.n == n
        assert n - 1 <= g.edge_count <= n * (n - 1) // 2
        assert g.is_connected()

    def test_xi_one_keeps_high_rho_edges_only(self):
        panel = iid(n_assets=6, n_dates=40, seed=11)
        g = window_graph(panel.window(0, 20), WindowConfig(T=20, xi=1.0))
        assert g.edge_count == 5  # iid data has no rho == 1, so MST only

    def test_comoving_complete_at_any_xi(self):
        panel = comoving(n_assets=5, n_dates=30, seed=13)
        for xi in (-1.0, 0.0, 1.0):
            g = window_graph(panel.window(0, 12), WindowConfig(T=12, xi=xi))
            assert g.edge_count == 10  # rho == 1 everywhere, all edges admitted

    @pytest.mark.parametrize("corpus", [regime_switch, iid, comoving],
                             ids=lambda f: f.__name__)
    def test_equals_public_composition(self, corpus):
        # comoving has every distance 0, so there the tree is all tie-break.
        panel = corpus()
        T = WindowConfig().T
        for k in range(0, panel.n_dates - T + 1, 7):
            window = panel.window(k, k + T)
            rho, _ = correlation_matrix(window)
            dist = distance_from_correlation(rho, DistanceTransform())
            base = build_complete_graph(dist, rho, nodes=window.tickers)
            tree = minimum_spanning_tree(base)
            for xi in (0.75, 0.8, 0.85, 0.9):
                expected = augment_high_value_edges(tree, base, xi)
                g = window_graph(window, WindowConfig(xi=xi))
                assert g.edges == expected.edges, (k, xi)
                assert g.weights == expected.weights, (k, xi)
                assert g.correlations == expected.correlations, (k, xi)

    # The total order (w, i, j) makes the spanning tree unique, so a plain
    # Kruskal over it checks `_prim`'s tie-break with no shared code.
    @pytest.mark.parametrize("corpus", [regime_switch, iid, comoving],
                             ids=lambda f: f.__name__)
    def test_equals_kruskal_reference(self, corpus):
        panel = corpus()
        T = WindowConfig().T
        for k in range(0, panel.n_dates - T + 1, 7):
            window = panel.window(k, k + T)
            rho, _ = correlation_matrix(window)
            dist = distance_from_correlation(rho, DistanceTransform())
            tree = kruskal_tree(dist)
            for xi in (0.75, 0.8, 0.85, 0.9):
                pairs = sorted(tree | {(i, j) for i, j in zip(*np.triu_indices(len(rho), 1))
                                       if rho[i, j] >= xi})
                edges = tuple((window.tickers[i], window.tickers[j]) for i, j in pairs)
                g = window_graph(window, WindowConfig(xi=xi))
                assert g.edges == edges, (k, xi)
                assert g.weights == {e: float(dist[p]) for e, p in zip(edges, pairs)}, (k, xi)
                assert g.correlations == {e: float(rho[p]) for e, p in zip(edges, pairs)}, (k, xi)

    # Windows rarely tie, and comoving's graph is complete at every xi, so
    # the tie-break is checked on small integer distances.
    def test_prim_tie_break_equals_kruskal_reference(self):
        rng = np.random.default_rng(0)
        for n in (4, 7, 12):
            for _ in range(20):
                w = np.triu(rng.integers(0, 3, (n, n)), 1).astype(float)
                assert set(map(tuple, _prim((w + w.T)[None])[0].tolist())) == kruskal_tree(w + w.T)

    # One stacked call gives every matrix the tree it gets alone.
    def test_stacked_prim_equals_kruskal_reference(self):
        rng = np.random.default_rng(1)
        for n in (2, 5, 9):
            w = np.triu(rng.integers(0, 3, (30, n, n)), 1).astype(float)
            w += w.transpose(0, 2, 1)
            trees = _prim(w)
            assert trees.shape == (30, n - 1, 2)
            for tree, one in zip(trees, w):
                assert set(map(tuple, tree.tolist())) == kruskal_tree(one)

    def test_builds_one_market_graph(self, monkeypatch):
        built = []
        post_init = MarketGraph.__post_init__

        def counting(graph):
            built.append(graph)
            post_init(graph)

        monkeypatch.setattr(MarketGraph, "__post_init__", counting)
        g = window_graph(regime_switch().window(300, 432), WindowConfig())
        assert len(built) == 1 and built[0] is g


    # The series reads each window from its arrays; `window_graph` and
    # `average_curvature` are the public composition it must equal.
    @pytest.mark.parametrize("mode", ["edges", "pairs"])
    @pytest.mark.parametrize("weighting", ["edge_weight", "uniform"])
    @pytest.mark.parametrize("xi", [0.75, 0.85, 0.9])
    @pytest.mark.parametrize("k", [40, 250, 460])
    def test_array_route_equals_public_composition(self, k, xi, weighting, mode):
        window = regime_switch().window(k, k + 132)
        config = WindowConfig(xi=xi, weighting=weighting, averaging_mode=mode)
        report = average_curvature(window_graph(window, config), mode=mode,
                                   weighting=weighting)
        rho, dist = _window_arrays(window, config)
        kappa = _stack_kappa((rho >= xi)[None], dist[None], config)[0]
        assert kappa.size == len(report.per_pair)
        assert np.max(np.abs(kappa - list(report.per_pair.values()))) <= 1e-12


class TestIndicatorSeriesPipeline:
    def test_length_and_labels(self):
        panel = iid(n_assets=5, n_dates=30, seed=11)
        series = indicator_series(panel, WindowConfig(T=10, xi=0.6))
        assert len(series.values) == 21
        assert series.dates == panel.dates[9:]
        assert series.gap_count() == 0

    def test_values_match_per_window_computation(self):
        panel = iid(n_assets=5, n_dates=26, seed=3)
        cfg = WindowConfig(T=12, xi=0.6)
        series = indicator_series(panel, cfg)
        for k in (0, 5, 14):
            g = window_graph(panel.window(k, k + 12), cfg)
            expected = average_curvature(g, mode=cfg.averaging_mode,
                                         weighting=cfg.weighting).average
            assert series.values[k] == expected

    def test_builds_no_graph_or_node_measure(self, monkeypatch):
        def refuse(self):
            raise AssertionError(f"{type(self).__name__} built on the window path")

        panel = iid(n_assets=6, n_dates=30, seed=5)
        monkeypatch.setattr(MarketGraph, "__post_init__", refuse)
        monkeypatch.setattr(NodeMeasure, "__post_init__", refuse)
        for mode in ("edges", "pairs"):
            series = indicator_series(panel, WindowConfig(T=12, xi=0.6, averaging_mode=mode))
            assert series.gap_count() == 0 and len(series.values) == 19

    def test_too_short_panel(self):
        panel = iid(n_assets=4, n_dates=10, seed=1)
        with pytest.raises(ConfigError):
            indicator_series(panel, WindowConfig(T=10))

    def test_too_few_tickers(self):
        panel = iid(n_assets=2, n_dates=30, seed=1)
        series = indicator_series(panel, WindowConfig(T=10, xi=0.0))
        assert len(series.values) == 21  # two tickers are allowed

    def test_parallel_matches_serial(self):
        panel = iid(n_assets=5, n_dates=36, seed=8)
        cfg = WindowConfig(T=12, xi=0.6)
        serial = indicator_series(panel, cfg, jobs=1)
        parallel = indicator_series(panel, cfg, jobs=2)
        assert serial.dates == parallel.dates
        assert serial.notes == parallel.notes
        for a, b in zip(serial.values, parallel.values):
            assert (math.isnan(a) and math.isnan(b)) or a == b

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_solver_failure_gaps_window(self, failing_lp, jobs):
        # Worker processes are forked, so they inherit the failing solver.
        # Pairs on these tree-like windows reach the LP in some windows only.
        panel = iid(n_assets=6, n_dates=30, seed=4)
        cfg = WindowConfig(T=20, xi=0.9, averaging_mode="pairs")
        series = indicator_series(panel, cfg, jobs=jobs)
        assert 0 < series.gap_count() < len(series.values)
        assert len(series.notes) == series.gap_count()
        assert all("transport LP failed" in note for note in series.notes)

    def test_bad_jobs(self):
        panel = iid(n_assets=4, n_dates=30, seed=1)
        with pytest.raises(ConfigError):
            indicator_series(panel, WindowConfig(T=10), jobs=0)

    def test_gap_window_noted_not_fatal(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(50, 150, size=(30, 4))
        values[0:12, 3] = np.nan  # S3 lists late: early windows can't use it
        panel = make_panel(values)
        series = indicator_series(panel, WindowConfig(T=10, xi=0.6))
        assert series.gap_count() > 0
        assert len(series.notes) == series.gap_count()
        assert all(note for note in series.notes)
        assert not math.isnan(series.values[-1])


def _point_bits(points):
    """(label, raw bits of the value, note) of each driver point."""
    return [(label, np.float64(value).view(np.uint64), note)
            for label, value, _, note in points]


def _stack_sizes(panel, config, starts):
    """Sizes of the stacks the driver forms on ``starts``, solving nothing."""
    sizes = []

    def step(high, dist, config):
        sizes.append(len(dist))
        return [(0.0, ())] * len(dist)

    _points_for_starts(panel, config, step, starts)
    return sizes


def _recording(sizes):
    """`_stack_curvature` that records the size of each stack it solves."""
    def step(high, dist, config):
        sizes.append(len(dist))
        return _stack_curvature(high, dist, config)
    return step


class TestStacks:
    # A stack's values do not depend on the windows it holds: the whole
    # call's windows in one stack equal every window alone, bit for bit.
    @pytest.mark.parametrize("mode", AVERAGING_MODES)
    @pytest.mark.parametrize("corpus, stride", [(regime_switch, 35), (iid, 7), (comoving, 7)],
                             ids=["regime_switch", "iid", "comoving"])
    def test_one_stack_equals_stacks_of_one(self, monkeypatch, corpus, stride, mode):
        panel = corpus()
        starts = range(0, panel.n_dates - WindowConfig().T + 1, stride)
        for xi in (0.75, 0.85, 0.9):
            for weighting in WEIGHTINGS:
                config = WindowConfig(xi=xi, weighting=weighting, averaging_mode=mode)
                runs = []
                for budget in (1 << 40, 0):
                    sizes = []
                    monkeypatch.setattr(indicator, "_STACK_BUDGET", budget)
                    runs.append(_point_bits(_points_for_starts(panel, config, _recording(sizes),
                                                               starts)))
                    assert sizes == ([len(starts)] if budget else [1] * len(starts))
                assert runs[0] == runs[1], (xi, weighting)

    # The series, serial and across two workers, under the default stack
    # budget and with every window alone.
    @pytest.mark.parametrize("corpus, rows", [(regime_switch, (150, 300)), (iid, (0, 200)),
                                              (comoving, (0, 300))],
                             ids=["regime_switch", "iid", "comoving"])
    def test_series_equal_series_of_windows_alone(self, monkeypatch, corpus, rows):
        panel = corpus().window(*rows)
        for mode in AVERAGING_MODES:
            for xi in (0.75, 0.85, 0.9):
                for weighting in WEIGHTINGS:
                    config = WindowConfig(xi=xi, weighting=weighting, averaging_mode=mode)
                    runs = []
                    for budget, jobs in ((indicator._STACK_BUDGET, 1),
                                         (indicator._STACK_BUDGET, 2), (0, 1)):
                        monkeypatch.setattr(indicator, "_STACK_BUDGET", budget)
                        series = indicator_series(panel, config, jobs=jobs)
                        runs.append((series.dates, np.array(series.values).view(np.uint64).tolist(),
                                     series.notes))
                        monkeypatch.undo()
                    assert runs[0] == runs[1] == runs[2], (mode, xi, weighting)

    # The rule stacks calm windows; 10 calm windows (a `rolling-calm`
    # benchmark panel) form one stack, and crisis windows (~1,000 edges)
    # pair up. A window of 50 assets costs at least its 49 tree edges plus
    # 50 * 50 // 25 for its arrays.
    def test_stack_rule(self):
        sizes = _stack_sizes(regime_switch(), WindowConfig(), range(0, 469))
        assert sum(sizes) == 469
        assert min(sizes[:10]) >= 10 and max(sizes) <= indicator._STACK_BUDGET // (49 + 100)
        assert sizes[-35:] == [2] * 34 + [1]

    # The largest stack the rule forms on calm windows and on crisis
    # windows holds the window memory budget of `test_transport.py`.
    @pytest.mark.parametrize("xi", [0.85, 0.9])
    @pytest.mark.parametrize("first, last", [(0, 268), (400, 468)])
    def test_stack_memory_stays_flat(self, first, last, xi):
        panel, config = regime_switch(), WindowConfig(xi=xi)
        stacks = _stack_sizes(panel, config, range(first, last + 1))
        start = first + sum(stacks[:int(np.argmax(stacks))])
        largest = range(start, start + max(stacks))
        _points_for_starts(panel, config, _stack_curvature, largest)
        tracemalloc.start()
        try:
            _points_for_starts(panel, config, _stack_curvature, largest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(stacks) >= (10 if first == 0 else 1)
        assert peak < 4e6

    # Two pairs-mode windows at the regime switch peak past the window
    # budget together (4.1 MB), so the rule solves them apart.
    def test_pairs_mode_stacks_stay_within_the_window_budget(self):
        panel, config = regime_switch(), WindowConfig(averaging_mode="pairs")
        starts = range(360, 362)
        assert _stack_sizes(panel, config, starts) == [1, 1]
        _points_for_starts(panel, config, _stack_curvature, starts)
        tracemalloc.start()
        try:
            _points_for_starts(panel, config, _stack_curvature, starts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    # Overlap failures never enter a stack; the LP failures of two windows
    # of the one stack re-run it window by window, so only they gap. Values
    # and notes as the per-window driver gave them, bit for bit.
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_windows_of_a_stack_gap_alone(self, failing_lp, monkeypatch, jobs):
        base = iid(n_assets=6, n_dates=30, seed=4)
        values = np.array(base.values)
        values[0:19, 2] = np.nan  # A002 lists late: the first two windows overlap too little
        panel = PriceMatrix(dates=base.dates, tickers=base.tickers, values=values)
        sizes = []
        if jobs == 1:  # a local function does not pickle
            monkeypatch.setattr(indicator, "_stack_curvature", _recording(sizes))
        series = indicator_series(panel, WindowConfig(T=20, xi=0.9, averaging_mode="pairs"),
                                  jobs=jobs)
        assert [v.hex() for v in series.values] == [
            "nan", "nan", "0x1.7b164648028d0p-3", "0x1.b7235b06d4cbdp-3",
            "0x1.681cc45645480p-3", "0x1.cf0c1694423a4p-3", "0x1.c0e1dea782d55p-3",
            "0x1.e7def91a17f4cp-3", "0x1.dca006647495cp-3", "nan", "nan"]
        assert series.notes == (
            "2000-01-22: A000/A002 overlap on 1 rows; need >= 3",
            "2000-01-23: A000/A002 overlap on 2 rows; need >= 3",
            "2000-01-31: transport LP failed: simulated numerical difficulties",
            "2000-02-01: transport LP failed: simulated numerical difficulties")
        if jobs == 1:
            assert sizes == [9] + [1] * 9


class TestSerialisation:
    def series(self):
        return IndicatorSeries(
            dates=("2020-01-01", "2020-01-02", "2020-01-03"),
            values=(0.25, float("nan"), -0.5),
            config=WindowConfig(T=10, xi=0.6),
            notes=("2020-01-02: no usable overlap",),
        )

    def test_csv_gaps_written_as_nan(self, tmp_path):
        path = tmp_path / "series.csv"
        write_series_csv(self.series(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "date,value"
        assert lines[2] == "2020-01-02,nan"
        assert lines[3] == "2020-01-03,-0.5"

    def test_json_gaps_written_as_null(self, tmp_path):
        path = tmp_path / "series.json"
        write_series_json(self.series(), path)
        payload = json.loads(path.read_text())
        assert payload["config"]["T"] == 10
        assert payload["series"][1]["value"] is None
        assert payload["series"][0]["value"] == 0.25
        assert payload["notes"] == ["2020-01-02: no usable overlap"]

    def test_sweep_csv_columns_per_value(self, tmp_path):
        cfg = WindowConfig(T=10, xi=0.6)
        mk = lambda vals: IndicatorSeries(
            dates=("2020-01-01", "2020-01-02"), values=vals, config=cfg)
        path = tmp_path / "sweep.csv"
        write_sweep_csv({0.6: mk((0.1, 0.2)), 0.8: mk((0.0, float("nan")))},
                        path, parameter="xi")
        lines = path.read_text().splitlines()
        assert lines[0] == "date,xi=0.6,xi=0.8"
        assert lines[1] == "2020-01-01,0.1,0.0"
        assert lines[2] == "2020-01-02,0.2,nan"

    def test_sweep_csv_requires_alignment(self, tmp_path):
        cfg = WindowConfig(T=10, xi=0.6)
        a = IndicatorSeries(dates=("2020-01-01",), values=(0.1,), config=cfg)
        b = IndicatorSeries(dates=("2020-01-02",), values=(0.2,), config=cfg)
        with pytest.raises(DataError):
            write_sweep_csv({0.6: a, 0.8: b}, tmp_path / "x.csv", parameter="xi")
