"""Tests for extremal-subgraph search and the sub-sampled indicator."""

import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricci_fragility import indicator, subsample
from ricci_fragility.bounds import random_instance
from ricci_fragility.errors import ConfigError, GraphError
from ricci_fragility.graphs import MarketGraph, _dense, build_complete_graph, induced_subgraph
from ricci_fragility.indicator import (
    WindowConfig,
    correlation_matrix,
    distance_from_correlation,
)
from ricci_fragility.ingestion import PriceMatrix
from ricci_fragility.subsample import (
    IMPROVE_TOL,
    OBJECTIVES,
    SubsampleConfig,
    _best_swap,
    _clique_scorer,
    _evaluate,
    _generic_scorer,
    _grow_connected_subset,
    _is_better,
    _local_search,
    _stack_extrema,
    _subset_averages,
    _swap_candidates,
    exhaustive_extremum,
    extremal_subgraph,
    subsample_indicator_series,
)
from ricci_fragility.synthetic import comoving, iid, regime_switch
from ricci_fragility.transport import AVERAGING_MODES, WEIGHTINGS, NodeMeasure, _measure_rows
from ricci_fragility.transport import average_curvature


def complete_unit_graph(n):
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return MarketGraph(nodes=tuple(range(n)), edges=edges,
                       weights={e: 1.0 for e in edges})


def star_graph(n):
    edges = tuple((0, i) for i in range(1, n))
    return MarketGraph(nodes=tuple(range(n)), edges=edges,
                       weights={e: 1.0 for e in edges})


class TestSubsampleConfig:
    def test_defaults(self):
        cfg = SubsampleConfig(m=4)
        assert cfg.objective == "minimize"
        assert cfg.restarts == 20

    def test_validation(self):
        with pytest.raises(ConfigError):
            SubsampleConfig(m=1)
        with pytest.raises(ConfigError):
            SubsampleConfig(m=3, objective="solve")
        with pytest.raises(ConfigError):
            SubsampleConfig(m=3, max_iters=0)
        with pytest.raises(ConfigError):
            SubsampleConfig(m=3, restarts=-1)
        # The search adds the seed to restart strides, so a seed that is not
        # an integer would fail there with a raw TypeError.
        for seed in ("x", 1.5, None, True):
            with pytest.raises(ConfigError, match="seed"):
                SubsampleConfig(m=5, seed=seed)
        for field in ("max_iters", "restarts"):
            for flag in (True, False):
                with pytest.raises(ConfigError, match=field):
                    SubsampleConfig(m=3, **{field: flag})
        config = SubsampleConfig(m=3, seed=-7, restarts=1)
        nodes, _ = extremal_subgraph(star_graph(6), config)
        assert config.seed == -7 and 0 in nodes

    def test_to_dict_round_trip(self):
        cfg = SubsampleConfig(m=5, objective="maximize", seed=9, max_iters=50, restarts=3)
        assert SubsampleConfig(**cfg.to_dict()) == cfg


class TestExtremalSubgraph:
    def test_whole_graph_when_m_equals_n(self):
        g = complete_unit_graph(5)
        nodes, report = extremal_subgraph(g, SubsampleConfig(m=5))
        assert nodes == g.nodes
        assert report.average == pytest.approx(
            average_curvature(g).average, abs=1e-15)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_complete_graph_any_subset_same_value(self, m):
        g = complete_unit_graph(6)
        nodes, report = extremal_subgraph(g, SubsampleConfig(m=m, restarts=2))
        assert len(nodes) == m
        expected = 0.0 if m == 2 else (m - 2) / (m - 1)
        assert report.average == pytest.approx(expected, abs=1e-12)

    def test_star_minimize_m2_is_center_leaf(self):
        g = star_graph(6)
        nodes, report = extremal_subgraph(g, SubsampleConfig(m=2, restarts=4))
        assert 0 in nodes  # only center-leaf pairs are connected
        assert report.average == pytest.approx(0.0, abs=1e-12)

    def test_m_too_large(self):
        with pytest.raises(ConfigError):
            extremal_subgraph(complete_unit_graph(4), SubsampleConfig(m=5))

    def test_bad_mode_and_weighting(self):
        g = complete_unit_graph(4)
        with pytest.raises(ConfigError):
            extremal_subgraph(g, SubsampleConfig(m=3), mode="nope")
        with pytest.raises(ConfigError):
            extremal_subgraph(g, SubsampleConfig(m=3), weighting="nope")

    def test_no_connected_subset(self):
        g = MarketGraph(nodes=(0, 1, 2, 3),
                        edges=((0, 1), (2, 3)),
                        weights={(0, 1): 1.0, (2, 3): 1.0})
        with pytest.raises(GraphError):
            extremal_subgraph(g, SubsampleConfig(m=3, restarts=1))

    def test_deterministic(self):
        g = random_instance(421, n_low=7, n_high=7).graph
        cfg = SubsampleConfig(m=4, seed=5, restarts=3)
        first = extremal_subgraph(g, cfg)
        second = extremal_subgraph(g, cfg)
        assert first[0] == second[0]
        assert first[1].average == second[1].average

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5_000))
    def test_subset_connected_and_never_below_optimum(self, seed):
        g = random_instance(seed, n_low=5, n_high=8).graph
        cfg = SubsampleConfig(m=3, seed=seed, restarts=5)
        nodes, report = extremal_subgraph(g, cfg)
        assert len(nodes) == 3
        assert induced_subgraph(g, nodes).is_connected()
        _, best = exhaustive_extremum(g, 3, "minimize")
        assert report.average >= best - 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5_000))
    def test_maximize_never_above_optimum(self, seed):
        g = random_instance(seed, n_low=5, n_high=8).graph
        cfg = SubsampleConfig(m=4, objective="maximize", seed=seed, restarts=5)
        nodes, report = extremal_subgraph(g, cfg)
        _, best = exhaustive_extremum(g, 4, "maximize")
        assert report.average <= best + 1e-12


class TestExhaustiveExtremum:
    def test_complete_graph(self):
        g = complete_unit_graph(5)
        nodes, value = exhaustive_extremum(g, 3, "minimize")
        assert value == pytest.approx(0.5, abs=1e-12)
        assert nodes == (0, 1, 2)  # first in combination order among ties

    def test_min_le_max(self):
        g = random_instance(77, n_low=6, n_high=6).graph
        _, lo = exhaustive_extremum(g, 3, "minimize")
        _, hi = exhaustive_extremum(g, 3, "maximize")
        assert lo <= hi + 1e-12

    def test_errors(self):
        g = complete_unit_graph(4)
        with pytest.raises(ConfigError):
            exhaustive_extremum(g, 1)
        with pytest.raises(ConfigError):
            exhaustive_extremum(g, 9)
        with pytest.raises(ConfigError):
            exhaustive_extremum(g, 3, objective="best")
        disconnected = MarketGraph(nodes=(0, 1, 2, 3),
                                   edges=((0, 1), (2, 3)),
                                   weights={(0, 1): 1.0, (2, 3): 1.0})
        with pytest.raises(GraphError):
            exhaustive_extremum(disconnected, 3)


class TestSubsampleSeries:
    def test_comoving_two_nodes_constant_zero(self):
        prices = comoving(n_assets=3, n_dates=40, seed=13)
        series, subsets = subsample_indicator_series(
            prices, WindowConfig(T=10), SubsampleConfig(m=2, restarts=1))
        assert len(series.values) == 31
        assert all(v == pytest.approx(0.0, abs=1e-12) for v in series.values)
        assert all(len(s) == 2 for s in subsets)

    def test_m_equals_n_matches_complete_graph_average(self):
        prices = iid(n_assets=4, n_dates=26, seed=11)
        config = WindowConfig(T=12)
        series, subsets = subsample_indicator_series(
            prices, config, SubsampleConfig(m=4, restarts=0))
        assert len(series.values) == 15
        # Recompute two windows directly on the complete window graph.
        for k in (0, 7):
            window = prices.window(k, k + 12)
            rho, _ = correlation_matrix(window, config.input_mode)
            dist = distance_from_correlation(rho, config.transform)
            g = build_complete_graph(dist, rho, nodes=window.tickers)
            expected = average_curvature(
                g, mode=config.averaging_mode, weighting=config.weighting).average
            assert series.values[k] == pytest.approx(expected, abs=1e-12)
            assert subsets[k] == window.tickers

    def test_dates_label_window_end(self):
        prices = iid(n_assets=4, n_dates=20, seed=2)
        series, _ = subsample_indicator_series(
            prices, WindowConfig(T=10), SubsampleConfig(m=3, restarts=0))
        assert series.dates[0] == prices.dates[9]
        assert series.dates[-1] == prices.dates[-1]

    def test_m_larger_than_panel(self):
        prices = iid(n_assets=3, n_dates=20, seed=2)
        with pytest.raises(ConfigError):
            subsample_indicator_series(
                prices, WindowConfig(T=10), SubsampleConfig(m=5))

    def test_too_few_rows(self):
        prices = iid(n_assets=4, n_dates=10, seed=2)
        with pytest.raises(ConfigError):
            subsample_indicator_series(
                prices, WindowConfig(T=10), SubsampleConfig(m=3))

    def test_gap_windows_get_dated_notes_and_empty_subsets(self):
        values = np.random.default_rng(9).uniform(50, 150, size=(30, 4))
        values[0:12, 3] = np.nan  # S3 lists late: early windows can't use it
        prices = PriceMatrix(dates=tuple(f"2020-03-{d:02d}" for d in range(1, 31)),
                             tickers=("S0", "S1", "S2", "S3"), values=values)
        series, subsets = subsample_indicator_series(
            prices, WindowConfig(T=10), SubsampleConfig(m=3, restarts=0))
        gaps = [i for i, v in enumerate(series.values) if math.isnan(v)]
        assert 0 < len(gaps) < len(series.values)
        assert len(series.notes) == series.gap_count()
        for i, note in zip(gaps, series.notes):
            assert note.startswith(f"{series.dates[i]}: ")
            assert subsets[i] == ()
        assert all(len(subsets[i]) == 3 for i in range(len(subsets)) if i not in gaps)


def sequential_walk(scores, value, objective):
    """The swap pick as a plain walk over every candidate in scan order."""
    best, best_value = None, value
    for c, s in enumerate(scores):
        if not math.isnan(s) and _is_better(s, best_value, objective):
            best, best_value = c, s
    return best, best_value


class TestSearchQuality:
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_filtered_pick_equals_sequential_walk(self, objective):
        rng = np.random.default_rng(len(objective))
        for _ in range(500):
            value = float(rng.uniform(-1, 1))
            # Scores on a grid of 1e-12 steps around ``value``, so ties and
            # near-ties with the tolerance are common, plus NaN gaps.
            scores = value + IMPROVE_TOL * rng.integers(-4, 5, size=40).astype(float)
            scores[rng.random(40) < 0.3] += IMPROVE_TOL * rng.uniform(-3, 3)
            scores[rng.random(40) < 0.2] = np.nan
            assert _best_swap(scores, value, objective) == \
                sequential_walk(scores.tolist(), value, objective)

    # Scans as long as the search's (225 candidates at n = 50, m = 5, up to
    # 400 at m = 10) made of runs that move towards the objective in steps
    # of 0.5-1.5 tolerances from near ``value``: each step sets a running
    # record, but one that is within a tolerance of the last pick is no
    # improvement. NaN gaps are scattered over the scan.
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_record_walk_equals_sequential_walk_on_long_scans(self, objective):
        rng = np.random.default_rng(20 + len(objective))
        sign = 1.0 if objective == "minimize" else -1.0
        records = moves = 0
        for _ in range(300):
            value = float(rng.uniform(-1, 1))
            size = int(rng.integers(225, 401))
            steps = IMPROVE_TOL * rng.uniform(0.5, 1.5, size)
            run_start = rng.random(size) < 0.08
            run_start[0] = True
            offsets = np.cumsum(steps)
            base = np.maximum.accumulate(np.where(run_start, np.arange(size), 0))
            offsets -= offsets[base] - IMPROVE_TOL * rng.uniform(-3, 3, size)[base]
            scores = value - sign * offsets
            scores[rng.random(size) < 0.1] = np.nan
            assert _best_swap(scores, value, objective) == \
                sequential_walk(scores.tolist(), value, objective)
            record, best = math.inf, value
            for score in scores.tolist():
                if _is_better(score, value, objective):
                    records += sign * score < record
                    record = min(record, sign * score)
                if _is_better(score, best, objective):
                    moves, best = moves + 1, score
        # Over a quarter of the records the runs set improve on no pick.
        assert records - moves > records // 4

    @pytest.mark.parametrize("objective, k, expected", [
        ("minimize", 100, (7, 10, 15, 18, 21, 27, 35, 38, 39, 41)),
        ("minimize", 440, (0, 8, 11, 18, 22, 28, 32, 35, 40, 43)),
        ("maximize", 100, (6, 14, 17, 25, 26, 30, 32, 34, 36, 43)),
        ("maximize", 440, (5, 9, 19, 31, 33, 38, 39, 45, 47, 49)),
    ])
    def test_m10_subsets_on_windows(self, objective, k, expected):
        # Subsets recorded from the search before its candidate walk was
        # filtered; m=10 with 20 restarts takes several scans per start.
        config = WindowConfig()
        window = regime_switch().window(k, k + config.T)
        rho, _ = correlation_matrix(window, config.input_mode)
        g = build_complete_graph(distance_from_correlation(rho, config.transform), rho,
                                 nodes=window.tickers)
        nodes, _ = extremal_subgraph(g, SubsampleConfig(m=10, objective=objective))
        assert nodes == tuple(f"A{i:03d}" for i in expected)

    def test_match_rate_against_oracle(self):
        """With restarts the local search should recover the global
        optimum on nearly all small instances (exact threshold is
        enforced at the acceptance level)."""
        hits = 0
        trials = 20
        for t in range(trials):
            g = random_instance(9_000 + t, n_low=6, n_high=8).graph
            cfg = SubsampleConfig(m=3, seed=t, restarts=20)
            _, report = extremal_subgraph(g, cfg)
            _, best = exhaustive_extremum(g, 3, "minimize")
            assert report.average >= best - 1e-12
            if report.average <= best + 1e-9:
                hits += 1
        assert hits >= int(0.9 * trials)


def two_call_search(n, subset, config, score):
    """`_local_search` as first written: the start scored alone, then one
    call per swap scan."""
    value = float(score(np.array([subset], dtype=np.intp))[0])
    if math.isnan(value):
        raise GraphError("initial subset does not induce a connected subgraph")
    for _ in range(config.max_iters):
        outside = np.delete(np.arange(n), subset)
        best, best_value = _best_swap(score(_swap_candidates(subset, outside)), value,
                                      config.objective)
        if best is None:
            break
        i, j = divmod(best, outside.size)
        subset = tuple(sorted(subset[:i] + (int(outside[j]),) + subset[i + 1:]))
        value = best_value
    return subset, value


def scorer_spy(score):
    """``score``, recording each call's candidates and scores."""
    calls = []

    def spy(rows):
        calls.append((rows.copy(), score(rows)))
        return calls[-1][1]
    return spy, calls


class TestLocalSearch:
    # Each swap scan is one scorer call; the first used to be two, as the
    # start was scored alone. The first call's row 0 is the start, and the
    # search takes that row's score, which equals the start's score alone:
    # a search that never moves (uniform on K_n, where every subset ties)
    # returns it, and every search ends where the two-call search does,
    # with the same bits. Hosts: a weighted K_12 (closed-form scorer) and
    # random connected hosts of 9-11 nodes (engine scorer).
    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    @pytest.mark.parametrize("host", ["complete", "sparse"])
    def test_one_scorer_call_per_scan(self, host, weighting, objective):
        rng = np.random.default_rng(len(objective) + 10 * len(weighting))
        for seed in range(4):
            if host == "complete":
                adj, w = _dense(random_complete_graph(rng, 12)[0])
                score = _clique_scorer(adj, w, weighting)
            else:
                adj, w = _dense(random_instance(seed, n_low=9, n_high=11).graph)
                score = _generic_scorer(adj, w, "edges", weighting)
            n, m = len(adj), 3 + seed % 3
            config = SubsampleConfig(m=m, objective=objective, max_iters=6)
            start = _grow_connected_subset(adj, m, random.Random(seed))
            spy, calls = scorer_spy(score)
            old_spy, old_calls = scorer_spy(score)
            found = _local_search(n, start, config, spy)
            assert found == two_call_search(n, start, config, old_spy)
            assert len(calls) == len(old_calls) - 1
            (first, scores), lone = calls[0], old_calls[0][1]
            assert first[0].tolist() == list(start) and len(first) == m * (n - m) + 1
            assert np.array_equal(first[1:], _swap_candidates(start, np.delete(np.arange(n),
                                                                               start)))
            assert scores[0] == lone[0] == score(np.array([start]))[0]
            assert all(len(rows) == m * (n - m) for rows, _ in calls[1:])
            if host == "complete" and weighting == "uniform":
                assert found == (start, lone[0])

    # Subsets and RNG states recorded from the growth that rebuilt its
    # frontier from every chosen row. On the first two hosts, growth from a
    # start in the component smaller than m (nodes 0..small - 1) stalls after
    # drawing from it, and moves on to the next shuffled start (seeds 0 and
    # 3); every draw, the shuffle of all starts included, advances the
    # seeded RNG.
    @pytest.mark.parametrize("host, m, expected", [
        ("cycle_and_path", 6, [
            ((6, 7, 8, 9, 10, 11), "e6c64575c2af555d"), ((5, 6, 7, 8, 9, 10), "7a0c39220e956136"),
            ((6, 7, 8, 9, 10, 11), "375e67674bcb35a7"), ((5, 6, 7, 8, 9, 10), "5dedf03c286ea0e1"),
            ((6, 7, 8, 9, 10, 11), "bbdeadf2d02fc829"), ((6, 7, 8, 9, 10, 11), "ed68cadaf1a16d4c")]),
        ("star_and_path", 5, [
            ((7, 8, 9, 10, 11), "8232a4a293c3f287"), ((6, 7, 8, 9, 10), "6afa9dc19acfe2b7"),
            ((7, 8, 9, 10, 11), "21f846fdda356844"), ((6, 7, 8, 9, 10), "f582625fc22a8c25"),
            ((7, 8, 9, 10, 11), "3220e487eb8341b7"), ((7, 8, 9, 10, 11), "9cb205a5cd1f23f9")]),
        ("star", 4, [
            ((0, 3, 6, 7), "148df32106bb23fe"), ((0, 1, 5, 6), "276dee4834b7e9f4"),
            ((0, 3, 6, 8), "1ac3868a66ed319d"), ((0, 1, 4, 7), "ed8b87ecad42ddde"),
            ((0, 1, 2, 6), "412ad545c71b5ba6"), ((0, 1, 2, 3), "cc98d698a0a99e90")]),
        ("path", 5, [
            ((4, 5, 6, 7, 8), "9f6f08c655067b12"), ((2, 3, 4, 5, 6), "c6614392da23ef11"),
            ((1, 2, 3, 4, 5), "21f846fdda356844"), ((0, 1, 2, 3, 4), "0f24fc28fff8af94"),
            ((0, 1, 2, 3, 4), "de9051db691abdb1"), ((0, 1, 2, 3, 4), "0c462f5965217599")]),
    ])
    def test_growth_subsets_and_draws_are_pinned(self, host, m, expected):
        def path(a, b):
            return [(i, i + 1) for i in range(a, b)]

        edges, n, small = {
            "cycle_and_path": ([(i, (i + 1) % 5) for i in range(5)] + path(5, 11), 12, 5),
            "star_and_path": ([(0, i) for i in range(1, 4)] + path(4, 11), 12, 4),
            "star": ([(0, i) for i in range(1, 9)], 9, 0),
            "path": (path(0, 8), 9, 0),
        }[host]
        adj = np.zeros((n, n), dtype=bool)
        for a, b in edges:
            adj[a, b] = adj[b, a] = True
        stalls = []
        for seed, (subset, state) in enumerate(expected):
            rng = random.Random(seed)
            assert _grow_connected_subset(adj, m, rng) == subset
            assert hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()[:16] == state
            starts = list(range(n))
            random.Random(seed).shuffle(starts)
            if starts[0] < small:
                stalls.append(seed)
        assert stalls == ([0, 3] if small else [])

    # A start whose induced subgraph is disconnected (three leaves of a
    # star) still raises, after the one call that scores it.
    def test_disconnected_start_raises(self):
        adj, w = _dense(star_graph(6))
        spy, calls = scorer_spy(_generic_scorer(adj, w, "edges", "edge_weight"))
        with pytest.raises(GraphError, match="initial subset"):
            _local_search(6, (1, 2, 3), SubsampleConfig(m=3), spy)
        assert len(calls) == 1 and math.isnan(calls[0][1][0])


# ---------------------------------------------------------------------------
# Closed-form scoring on complete hosts
# ---------------------------------------------------------------------------


def random_complete_graph(rng, n):
    """Weighted K_n with about a fifth of the weights zero, and every
    edge at one node zero so that its measure falls back to uniform.
    Returns the graph and that node."""
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    w = rng.uniform(0.05, 2.0, size=len(edges))
    w[rng.random(len(edges)) < 0.2] = 0.0
    dead = int(rng.integers(n))
    w[[dead in e for e in edges]] = 0.0
    graph = MarketGraph(nodes=tuple(range(n)), edges=edges,
                        weights=dict(zip(edges, w.tolist())))
    return graph, dead


def clique_formula(adj, w, weighting, candidates):
    """`_clique_scorer`'s scores as first written: the candidates' adjacency
    and weight blocks through `_measure_rows`, sorted down each column."""
    m = candidates.shape[1]
    block = (candidates[:, :, None], candidates[:, None, :])
    mu = _measure_rows(adj[block], w[block], weighting)
    above = np.arange(m - 1, -1, -1, dtype=float)
    return (np.sort(mu, axis=1).sum(axis=2) * above).sum(axis=1) / (m * (m - 1) / 2)


class TestCliqueScorer:
    # Same bits as the first formula, which sums along the columns of a
    # (k-th smallest, v) layout; m >= 9 puts those sums on numpy's pairwise
    # branch. The first candidate holds the node with no positive weight.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    @pytest.mark.parametrize("m", range(2, 13))
    def test_bits_equal_first_formula(self, m, weighting):
        rng = np.random.default_rng(200 + m + len(weighting))
        for _ in range(3):
            g, dead = random_complete_graph(rng, 14)
            adj, w = _dense(g)
            others = [v for v in g.nodes if v != dead]
            candidates = np.array([[dead, *others[:m - 1]]]
                                  + [rng.permutation(g.n)[:m] for _ in range(40)])
            assert np.array_equal(_clique_scorer(adj, w, weighting)(candidates),
                                  clique_formula(adj, w, weighting, candidates))

    # A score does not depend on its row's position in the call or on the
    # CLIQUE_BATCH cuts: one candidate per block, two, and five with a
    # remainder.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("batch", [1, 50, 125])
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_scores_do_not_depend_on_order_or_batches(self, monkeypatch, weighting, batch):
        rng = np.random.default_rng(batch + len(weighting))
        g, dead = random_complete_graph(rng, 12)
        adj, w = _dense(g)
        others = [v for v in g.nodes if v != dead]
        candidates = np.array([[dead, *others[:4]]]
                              + [rng.permutation(g.n)[:5] for _ in range(36)])
        whole = _clique_scorer(adj, w, weighting)(candidates)
        order = rng.permutation(len(candidates))
        monkeypatch.setattr(subsample, "CLIQUE_BATCH", batch)
        assert np.array_equal(_clique_scorer(adj, w, weighting)(candidates[order]),
                              whole[order])

    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    @pytest.mark.parametrize("mode", AVERAGING_MODES)
    @pytest.mark.parametrize("m", range(2, 7))
    def test_matches_engine_on_random_subsets(self, monkeypatch, m, mode, weighting):
        # Blocks of two candidates, so the batching seams are covered.
        monkeypatch.setattr("ricci_fragility.subsample.CLIQUE_BATCH", 2 * m * m)
        rng = np.random.default_rng(100 * m + len(mode) + len(weighting))
        g, dead = random_complete_graph(rng, 9)
        others = [v for v in g.nodes if v != dead]
        # Positions in arbitrary order within a row; the first row holds
        # the node with no positive weight.
        candidates = np.array([[dead, *others[:m - 1]]]
                              + [rng.permutation(g.n)[:m] for _ in range(6)])
        scores = _clique_scorer(*_dense(g), weighting)(candidates)
        for row, score in zip(candidates, scores):
            sub = induced_subgraph(g, tuple(sorted(int(v) for v in row)))
            expected = average_curvature(sub, mode=mode, weighting=weighting).average
            assert score == pytest.approx(expected, abs=1e-12)

    def test_uniform_value_is_jost_liu_equality_case(self):
        g, _ = random_complete_graph(np.random.default_rng(3), 8)
        for m in range(2, 8):
            (score,) = _clique_scorer(*_dense(g), "uniform")(np.arange(m)[None, :])
            assert score == pytest.approx((m - 2) / (m - 1), abs=1e-15)

    @pytest.fixture(scope="class")
    def regime_panel(self):
        return regime_switch()

    # Calm, transition and crisis windows of the default corpus.
    @pytest.mark.parametrize("k", [100, 300, 420])
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_search_matches_engine_scoring_on_windows(self, regime_panel, k, objective):
        config = WindowConfig()
        window = regime_panel.window(k, k + config.T)
        rho, _ = correlation_matrix(window, config.input_mode)
        g = build_complete_graph(distance_from_correlation(rho, config.transform), rho,
                                 nodes=window.tickers)
        sub_config = SubsampleConfig(m=5, objective=objective, seed=k, max_iters=3,
                                     restarts=0)
        nodes, report = extremal_subgraph(g, sub_config)

        adj, w = _dense(g)
        start = _grow_connected_subset(adj, 5, random.Random(k))
        subset, value = _local_search(g.n, start, sub_config,
                                      _generic_scorer(adj, w, "edges", "edge_weight"))
        assert subset != start
        assert nodes == tuple(g.nodes[p] for p in subset)
        assert report.average == pytest.approx(value, abs=1e-12)

    # The rolling pipeline searches on the window's distance matrix; the
    # public route builds the complete window graph first.
    @pytest.mark.parametrize("mode", AVERAGING_MODES)
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("k", [100, 300, 440])
    def test_window_extremum_equals_public_route(self, regime_panel, k, objective, weighting,
                                                  mode):
        config = WindowConfig(weighting=weighting, averaging_mode=mode)
        window = regime_panel.window(k, k + config.T)
        sub_config = SubsampleConfig(m=6, objective=objective, seed=k, restarts=2)
        rho, _ = correlation_matrix(window, config.input_mode)
        dist = distance_from_correlation(rho, config.transform)
        ((value, subset),) = _stack_extrema(None, dist[None], config, sub_config)
        g = build_complete_graph(dist, rho, nodes=window.tickers)
        nodes, report = extremal_subgraph(g, sub_config, mode, weighting)
        assert tuple(window.tickers[p] for p in subset) == nodes
        assert value == pytest.approx(report.average, abs=1e-12)

    def test_window_path_builds_no_graph_or_node_measure(self, monkeypatch):
        def refuse(self):
            raise AssertionError(f"{type(self).__name__} built on the window path")

        panel = iid(n_assets=8, n_dates=30, seed=4)
        monkeypatch.setattr(MarketGraph, "__post_init__", refuse)
        monkeypatch.setattr(NodeMeasure, "__post_init__", refuse)
        series, subsets = subsample_indicator_series(
            panel, WindowConfig(T=12), SubsampleConfig(m=3, restarts=1))
        assert series.gap_count() == 0 and all(len(s) == 3 for s in subsets)

    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_never_beats_exhaustive_optimum(self, objective, weighting):
        rng = np.random.default_rng(len(objective) + 7 * len(weighting))
        sign = 1.0 if objective == "minimize" else -1.0
        for t in range(12):
            n = int(rng.integers(4, 9))
            m = int(rng.integers(2, n))
            g, _ = random_complete_graph(rng, n)
            _, report = extremal_subgraph(
                g, SubsampleConfig(m=m, objective=objective, seed=t, restarts=2),
                weighting=weighting)
            _, best = exhaustive_extremum(g, m, objective, weighting=weighting)
            assert sign * report.average >= sign * best - 1e-12


# ---------------------------------------------------------------------------
# Engine scoring in stacks
# ---------------------------------------------------------------------------


def sparse_scan(seed, m):
    """A connected random host of 9-11 nodes (nodes are their positions) and
    one swap scan of it from a connected m-subset."""
    g = random_instance(seed, n_low=9, n_high=11).graph
    adj, w = _dense(g)
    start = _grow_connected_subset(adj, m, random.Random(seed))
    return g, adj, w, _swap_candidates(start, np.delete(np.arange(g.n), start))


class TestStackedScoring:
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    @pytest.mark.parametrize("mode", AVERAGING_MODES)
    def test_scan_scores_equal_public_route(self, mode, weighting):
        gaps = scored = 0
        for seed in range(6):
            g, adj, w, candidates = sparse_scan(seed, 4)
            scores = _generic_scorer(adj, w, mode, weighting)(candidates)
            assert scores.shape == (len(candidates),)
            for row, score in zip(candidates, scores):
                report = _evaluate(g, tuple(sorted(row.tolist())), mode, weighting)
                if report is None:
                    assert math.isnan(score)
                    gaps += 1
                else:
                    assert score == report.average
                    scored += 1
        assert gaps > 0 and scored > 0

    # The candidates are cut into blocks of CLIQUE_BATCH // (m * m): one
    # candidate per block (a budget under one candidate's cells, or exactly
    # one), two, and three with a remainder.
    @pytest.mark.parametrize("batch", [1, 16, 32, 53])
    @pytest.mark.parametrize("mode", AVERAGING_MODES)
    def test_scan_scores_do_not_depend_on_batches(self, monkeypatch, mode, batch):
        scans = [sparse_scan(seed, 4)[1:] for seed in range(4)]
        whole = [_generic_scorer(adj, w, mode, "edge_weight")(c) for adj, w, c in scans]
        monkeypatch.setattr(subsample, "CLIQUE_BATCH", batch)
        for (adj, w, candidates), expected in zip(scans, whole):
            cut = _generic_scorer(adj, w, mode, "edge_weight")(candidates)
            assert np.array_equal(cut, expected, equal_nan=True)
        assert np.isnan(np.concatenate(whole)).any()

    @pytest.mark.parametrize("batch", [1, 72, 108])
    def test_stacked_windows_do_not_depend_on_batches(self, monkeypatch, batch):
        config = WindowConfig(averaging_mode="pairs")
        prices = regime_switch()
        dist = np.stack([distance_from_correlation(
            correlation_matrix(prices.window(k, k + config.T))[0], config.transform)
            for k in (100, 300, 360, 440, 460)])
        adj = ~np.eye(dist.shape[1], dtype=bool)
        subsets = np.sort(np.random.default_rng(5).random((5, dist.shape[1])).argsort(axis=1)
                          [:, :6], axis=1)
        alone = [_subset_averages(adj, d, row[None], "pairs", "edge_weight")[0]
                 for d, row in zip(dist, subsets)]
        monkeypatch.setattr(subsample, "CLIQUE_BATCH", batch)
        assert _subset_averages(adj, dist, subsets, "pairs", "edge_weight").tolist() == alone

    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_series_does_not_depend_on_stacks(self, monkeypatch, weighting):
        # Rows 300..480 cross the regime switch; by default their 50 windows
        # run as stacks of 10 down to 1 as the windows' graphs grow.
        prices = regime_switch().window(300, 481)
        config = WindowConfig(weighting=weighting)
        sub_config = SubsampleConfig(m=5, restarts=1, max_iters=2)
        stack_extrema, sizes, runs = subsample._stack_extrema, [], []

        def spy(high, dist, *args, **kwargs):
            sizes.append(len(dist))
            return stack_extrema(high, dist, *args, **kwargs)

        monkeypatch.setattr(subsample, "_stack_extrema", spy)
        for budget in (indicator._STACK_BUDGET, 0):
            monkeypatch.setattr(indicator, "_STACK_BUDGET", budget)
            sizes.clear()
            series, subsets = subsample_indicator_series(prices, config, sub_config)
            runs.append((np.array(series.values).tobytes(), subsets, max(sizes)))
        assert runs[0][2] > 1 and runs[1][2] == 1
        assert runs[0][:2] == runs[1][:2]


# One scan of m (n - m) = 200 candidates of 10 nodes in pairs mode is one
# engine call of about 7,000 node pairs; it stays within the 4 MB window
# budget of the transport memory tests (2.9 MB measured). The first call
# is left untraced: it imports modules that numpy loads lazily.
def test_generic_scan_memory_stays_flat():
    rng = np.random.default_rng(0)
    n, m = 30, 10
    adj = np.triu(rng.random((n, n)) < 0.15, 1)
    adj[np.arange(n - 1), np.arange(1, n)] = True  # a path keeps the host connected
    adj |= adj.T
    w = np.where(adj, rng.uniform(0.05, 2.0, (n, n)), 0.0)
    w = np.triu(w, 1) + np.triu(w, 1).T
    start = _grow_connected_subset(adj, m, random.Random(0))
    candidates = _swap_candidates(start, np.delete(np.arange(n), start))
    score = _generic_scorer(adj, w, "pairs", "edge_weight")
    score(candidates)
    tracemalloc.start()
    try:
        scores = score(candidates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(candidates) == 200 and np.isfinite(scores).sum() > 50
    assert peak < 4e6
