"""Tests for the single-edge perturbation bounds lab."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricci_fragility.bounds import (
    BOUND_NAMES,
    BoundReport,
    BoundsSuiteResult,
    add_edge_instance,
    check_lemma_affected,
    check_prop1,
    check_prop2,
    kn_minus_edge_instance,
    random_instance,
    run_bounds_suite,
    run_instance_checks,
    sharpness_reports,
    sup_distance_change,
)
from ricci_fragility.errors import ConfigError, DataError, DisconnectedGraphError, GraphError
from ricci_fragility.graphs import MarketGraph
from ricci_fragility.transport import WEIGHTINGS, edge_curvature


def path_graph(n, weights=None):
    edges = tuple((i, i + 1) for i in range(n - 1))
    if weights is None:
        weights = {e: 1.0 for e in edges}
    else:
        weights = dict(zip(edges, weights))
    return MarketGraph(nodes=tuple(range(n)), edges=edges, weights=weights)


# ---------------------------------------------------------------------------
# Instance construction
# ---------------------------------------------------------------------------


class TestAddEdgeInstance:
    def test_star_graph_gains_edge(self):
        g = path_graph(4)
        inst = add_edge_instance(g, 0, 3)
        assert inst.graph_star.has_edge(0, 3)
        assert not inst.graph.has_edge(0, 3)
        assert inst.graph_star.edge_count == g.edge_count + 1
        assert inst.hop.dist(0, 3) == 3.0
        assert inst.hop_star.dist(0, 3) == 1.0

    def test_rejects_existing_edge(self):
        with pytest.raises(GraphError):
            add_edge_instance(path_graph(4), 0, 1)

    def test_rejects_same_node(self):
        with pytest.raises(GraphError):
            add_edge_instance(path_graph(4), 2, 2)

    def test_rejects_unknown_node(self):
        with pytest.raises(GraphError):
            add_edge_instance(path_graph(4), 0, 99)

    def test_rejects_bad_weight(self):
        g = path_graph(4)
        with pytest.raises(ConfigError):
            add_edge_instance(g, 0, 3, weight=0.0)
        with pytest.raises(ConfigError):
            add_edge_instance(g, 0, 3, weight=math.nan)

    def test_rejects_disconnected_base(self):
        g = MarketGraph(
            nodes=(0, 1, 2, 3),
            edges=((0, 1), (2, 3)),
            weights={(0, 1): 1.0, (2, 3): 1.0},
        )
        with pytest.raises(DisconnectedGraphError):
            add_edge_instance(g, 0, 2)

    def test_correlations_carried_through(self):
        edges = ((0, 1), (1, 2))
        g = MarketGraph(
            nodes=(0, 1, 2),
            edges=edges,
            weights={e: 1.0 for e in edges},
            correlations={e: 0.5 for e in edges},
        )
        inst = add_edge_instance(g, 0, 2)
        assert inst.graph_star.correlation(0, 2) == 1.0
        assert inst.graph_star.correlation(0, 1) == 0.5


class TestSupDistanceChange:
    def test_path_shortcut(self):
        inst = add_edge_instance(path_graph(4), 0, 3)
        # d(0,3): 3 -> 1 is the largest drop.
        assert sup_distance_change(inst) == 2.0

    def test_no_change_when_edge_redundant(self):
        # Adding a chord to a triangle-dense graph that changes no hop distance.
        edges = ((0, 1), (0, 2), (1, 2), (2, 3), (1, 3))
        g = MarketGraph(nodes=(0, 1, 2, 3), edges=edges, weights={e: 1.0 for e in edges})
        inst = add_edge_instance(g, 0, 3)
        assert sup_distance_change(inst) == 1.0  # d(0,3): 2 -> 1 only


# ---------------------------------------------------------------------------
# check_prop1
# ---------------------------------------------------------------------------


class TestProp1:
    def test_first_form_holds_on_path(self):
        inst = add_edge_instance(path_graph(5), 0, 4)
        for a in range(5):
            for b in range(a + 1, 5):
                first, _ = check_prop1(inst, a, b)
                assert first.satisfied, (a, b, first)

    def test_sup_form_skipped_for_endpoint_pairs(self):
        inst = add_edge_instance(path_graph(5), 0, 4)
        first, sup = check_prop1(inst, 0, 2)
        assert first.bound_name == "prop1_first"
        assert sup is None
        first, sup = check_prop1(inst, 1, 2)
        assert sup is not None and sup.bound_name == "prop1_sup"

    def test_sup_form_holds_for_unaffected_pairs(self):
        inst = add_edge_instance(path_graph(6), 0, 5)
        for a in range(1, 5):
            for b in range(a + 1, 5):
                _, sup = check_prop1(inst, a, b)
                assert sup is not None and sup.satisfied, (a, b, sup)

    def test_rejects_identical_pair(self):
        inst = add_edge_instance(path_graph(4), 0, 3)
        with pytest.raises(ConfigError):
            check_prop1(inst, 1, 1)

    def test_rejects_unknown_weighting(self):
        inst = add_edge_instance(path_graph(4), 0, 3)
        with pytest.raises(ConfigError):
            check_prop1(inst, 0, 1, weighting="nope")

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_first_form_universal_on_random_instances(self, seed):
        inst = random_instance(seed, n_high=8)
        rng = np.random.default_rng(seed)
        nodes = list(inst.graph.nodes)
        for _ in range(4):
            a, b = rng.choice(len(nodes), size=2, replace=False)
            first, sup = check_prop1(inst, nodes[int(a)], nodes[int(b)])
            assert first.satisfied, first
            if sup is not None:
                assert sup.satisfied, sup

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_first_form_universal_uniform_weighting(self, seed):
        inst = random_instance(seed, n_high=8)
        rng = np.random.default_rng(seed + 1)
        nodes = list(inst.graph.nodes)
        for _ in range(3):
            a, b = rng.choice(len(nodes), size=2, replace=False)
            first, sup = check_prop1(inst, nodes[int(a)], nodes[int(b)],
                                     weighting="uniform")
            assert first.satisfied, first
            if sup is not None:
                assert sup.satisfied, sup


# ---------------------------------------------------------------------------
# Affected-node lemma
# ---------------------------------------------------------------------------


class TestLemmaAffected:
    def test_counterexample_path_plus_chord(self):
        """The 1/(n+1) measure-shift claim fails on a four-node path.

        Path 3 - 0 - 2 - 1 with the new edge (0, 1): node 0 had degree 2,
        so the claimed bound is 1/3, but the exact shift is
        (d(3,1) + d(2,1)) / 6 = (3 + 1) / 6 = 2/3.
        """
        g = MarketGraph(
            nodes=(3, 0, 2, 1),
            edges=((0, 3), (0, 2), (1, 2)),
            weights={(0, 3): 1.0, (0, 2): 1.0, (1, 2): 1.0},
        )
        inst = add_edge_instance(g, 0, 1)
        report = check_lemma_affected(inst, "x", weighting="uniform")
        assert report.bound_name == "lemma_node"
        assert report.rhs == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert report.lhs == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert not report.satisfied

    def test_tight_on_complete_graph_restoration(self):
        """When every old neighbour of x is adjacent to y the bound is met
        with equality (all new mass travels exactly one hop)."""
        inst = kn_minus_edge_instance(4)
        report = check_lemma_affected(inst, "x", weighting="uniform")
        assert report.satisfied
        assert report.slack == pytest.approx(0.0, abs=1e-12)

    def test_which_selects_endpoint(self):
        inst = add_edge_instance(path_graph(4), 0, 3)
        rx = check_lemma_affected(inst, "x")
        ry = check_lemma_affected(inst, "y")
        assert rx.pair == (0,)
        assert ry.pair == (3,)
        with pytest.raises(ConfigError):
            check_lemma_affected(inst, "z")


# ---------------------------------------------------------------------------
# check_prop2
# ---------------------------------------------------------------------------


class TestProp2:
    def test_triangle_closure_example(self):
        """Closing a 3-path into a triangle: the first-form right side is
        (1 + 1/2 + 1/2) / 1 = 2 and the jump is 1/2 - 1 = -1/2."""
        inst = add_edge_instance(path_graph(3), 0, 2)
        first, relaxed = check_prop2(inst, weighting="uniform")
        assert first.rhs == pytest.approx(2.0, abs=1e-12)
        assert first.lhs == pytest.approx(-0.5, abs=1e-12)
        assert first.satisfied
        assert relaxed.rhs == pytest.approx(3.0, abs=1e-12)
        assert relaxed.satisfied

    def test_relaxed_never_tighter(self):
        for seed in range(40):
            inst = random_instance(seed)
            first, relaxed = check_prop2(inst)
            assert relaxed.rhs >= first.rhs - 1e-12
            assert first.satisfied and relaxed.satisfied, (first, relaxed)

    def test_pair_is_new_edge(self):
        inst = add_edge_instance(path_graph(4), 0, 3)
        first, relaxed = check_prop2(inst)
        assert first.pair == (0, 3)
        assert relaxed.pair == (0, 3)

    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_jump_equals_edge_curvature_difference(self, weighting):
        # prop2 reuses prop1's (x, y) solves; the jump must equal the
        # direct curvature difference bit for bit, also inside the suite.
        for seed in range(10):
            inst = random_instance(seed)
            jump = (edge_curvature(inst.graph_star, inst.hop_star, inst.x, inst.y, weighting)
                    - edge_curvature(inst.graph, inst.hop, inst.x, inst.y, weighting))
            reports = check_prop2(inst, weighting)
            assert [r.lhs for r in reports] == [jump, jump]
            suite = run_instance_checks(inst, np.random.default_rng(seed), weighting)
            assert [r for r in suite if r.bound_name.startswith("prop2")] == list(reports)

    def test_unknown_node_is_graph_error(self):
        inst = add_edge_instance(path_graph(4), 0, 3)
        with pytest.raises(GraphError):
            check_prop1(inst, 0, 9)


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------


class TestSuite:
    def test_structure_and_determinism(self):
        res1 = run_bounds_suite(trials=10, seed=3)
        res2 = run_bounds_suite(trials=10, seed=3)
        assert res1.reports == res2.reports
        summary = res1.summary()
        for name in ("prop1_first", "lemma_node", "prop2_first", "prop2_sup"):
            assert name in summary
            assert summary[name]["count"] > 0
        assert all(r.bound_name in BOUND_NAMES for r in res1.reports)

    def test_sound_bounds_have_no_violations(self):
        res = run_bounds_suite(trials=25, seed=11)
        for r in res.reports:
            if r.bound_name in ("prop1_first", "prop1_sup", "prop2_first", "prop2_sup"):
                assert r.satisfied, r

    def test_violations_are_replayable(self):
        res = run_bounds_suite(trials=60, seed=2)
        for r in res.violations():
            assert r.bound_name == "lemma_node"
            assert r.instance_label.startswith("seed=")
            seed = int(r.instance_label.split("=")[1])
            inst = random_instance(seed)
            which = "x" if r.pair[0] == inst.x else "y"
            again = check_lemma_affected(inst, which, res.weighting)
            assert again.lhs == pytest.approx(r.lhs, abs=1e-12)

    # The suite solves each instance's W1 values in three blocks; every
    # report must be the one the public checks give one pair at a time.
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_batched_checks_match_one_pair_at_a_time(self, weighting):
        res = run_bounds_suite(trials=60, seed=7, weighting=weighting)
        labels = list(dict.fromkeys(r.instance_label for r in res.reports))
        assert len(labels) == 60
        single = []
        for label in labels:
            inst = random_instance(int(label.split("=")[1]))
            for r in res.reports:
                if r.instance_label == label and r.bound_name == "prop1_first":
                    first, sup = check_prop1(inst, *r.pair, weighting)
                    single += [first] if sup is None else [first, sup]
            single += [check_lemma_affected(inst, which, weighting) for which in "xy"]
            single += check_prop2(inst, weighting)
        assert ([(r.bound_name, r.pair, r.satisfied, r.instance_label) for r in res.reports]
                == [(r.bound_name, r.pair, r.satisfied, r.instance_label) for r in single])
        for got, want in zip(res.reports, single):
            assert got.lhs == pytest.approx(want.lhs, abs=1e-12)
            assert got.rhs == pytest.approx(want.rhs, abs=1e-12)
        want = BoundsSuiteResult(reports=tuple(single), trials=60, seed=7,
                                 weighting=weighting).summary()
        got = res.summary()
        assert list(got) == list(want)
        for name in got:
            assert got[name]["count"] == want[name]["count"]
            assert got[name]["violations"] == want[name]["violations"]
            assert got[name]["min_slack"] == pytest.approx(want[name]["min_slack"], abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            run_bounds_suite(trials=0)
        with pytest.raises(ConfigError):
            run_bounds_suite(trials=5, weighting="nope")


class TestRandomInstance:
    @pytest.mark.parametrize("n_low, n_high", [(2, 2), (2, 6), (0, 4), (5, 4)])
    def test_rejects_bad_size_range(self, n_low, n_high):
        with pytest.raises(ConfigError):
            random_instance(0, n_low=n_low, n_high=n_high)

    @pytest.mark.parametrize("low, high", [(-0.1, 1.0), (1.0, 0.5), (0.05, math.inf),
                                           (math.nan, 1.0), (0.05, math.nan)])
    def test_rejects_bad_weight_range(self, low, high):
        with pytest.raises(ConfigError):
            random_instance(0, weight_low=low, weight_high=high)

    def test_smallest_size_gives_a_path(self):
        inst = random_instance(3, n_low=3, n_high=3)
        assert inst.graph.n == 3 and inst.graph.edge_count == 2
        assert inst.graph.is_connected()

    def test_exhausted_draws_is_data_error(self, monkeypatch):
        def reject(*args, **kwargs):
            raise GraphError("rejected")

        monkeypatch.setattr("ricci_fragility.bounds.MarketGraph", reject)
        with pytest.raises(DataError):
            random_instance(0)


# ---------------------------------------------------------------------------
# Sharpness family
# ---------------------------------------------------------------------------


class TestSharpness:
    @pytest.mark.parametrize("n", range(4, 9))
    def test_every_pair_slack_zero(self, n):
        reports = sharpness_reports(n)
        assert len(reports) == n * (n - 1) // 2
        for r in reports:
            assert abs(r.slack) <= 1e-12, r

    def test_restored_pair_jump_matches_closed_form(self):
        n = 6
        inst = kn_minus_edge_instance(n)
        first, _ = check_prop1(inst, 0, 1, weighting="uniform")
        # kappa(0,1) = 1 before (identical measures), (n-2)/(n-1) after.
        assert first.lhs == pytest.approx((n - 2) / (n - 1) - 1.0, abs=1e-12)

    def test_requires_n_at_least_four(self):
        with pytest.raises(ConfigError):
            kn_minus_edge_instance(3)


class TestBoundReport:
    def test_fields(self):
        r = BoundReport(bound_name="prop1_first", lhs=0.1, rhs=0.2,
                        slack=0.1, satisfied=True, pair=(0, 1))
        assert r.slack == pytest.approx(r.rhs - r.lhs)
