"""Tests for the single-edge perturbation bounds lab."""

import dataclasses
import hashlib
import math
import pickle
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricci_fragility import bounds
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
from ricci_fragility.graphs import MarketGraph, _dense, _hops_with_edge, hop_distances
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
    # sha256 over (bound, pair, label, satisfied) and the raw bytes of
    # lhs, rhs and slack of every report of perfbench's eight `bounds`
    # suites (suite seeds 0..7, weightings alternating, 100 trials) and of
    # sharpness_reports(4..10), recorded before the suite ran on arrays.
    GOLDEN = "f46346263660d4679340c589d9ee5c107ccd7ecfba0191ddad229f98091c51ce"

    def test_reports_match_golden_digest(self):
        reports = []
        for s in range(8):
            reports += run_bounds_suite(100, s, WEIGHTINGS[s % 2]).reports
        for n in range(4, 11):
            reports += sharpness_reports(n)
        digest = hashlib.sha256()
        for r in reports:
            digest.update(repr((r.bound_name, r.pair, r.instance_label, r.satisfied)).encode())
            digest.update(struct.pack("<3d", r.lhs, r.rhs, r.slack))
        assert len(reports) == 7843
        assert digest.hexdigest() == self.GOLDEN

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

    # The suite solves a group of instances' W1 values in shared blocks
    # over a padded stack of hop matrices; every report must be the one
    # the public checks give one pair at a time.
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

    # perfbench's traced pass compares the suite with per-instance checks
    # bit for bit, so grouping must not move a report in the last bit.
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_suite_equals_per_instance_checks_exactly(self, weighting):
        res = run_bounds_suite(trials=60, seed=7, weighting=weighting)
        single = []
        for t in range(60):
            seed = 7 * 1_000_003 + t
            single += run_instance_checks(random_instance(seed),
                                          np.random.default_rng(seed + 500_009), weighting)
        assert list(res.reports) == single

    # A suite solves its instances as stacks, one `_w1_rows` call each,
    # with all the stack's W1 pairs: 100 trials are one stack, and longer
    # suites are cut, in order, into the longest stacks that fit
    # `_STACK_BUDGET` (an instance costs its W1 pairs plus n * n // 25).
    def test_suite_solves_each_stack_in_one_call(self, monkeypatch):
        calls, stacks = [], []
        w1_rows, group_reports = bounds._w1_rows, bounds._group_reports

        def counted_w1_rows(rows, dist, ia, ib):
            calls.append(len(ia))
            return w1_rows(rows, dist, ia, ib)

        def costed_group_reports(group, weighting):
            # (W1 pairs, array term) of each instance of the stack
            stacks.append([(2 * len(pairs) + 2, len(nodes) ** 2 // 25)
                           for _, pairs, nodes, _ in group])
            return group_reports(group, weighting)

        monkeypatch.setattr(bounds, "_w1_rows", counted_w1_rows)
        monkeypatch.setattr(bounds, "_group_reports", costed_group_reports)
        run_bounds_suite(trials=100, seed=0)
        assert len(calls) == len(stacks) == 1 and len(stacks[0]) == 100
        calls.clear(), stacks.clear()
        run_bounds_suite(trials=1000, seed=0)
        assert len(stacks) > 1 and sum(map(len, stacks)) == 1000
        assert calls == [sum(pairs for pairs, _ in stack) for stack in stacks]
        loads = [sum(map(sum, stack)) for stack in stacks]
        assert max(loads) <= bounds._STACK_BUDGET
        assert all(load + sum(nxt[0]) > bounds._STACK_BUDGET
                   for load, nxt in zip(loads, stacks[1:]))

    # A suite holds one stack and one draw batch at a time, whatever its
    # length: its peak past what its reports hold stays inside the window
    # memory budget of `test_transport.py`.
    def test_suite_memory_stays_flat(self):
        run_bounds_suite(trials=20, seed=0)
        tracemalloc.start()
        try:
            res = run_bounds_suite(trials=1000, seed=0)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(res.reports) > 9000
        assert peak - held < 4e6

    # W1 depends on mu - nu only, and mu*_x = (1 - t) mu_x + t delta_y, so
    # the lemma's left side is t * sum_v mu_x(v) d(v, y) exactly, with t =
    # 1/(n_x + 1) (uniform) or w_new / (W_x + w_new) (edge_weight). A check
    # of the stacked W1 values that needs no LP, on the benchmark's suites.
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_lemma_lhs_is_the_closed_form_shift(self, weighting):
        instances, checked = {}, 0
        for s in range(8):
            for r in run_bounds_suite(100, s, weighting).reports:
                if r.bound_name != "lemma_node":
                    continue
                if r.instance_label not in instances:
                    instances[r.instance_label] = random_instance(
                        int(r.instance_label.split("=")[1]))
                inst = instances[r.instance_label]
                (v,) = r.pair
                u = inst.y if v == inst.x else inst.x
                nbrs = {b if a == v else a: wt for (a, b), wt in inst.graph.weights.items()
                        if v in (a, b)}
                w_new = inst.graph_star.weight(inst.x, inst.y)
                if weighting == "uniform":
                    mu, t = dict.fromkeys(nbrs, 1.0 / len(nbrs)), 1.0 / (len(nbrs) + 1)
                else:
                    total = sum(nbrs.values())
                    mu, t = {z: wt / total for z, wt in nbrs.items()}, w_new / (total + w_new)
                want = t * sum(m * inst.hop.dist(z, u) for z, m in mu.items())
                assert r.lhs == pytest.approx(want, abs=1e-12), r
                checked += 1
        assert checked == 2 * 800

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            run_bounds_suite(trials=0)
        with pytest.raises(ConfigError):
            run_bounds_suite(trials=5, weighting="nope")

    def test_rejects_negative_seed_before_drawing(self, monkeypatch):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            random_instance(-1)
        monkeypatch.setattr(bounds, "_draw", lambda *args: pytest.fail("drew an instance"))
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            run_bounds_suite(trials=3, seed=-1)

    # `_sample_pairs` draws each pair as three bounded integers, numpy's own
    # route for `choice(n, 2, replace=False)`. The suite's pairs are pinned by
    # the golden digest, and `run_instance_checks` draws from the caller's
    # generator, so pairs and the generator's state must stay `choice`'s.
    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                               np.random.Philox, np.random.SFC64])
    def test_sampled_pairs_are_choice_draws(self, bit_generator):
        for n in [*range(2, 13), 50, 10_001, 2**32 + 5]:
            for seed in range(200):
                x, y = seed % (n - 1), n - 1
                rng, want_rng = (np.random.Generator(bit_generator(seed)) for _ in range(2))
                assert bounds._sample_pairs(n, x, y, rng) == _choice_pairs(n, x, y, want_rng)
                assert _same_state(rng.bit_generator.state, want_rng.bit_generator.state)
                assert rng.integers(2**63) == want_rng.integers(2**63)


def _choice_pairs(n, x, y, rng):
    """`bounds._sample_pairs` with each pair drawn by `Generator.choice`."""
    pairs = {(x, y)}
    while len(pairs) < min(4, n * (n - 1) // 2):
        pairs.add(tuple(sorted(rng.choice(n, size=2, replace=False).tolist())))
    return sorted(pairs)


def _same_state(got, want):
    """Whether two ``bit_generator.state`` values are equal, arrays included."""
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(_same_state(got[k], want[k]) for k in want)
    return np.array_equal(got, want)


class TestRandomInstance:
    @pytest.mark.parametrize("n_low, n_high", [(2, 2), (2, 6), (0, 4), (5, 4)])
    def test_rejects_bad_size_range(self, n_low, n_high):
        with pytest.raises(ConfigError):
            random_instance(0, n_low=n_low, n_high=n_high)

    @pytest.mark.parametrize("low, high", [(-0.1, 1.0), (1.0, 0.5), (0.05, math.inf),
                                           (math.nan, 1.0), (0.05, math.nan), (0.0, 0.0)])
    def test_rejects_bad_weight_range(self, low, high):
        with pytest.raises(ConfigError):
            random_instance(0, weight_low=low, weight_high=high)

    def test_smallest_size_gives_a_path(self):
        inst = random_instance(3, n_low=3, n_high=3)
        assert inst.graph.n == 3 and inst.graph.edge_count == 2
        assert inst.graph.is_connected()

    def test_zero_weight_high_is_named(self):
        with pytest.raises(ConfigError, match="weight_high > 0"):
            random_instance(0, weight_low=0.0, weight_high=0.0)

    # Every draw fails the connectivity test, so all 1000 draws run; the
    # few complete graphs among them never reach it.
    def test_exhausted_draws_is_data_error(self, monkeypatch):
        tested = []

        def disconnected(adj):
            tested.append(1)
            return np.full(adj.shape, np.inf)

        monkeypatch.setattr("ricci_fragility.bounds._hops", disconnected)
        with pytest.raises(DataError, match="could not generate a connected instance"):
            random_instance(0)
        assert 900 < len(tested) <= 1000

    # The draw keeps its random stream: each instance equals the one a
    # plain draw builds, with both hop matrices from BFS.
    def test_instances_match_a_plain_draw(self):
        for seed in range(200):
            graph, x, y, weight = _plain_draw(seed)
            inst = random_instance(seed)
            assert (inst.x, inst.y, inst.label) == (x, y, f"seed={seed}")
            assert type(inst.x) is int and type(inst.y) is int
            star = MarketGraph(nodes=graph.nodes, edges=graph.edges + ((x, y),),
                               weights={**graph.weights, (x, y): weight})
            for got, want in ((inst.graph, graph), (inst.graph_star, star)):
                assert (got.nodes, got.edges, got.weights) == (want.nodes, want.edges, want.weights)
            assert np.array_equal(inst.hop.matrix, hop_distances(graph).matrix)
            assert np.array_equal(inst.hop_star.matrix, hop_distances(star).matrix)

    # The suite draws arrays and never builds the instance; they must be
    # the instance's own, the new edge's weight included.
    def test_array_draw_equals_random_instance(self):
        for seed in range(200):
            adj, w, hop, x, y, w_new = bounds._draw([seed])[0]
            inst = random_instance(seed)
            assert (x, y, f"seed={seed}") == (inst.x, inst.y, inst.label)
            assert type(x) is int and type(y) is int
            want_adj, want_w = _dense(inst.graph)
            assert np.array_equal(adj, want_adj) and np.array_equal(w, want_w)
            assert w_new == inst.graph_star.weight(x, y)
            assert np.array_equal(hop, inst.hop.matrix)
            assert np.array_equal(_hops_with_edge(hop, x, y), inst.hop_star.matrix)


    # The stacked draw runs one BFS per round on the padded stack of every
    # pending seed's candidate; each seed's arrays are the ones it draws
    # alone, also where its first candidate is complete or disconnected.
    def test_stacked_draw_equals_draws_alone(self, monkeypatch):
        rounds, hops = [], bounds._hops
        monkeypatch.setattr(bounds, "_hops", lambda adj: rounds.append(len(adj)) or hops(adj))
        stacked = bounds._draw(range(400))
        assert rounds[0] == 400 and len(rounds) > 1 and sum(rounds[1:]) < 400
        for seed, arrays in enumerate(stacked):
            alone = bounds._draw([seed])[0]
            assert [type(v) for v in arrays] == [type(v) for v in alone]
            for got, want in zip(arrays, alone):
                assert np.array_equal(got, want)
                assert np.asarray(got).dtype == np.asarray(want).dtype
        first = [_first_candidate(seed) for seed in range(400)]
        assert "complete" in first and "disconnected" in first

    # Off the default ranges a round stacks graphs of 3 to 30 nodes, so a
    # small graph sits deep in zero padding when its connectivity is counted.
    # Each seed's draw must still be the plain one, alone and in a round.
    def test_draws_off_the_default_ranges_match_a_plain_draw(self):
        ranges = (3, 30, 0.5, 0.5)
        stacked = bounds._draw(range(150), *ranges)
        assert {len(arrays[0]) for arrays in stacked} >= {3, 30}
        for seed, (adj, w, hop, x, y, w_new) in enumerate(stacked):
            graph, want_x, want_y, want_w_new = _plain_draw(seed, *ranges)
            want_adj, want_w = _dense(graph)
            assert np.array_equal(adj, want_adj) and np.array_equal(w, want_w)
            assert np.array_equal(hop, hop_distances(graph).matrix)
            assert (x, y, w_new) == (want_x, want_y, want_w_new) == (x, y, 0.5)
            if seed < 40:
                inst = random_instance(seed, *ranges)
                assert (inst.x, inst.y) == (x, y)
                assert (inst.graph.edges, inst.graph.weights) == (graph.edges, graph.weights)

    # A round's draws are views of its shared stacks: any two that share a
    # buffer must both be read-only, and so must the buffer, and the suite,
    # which writes the new edge into its padded copies, must leave every
    # draw as it was drawn.
    def test_draws_sharing_memory_are_read_only(self):
        arrays = [a for draw in bounds._draw(range(60)) for a in draw[:3]]
        shared = 0
        for k, a in enumerate(arrays):
            for b in arrays[k + 1:]:
                if a.base is not None and a.base is b.base:
                    shared += 1
                    assert not (a.flags.writeable or b.flags.writeable
                                or a.base.flags.writeable)
        assert shared > 0
        with pytest.raises(ValueError, match="read-only"):
            arrays[0][0, 0] = 1

    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_suite_leaves_draws_unchanged(self, monkeypatch, weighting):
        drawn, draw = [], bounds._draw

        def recorded(seeds):
            draws = draw(seeds)
            drawn.extend((arrays, [np.array(a) for a in arrays[:3]]) for arrays in draws)
            return draws

        monkeypatch.setattr(bounds, "_draw", recorded)
        run_bounds_suite(trials=400, seed=5, weighting=weighting)
        assert len(drawn) == 400
        for arrays, copies in drawn:
            assert all(np.array_equal(a, c) for a, c in zip(arrays, copies))


def _first_candidate(seed):
    """Whether the first candidate graph of ``seed``'s stream is complete,
    disconnected or connected with an absent edge."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    p = float(rng.uniform(0.25, 0.75))
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p)
    if len(edges) == n * (n - 1) // 2:
        return "complete"
    graph = MarketGraph(nodes=tuple(range(n)), edges=edges, weights=dict.fromkeys(edges, 1.0))
    return "connected" if graph.is_connected() else "disconnected"


def _plain_draw(seed, n_low=4, n_high=12, weight_low=0.05, weight_high=2.0):
    """``random_instance``'s draw one value at a time: the graph, the new
    edge and its weight, with connectivity tested on the built graph."""
    rng = np.random.default_rng(seed)
    while True:
        n = int(rng.integers(n_low, n_high + 1))
        p = float(rng.uniform(0.25, 0.75))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        if len(edges) == n * (n - 1) // 2:
            continue
        weights = {e: float(rng.uniform(weight_low, weight_high)) for e in edges}
        graph = MarketGraph(nodes=tuple(range(n)), edges=tuple(edges), weights=weights)
        if not graph.is_connected():
            continue
        absent = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in weights]
        x, y = absent[int(rng.integers(len(absent)))]
        return graph, x, y, float(rng.uniform(weight_low, weight_high))


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

    # The suite keeps thousands of reports; slots drop each one's dict.
    def test_slotted_value_object(self):
        r = run_bounds_suite(trials=1, seed=0).reports[0]
        assert not hasattr(r, "__dict__")
        again = pickle.loads(pickle.dumps(r))
        assert again == r and hash(again) == hash(r)
        assert BoundReport(**dataclasses.asdict(r)) == r
        assert set(dataclasses.asdict(r)) == {"bound_name", "lhs", "rhs", "slack", "satisfied",
                                              "pair", "instance_label"}
        assert r != dataclasses.replace(r, slack=r.slack + 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.lhs = 0.0
