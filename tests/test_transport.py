"""Neighbor measures, exact W1, the exhaustive oracle, and curvature."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from ricci_fragility import transport
from ricci_fragility.errors import (
    ConfigError,
    DataError,
    DisconnectedGraphError,
    GraphError,
    InfiniteDistanceError,
    OracleBudgetError,
    SolverError,
)
from ricci_fragility.graphs import HopDistanceMatrix, MarketGraph, hop_distances
from ricci_fragility.indicator import WindowConfig, window_graph
from ricci_fragility.synthetic import regime_switch
from ricci_fragility.transport import (
    WEIGHTINGS,
    NodeMeasure,
    average_curvature,
    edge_curvature,
    node_measure,
    wasserstein1,
    wasserstein1_cost,
    wasserstein1_oracle,
)


def _graph(n, edges, weights=None):
    edges = tuple(edges)
    if weights is None:
        weights = {e: 1.0 for e in edges}
    return MarketGraph(nodes=tuple(range(n)), edges=edges, weights=weights)


def _complete_graph(n):
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return _graph(n, edges)


def _path_graph(n):
    return _graph(n, ((i, i + 1) for i in range(n - 1)))


def _star_graph(n):
    return _graph(n, ((0, i) for i in range(1, n)))


def _kn_minus_edge(n):
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n) if (i, j) != (0, 1))
    return _graph(n, edges)


# ---------------------------------------------------------------------------
# NodeMeasure / node_measure
# ---------------------------------------------------------------------------


def test_node_measure_edge_weight_proportional():
    g = _graph(3, [(0, 1), (0, 2)], {(0, 1): 3.0, (0, 2): 1.0})
    mu = node_measure(g, 0)
    assert mu.support == (1, 2)
    assert mu.masses == pytest.approx([0.75, 0.25])


def test_node_measure_uniform():
    g = _graph(3, [(0, 1), (0, 2)], {(0, 1): 3.0, (0, 2): 1.0})
    mu = node_measure(g, 0, weighting="uniform")
    assert mu.masses == pytest.approx([0.5, 0.5])


def test_node_measure_all_zero_weights_falls_back_to_uniform():
    g = _graph(3, [(0, 1), (0, 2)], {(0, 1): 0.0, (0, 2): 0.0})
    mu = node_measure(g, 0)
    assert mu.support == (1, 2)
    assert mu.masses == pytest.approx([0.5, 0.5])


def test_node_measure_drops_zero_weight_atom():
    g = _graph(3, [(0, 1), (0, 2)], {(0, 1): 0.0, (0, 2): 2.0})
    mu = node_measure(g, 0)
    assert mu.support == (2,)
    assert mu.masses == pytest.approx([1.0])


def test_node_measure_isolated_node_raises():
    g = _graph(4, [(0, 1), (1, 2)])
    with pytest.raises(DataError):
        node_measure(g, 3)


def test_node_measure_unknown_weighting():
    with pytest.raises(ConfigError):
        node_measure(_path_graph(3), 0, weighting="degree")


def test_node_measure_validation():
    with pytest.raises(DataError):
        NodeMeasure(support=(0, 1), masses=np.array([0.5, 0.6]))
    with pytest.raises(DataError):
        NodeMeasure(support=(0, 1), masses=np.array([1.0, 0.0]))
    with pytest.raises(DataError):
        NodeMeasure(support=(0, 0), masses=np.array([0.5, 0.5]))
    with pytest.raises(DataError):
        NodeMeasure(support=(0,), masses=np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# W1 closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(3, 9))
def test_w1_complete_graph_closed_form(n):
    g = _complete_graph(n)
    h = hop_distances(g)
    mu = node_measure(g, 0)
    nu = node_measure(g, 1)
    plan = wasserstein1(mu, nu, h)
    assert plan.cost == pytest.approx(1.0 / (n - 1), abs=1e-12)
    assert plan.row_marginal() == pytest.approx(mu.masses, abs=1e-9)
    assert plan.col_marginal() == pytest.approx(nu.masses, abs=1e-9)


def test_w1_identical_measures_zero():
    g = _star_graph(5)
    h = hop_distances(g)
    mu = node_measure(g, 1)  # delta at the hub
    nu = node_measure(g, 2)
    assert wasserstein1(mu, nu, h).cost == 0.0


def test_w1_star_leaf_to_center_is_one():
    g = _star_graph(6)
    h = hop_distances(g)
    mu = node_measure(g, 0)  # uniform on the leaves
    nu = node_measure(g, 3)  # delta at the hub
    assert wasserstein1(mu, nu, h).cost == pytest.approx(1.0, abs=1e-12)


def test_w1_symmetry():
    g = _kn_minus_edge(6)
    h = hop_distances(g)
    mu = node_measure(g, 0)
    nu = node_measure(g, 2)
    assert wasserstein1_cost(mu, nu, h) == pytest.approx(
        wasserstein1_cost(nu, mu, h), abs=1e-12)


def test_w1_disconnected_supports_raise():
    g = MarketGraph(nodes=(0, 1, 2, 3), edges=((0, 1), (2, 3)),
                    weights={(0, 1): 1.0, (2, 3): 1.0})
    h = hop_distances(g)
    mu = node_measure(g, 0)
    nu = node_measure(g, 2)
    with pytest.raises(InfiniteDistanceError):
        wasserstein1(mu, nu, h)


def test_w1_two_cost_case_reroutes_cheap_mass():
    # Supports {1, 2} and {4, 5} with d(2, 5) = 2 and the other three
    # cross distances equal to 1. Index-order greedy would send 1 -> 4
    # and strand 2, whose only cheap sink is 4; the optimum ships 1 -> 5
    # and 2 -> 4, so everything still travels at cost 1.
    edges = [(0, 1), (0, 2), (1, 4), (1, 5), (2, 4), (3, 4), (3, 5), (4, 5)]
    g = _graph(6, edges)
    h = hop_distances(g)
    mu = node_measure(g, 0, weighting="uniform")  # 1/2 on {1, 2}
    nu = node_measure(g, 3, weighting="uniform")  # 1/2 on {4, 5}
    assert h.dist(2, 5) == 2.0
    plan = wasserstein1(mu, nu, h)
    assert plan.cost == pytest.approx(1.0, abs=1e-12)
    assert wasserstein1_cost(mu, nu, h) == pytest.approx(1.0, abs=1e-12)
    assert wasserstein1_oracle(mu, nu, h) == pytest.approx(plan.cost, abs=1e-12)


def test_w1_three_cost_case_uses_lp():
    g = _path_graph(6)
    h = hop_distances(g)
    mu = node_measure(g, 1)  # 1/2 on {0, 2}
    nu = node_measure(g, 4)  # 1/2 on {3, 5}
    # cross distances {1, 3, 5}; optimum ships 2 -> 3 and 0 -> 5 (or the
    # equal-cost alternative) for a total of 3.
    plan = wasserstein1(mu, nu, h)
    assert plan.cost == pytest.approx(3.0, abs=1e-12)
    assert wasserstein1_oracle(mu, nu, h) == pytest.approx(3.0, abs=1e-12)


def test_transport_plan_cost_matches_plan_times_distance():
    g = _path_graph(6)
    h = hop_distances(g)
    mu = node_measure(g, 1)
    nu = node_measure(g, 4)
    plan = wasserstein1(mu, nu, h)
    pos_a = h.positions(mu.support)
    pos_b = h.positions(nu.support)
    dist = h.matrix[np.ix_(pos_a, pos_b)]
    assert plan.cost == pytest.approx(float((plan.plan * dist).sum()), abs=1e-12)


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def test_oracle_budget_support():
    g = _complete_graph(10)
    h = hop_distances(g)
    mu = node_measure(g, 0)
    nu = node_measure(g, 1)
    with pytest.raises(OracleBudgetError):
        wasserstein1_oracle(mu, nu, h)  # 9 + 9 atoms > 8
    # raising the budget makes the same call legal
    val = wasserstein1_oracle(mu, nu, h, max_denominator=18, max_support=18)
    assert val == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_oracle_budget_denominator():
    g = _graph(3, [(0, 1), (0, 2)], {(0, 1): 1.0, (0, 2): float(np.pi)})
    h = hop_distances(g)
    mu = node_measure(g, 0)
    nu = node_measure(g, 1)
    with pytest.raises(OracleBudgetError):
        wasserstein1_oracle(mu, nu, h)


def _random_connected_graph(rng, n):
    edges = {(i, i + 1) for i in range(n - 1)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                edges.add((i, j))
    return _graph(n, sorted(edges))


@given(st.integers(min_value=0, max_value=2 ** 20))
@settings(max_examples=80, deadline=None)
def test_oracle_agrees_with_solver_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 7))
    g = _random_connected_graph(rng, n)
    h = hop_distances(g)
    a, b = rng.choice(n, size=2, replace=False)
    mu = node_measure(g, int(a), weighting="uniform")
    nu = node_measure(g, int(b), weighting="uniform")
    if len(mu.support) + len(nu.support) > 8:
        return
    fast = wasserstein1_cost(mu, nu, h)
    # degrees up to 5 need a common denominator beyond the default budget
    slow = wasserstein1_oracle(mu, nu, h, max_denominator=60)
    assert fast == pytest.approx(slow, abs=1e-9)


@given(st.integers(min_value=0, max_value=2 ** 20))
@settings(max_examples=40, deadline=None)
def test_plan_marginals_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 9))
    g = _random_connected_graph(rng, n)
    h = hop_distances(g)
    a, b = rng.choice(n, size=2, replace=False)
    w = {e: float(rng.uniform(0.05, 3.0)) for e in g.edges}
    g = MarketGraph(nodes=g.nodes, edges=g.edges, weights=w)
    h = hop_distances(g)
    mu = node_measure(g, int(a))
    nu = node_measure(g, int(b))
    plan = wasserstein1(mu, nu, h)
    assert plan.row_marginal() == pytest.approx(mu.masses, abs=1e-9)
    assert plan.col_marginal() == pytest.approx(nu.masses, abs=1e-9)
    assert plan.cost >= -1e-12


# ---------------------------------------------------------------------------
# Dense LP reference at production support sizes
# ---------------------------------------------------------------------------


def _dense_lp_w1(mu, nu, hop):
    """W1 as one dense transportation LP on the full supports: no
    shared-mass peel, no pooling, no special cases."""
    cost = hop.matrix[np.ix_(hop.positions(mu.support), hop.positions(nu.support))]
    m, k = cost.shape
    a_eq = np.vstack([np.kron(np.eye(m), np.ones(k)), np.kron(np.ones(m), np.eye(k))])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([mu.masses, nu.masses]),
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


@pytest.fixture(scope="module")
def regime_panel():
    return regime_switch()


# Window starts in the calm phase, the transition and the crisis phase
# of the default corpus; the crisis windows have supports of ~40 atoms.
@pytest.mark.parametrize("k", [100, 300, 420])
@pytest.mark.parametrize("weighting", ["edge_weight", "uniform"])
def test_window_curvature_matches_dense_lp(regime_panel, k, weighting):
    graph = window_graph(regime_panel.window(k, k + 132),
                         WindowConfig(T=132, xi=0.85, weighting=weighting))
    hop = hop_distances(graph)
    per_pair = average_curvature(graph, weighting=weighting, hop=hop).per_pair
    rng = np.random.default_rng(k)
    picks = rng.choice(graph.edge_count, size=min(30, graph.edge_count), replace=False)
    for e in picks:
        a, b = graph.edges[int(e)]
        mu = node_measure(graph, a, weighting)
        nu = node_measure(graph, b, weighting)
        exact = 1.0 - _dense_lp_w1(mu, nu, hop) / hop.dist(a, b)
        assert per_pair[(a, b)] == pytest.approx(exact, abs=1e-9)


@pytest.mark.parametrize("k", [100, 300, 420])
def test_window_curvature_within_jost_liu_bounds(regime_panel, k):
    """Uniform weighting, every edge: kappa in [-2, 1] and within the
    triangle bounds of Jost and Liu (Discrete Comput. Geom. 51, 2014)
    for the non-lazy walk: lower <= kappa <= #/(d_x v d_y)."""
    graph = window_graph(regime_panel.window(k, k + 132),
                         WindowConfig(T=132, xi=0.85, weighting="uniform"))
    per_pair = average_curvature(graph, weighting="uniform").per_pair
    for (a, b), kappa in per_pair.items():
        na, nb = set(graph.neighbors(a)), set(graph.neighbors(b))
        da, db, tri = len(na), len(nb), len(na & nb)
        lo, hi = min(da, db), max(da, db)
        upper = tri / hi
        lower = (-max(0.0, 1 - 1 / da - 1 / db - tri / lo)
                 - max(0.0, 1 - 1 / da - 1 / db - tri / hi) + tri / hi)
        assert -2.0 - 1e-12 <= kappa <= 1.0 + 1e-12
        assert lower - 1e-12 <= kappa <= upper + 1e-12, (a, b, kappa, lower, upper)


def _layered_graph(rng, layers):
    """Random connected graph of ``layers`` node layers; edges only join
    nodes in the same or adjacent layers, so the diameter is at most
    ``2 * layers - 1`` and is usually close to ``layers - 1``."""
    sizes = rng.integers(3, 6, size=layers)
    layer_of = np.repeat(np.arange(layers), sizes)
    n = int(sizes.sum())
    edges = {(i, i + 1) for i in range(n - 1)}
    for i in range(n):
        for j in range(i + 1, n):
            gap = layer_of[j] - layer_of[i]
            if (gap == 0 and rng.random() < 0.5) or (gap == 1 and rng.random() < 0.6):
                edges.add((i, j))
    edges = tuple(sorted(edges))
    weights = {e: float(rng.uniform(0.05, 3.0)) for e in edges}
    return MarketGraph(nodes=tuple(range(n)), edges=edges, weights=weights)


@given(st.integers(min_value=0, max_value=2 ** 20))
@settings(max_examples=60, deadline=None)
def test_w1_matches_dense_lp_beyond_oracle_size(seed):
    rng = np.random.default_rng(seed)
    g = _layered_graph(rng, int(rng.integers(3, 7)))
    h = hop_distances(g)
    assume(2.0 <= float(h.matrix.max()) <= 5.0)
    a, b = (int(v) for v in rng.choice(len(g.nodes), size=2, replace=False))
    weighting = WEIGHTINGS[seed % 2]
    mu = node_measure(g, a, weighting)
    nu = node_measure(g, b, weighting)
    assume(len(mu.support) + len(nu.support) > 8)
    exact = _dense_lp_w1(mu, nu, h)
    plan = wasserstein1(mu, nu, h)
    assert plan.cost == pytest.approx(exact, abs=1e-9)
    assert plan.row_marginal() == pytest.approx(mu.masses, abs=1e-9)
    assert plan.col_marginal() == pytest.approx(nu.masses, abs=1e-9)
    assert wasserstein1_cost(mu, nu, h) == pytest.approx(exact, abs=1e-9)


@pytest.fixture
def lp_solves(monkeypatch):
    """One entry per `_solve_lp` call."""
    calls = []
    real = transport._solve_lp
    monkeypatch.setattr(transport, "_solve_lp",
                        lambda *lp: calls.append(1) or real(*lp))
    return calls


# Near-tie masses: cheap-cell capacities that differ by 1e-13 or 1e-11,
# where the exact value turns on a sliver of mass. Graphs: ``path`` is
# 0-2-3-1 (d(0,2) = d(1,3) = 1, cross distances 2); ``detour`` has 0
# next to 2, 3 and 5, and 1 next to 2 and 5, with d(1, 3) = 2 through 4.
_PATH = [(0, 2), (2, 3), (1, 3)]
_DETOUR = [(0, 2), (0, 3), (0, 5), (1, 2), (1, 4), (1, 5), (3, 4)]
_EPS = 1e-13


@pytest.mark.parametrize("edges, mu, nu, fallback", [
    # 1e-13 of source 0 finds no cheap sink and ships at distance 2.
    (_PATH, {0: 0.5 + _EPS, 1: 0.5 - _EPS}, {2: 0.5, 3: 0.5}, False),
    # Shared atom 5 leaves a 1e-13 source residual with no cheap sink.
    (_DETOUR, {1: 0.5 - _EPS, 5: 0.5 + _EPS}, {2: 0.5, 5: 0.5}, False),
    # As the first case with 1e-11.
    (_PATH, {0: 0.5 + 1e-11, 1: 0.5 - 1e-11}, {2: 0.5, 3: 0.5}, True),
    # Source 1 reaches only sink 2 cheaply, so source 0 must fill sink 3;
    # index-order greedy would strand source 1.
    (_DETOUR, {0: 0.5 + _EPS, 1: 0.5 - _EPS}, {2: 0.5 - _EPS, 3: 0.5 + _EPS}, True),
    # As above with a shared atom whose masses differ by 1e-13.
    (_DETOUR, {0: 0.4 + _EPS, 1: 0.4 - _EPS, 5: 0.2},
     {2: 0.4 - 2 * _EPS, 3: 0.4 + _EPS, 5: 0.2 + _EPS}, True),
])
def test_w1_near_tie_masses_match_dense_lp(monkeypatch, lp_solves, edges, mu, nu, fallback):
    # Two-distance residuals take the closed form and call no LP; the
    # ``fallback`` cases are solved again with the union cap at 0, which
    # sends them to one LP solve.
    h = hop_distances(_graph(6, edges))
    mu = NodeMeasure(support=tuple(mu), masses=np.array(list(mu.values())))
    nu = NodeMeasure(support=tuple(nu), masses=np.array(list(nu.values())))
    exact = _dense_lp_w1(mu, nu, h)
    assert wasserstein1_cost(mu, nu, h) == pytest.approx(exact, abs=1e-9)
    assert len(lp_solves) == 0
    if fallback:
        monkeypatch.setattr(transport, "_UNION_CAP", 0)
        assert wasserstein1_cost(mu, nu, h) == pytest.approx(exact, abs=1e-9)
        assert len(lp_solves) == 1


def _hall_w1(cheap, a, b):
    """Exact W1 for costs 1 on ``cheap`` cells and 2 elsewhere.

    Gale's condition maximised over every source subset in rationals, so
    it shares nothing with the solver's union enumeration or its floats.
    """
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    worst = Fraction(0)
    for subset in range(1, 1 << len(a)):
        rows = [i for i in range(len(a)) if subset >> i & 1]
        sinks = set(np.nonzero(cheap[rows].any(axis=0))[0])
        worst = max(worst, sum(a[i] for i in rows) - sum(b[j] for j in sinks))
    cheap_mass = sum(a) - worst
    return float(cheap_mass + 2 * (min(sum(a), sum(b)) - cheap_mass))


def _near_tie_masses(rng, size, eps):
    """Integer parts of 24 with one +-eps swap: Hall sets are often tight."""
    cuts = np.sort(rng.choice(np.arange(1, 24), size=size - 1, replace=False))
    masses = np.diff(np.concatenate(([0], cuts, [24]))) / 24.0
    i, j = rng.choice(size, size=2, replace=False)
    masses[i] += eps
    masses[j] -= eps
    return masses


# Sources 0..m-1 and sinks m..m+k-1 meet a hub, so each cross distance is
# 1 on a cheap cell and 2 elsewhere. Source 0 and sink m have no cheap
# cell, so both sides hold at least two distinct patterns and a union
# cap of 1 always overflows.
@pytest.mark.parametrize("seed", range(24))
def test_two_distance_closed_form_matches_dense_lp(monkeypatch, lp_solves, seed):
    rng = np.random.default_rng(seed)
    m, k = [(4, 7), (7, 4), (10, 3), (6, 6)][seed % 4]
    eps = (1e-13, 1e-11)[seed // 4 % 2]
    cheap = rng.random((m, k)) < 0.4
    cheap[0, :] = cheap[:, 0] = False
    cheap[1, 1] = True
    hub = m + k
    edges = [(int(i), m + int(j)) for i, j in zip(*np.nonzero(cheap))]
    h = hop_distances(_graph(hub + 1, edges + [(v, hub) for v in range(hub)]))
    mu = NodeMeasure(support=tuple(range(m)), masses=_near_tie_masses(rng, m, eps))
    nu = NodeMeasure(support=tuple(range(m, hub)), masses=_near_tie_masses(rng, k, eps))
    closed = wasserstein1_cost(mu, nu, h)
    assert len(lp_solves) == 0
    assert closed == pytest.approx(_hall_w1(cheap, mu.masses, nu.masses), abs=1e-14)
    exact = _dense_lp_w1(mu, nu, h)
    assert closed == pytest.approx(exact, abs=1e-9)
    monkeypatch.setattr(transport, "_UNION_CAP", 1)
    assert wasserstein1_cost(mu, nu, h) == pytest.approx(exact, abs=1e-9)
    assert len(lp_solves) == 1


def _dual_brute(w, a, b):
    """The best dual ``sum a p + sum b q`` of the transport with integer
    gains ``w``, which is its largest ``sum w x``.

    Tries every integer ``p`` in ``{0..max w}`` per source, with the least
    feasible ``q_j = max_i (w_ij - p_i)+``, in rationals; shares nothing
    with the solver's level bits, gcd or candidate closure.
    """
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    w = [[int(v) for v in row] for row in w]
    best = None
    for p in itertools.product(range(max(map(max, w)) + 1), repeat=len(a)):
        q = [max(max(w[i][j] - p[i], 0) for i in range(len(a))) for j in range(len(b))]
        value = sum(x * y for x, y in zip(a, p)) + sum(x * y for x, y in zip(b, q))
        best = value if best is None else min(best, value)
    return best


def _dual_brute_w1(dist, a, b):
    """Exact W1 as ``vmax * moved`` minus the best dual of the gains
    ``vmax - dist``."""
    vmax = int(dist.max())
    moved = min(sum(map(Fraction, a)), sum(map(Fraction, b)))
    return float(vmax * moved - _dual_brute(vmax - dist, a, b))


def _multi_level_instance(rng, m, k, odd):
    """Sources 0..m-1 and sinks m..m+k-1 with cross distances in {1, 2, 3}
    (direct edge, private middle node, else a two-node hub) or, with
    ``odd``, in {1, 3, 5} (direct edge, private three-edge path, else a
    four-node hub; the graph is bipartite, so no distance is even).
    Source 0 and sink m touch only the hub, so row 0 sits at the largest
    distance everywhere and its ``w`` is zero."""
    kind = rng.integers(0, 3, size=(m, k))
    kind[0, :] = kind[:, 0] = 0
    kind[1, 1], kind[-1, -1] = 1, 2
    n = m + k
    edges = []
    for i, j in zip(*np.nonzero(kind)):
        if kind[i, j] == 1:
            edges.append((int(i), m + int(j)))
        else:
            path = [int(i)] + list(range(n, n + (2 if odd else 1))) + [m + int(j)]
            n += 2 if odd else 1
            edges += [tuple(sorted(e)) for e in zip(path, path[1:])]
    hub = list(range(n, n + (4 if odd else 2)))
    n += len(hub)
    edges += list(zip(hub, hub[1:]))
    edges += [(v, hub[0]) for v in range(m)] + [(v, hub[-1]) for v in range(m, m + k)]
    return hop_distances(_graph(n, sorted(set(edges))))


# Both orientations: with more sinks than sources the solver enumerates
# the transposed side. Masses are near ties at 1e-13 or 1e-11.
@pytest.mark.parametrize("seed", range(16))
def test_multi_level_closed_form_matches_brute_force_and_dense_lp(monkeypatch, lp_solves,
                                                                  seed):
    rng = np.random.default_rng(seed)
    odd = bool(seed % 2)
    m, k = [(5, 3), (3, 6), (4, 4), (5, 7)][seed // 2 % 4]
    eps = (1e-13, 1e-11)[seed // 8]
    h = _multi_level_instance(rng, m, k, odd)
    mu = NodeMeasure(support=tuple(range(m)), masses=_near_tie_masses(rng, m, eps))
    nu = NodeMeasure(support=tuple(range(m, m + k)), masses=_near_tie_masses(rng, k, eps))
    dist = h.matrix[:m, m:m + k]
    assert set(np.unique(dist)) == ({1.0, 3.0, 5.0} if odd else {1.0, 2.0, 3.0})
    closed = wasserstein1_cost(mu, nu, h)
    assert len(lp_solves) == 0
    assert closed == pytest.approx(_dual_brute_w1(dist, mu.masses, nu.masses), abs=1e-14)
    exact = _dense_lp_w1(mu, nu, h)
    assert closed == pytest.approx(exact, abs=1e-9)
    monkeypatch.setattr(transport, "_UNION_CAP", 1)
    assert wasserstein1_cost(mu, nu, h) == pytest.approx(exact, abs=1e-9)
    assert len(lp_solves) == 1


@pytest.mark.parametrize("ladder", [1, 40])
def test_level_bits_past_63_go_to_lp(lp_solves, ladder):
    # Two sinks, and gaps vmax - d of (ladder, ladder - 1), (ladder - 1,
    # ladder - 2) and (0, 0) with gcd 1: ``ladder`` levels on two columns
    # need 2 * ladder bits, so ladder 40 is solved as one LP. Its
    # dual candidates form a chain, well under the union cap.
    cross = ladder + 1 - np.array([[ladder, ladder - 1], [ladder - 1, ladder - 2], [0, 0]])
    matrix = np.ones((5, 5)) - np.eye(5)
    matrix[:3, 3:], matrix[3:, :3] = cross, cross.T
    h = HopDistanceMatrix(nodes=tuple(range(5)), matrix=matrix)
    mu = NodeMeasure(support=(0, 1, 2), masses=np.array([0.3, 0.3, 0.4]))
    nu = NodeMeasure(support=(3, 4), masses=np.array([0.45, 0.55]))
    assert wasserstein1_cost(mu, nu, h) == pytest.approx(_dense_lp_w1(mu, nu, h), abs=1e-9)
    assert len(lp_solves) == (1 if ladder == 40 else 0)


# Sources at 0, 1, 2 on a line. Sinks at 0.5, 2.75, 3.5 leave gaps
# vmax - d of 0.75 and 2.25, which truncation to integers would
# misprice; sinks at 0.5, 2.5, 3.5 give fractional distances with whole
# gaps, so the closed form still applies.
@pytest.mark.parametrize("sinks, route", [((0.5, 2.75, 3.5), 1), ((0.5, 2.5, 3.5), 0)],
                         ids=["sinks0-route0", "sinks1-route1"])
def test_fractional_distance_gaps_go_to_lp(lp_solves, sinks, route):
    x = np.array((0.0, 1.0, 2.0) + sinks)
    h = HopDistanceMatrix(nodes=tuple(range(6)), matrix=np.abs(x[:, None] - x[None, :]))
    mu = NodeMeasure(support=(0, 1, 2), masses=np.array([0.5, 0.3, 0.2]))
    nu = NodeMeasure(support=(3, 4, 5), masses=np.array([0.2, 0.3, 0.5]))
    assert wasserstein1_cost(mu, nu, h) == pytest.approx(_dense_lp_w1(mu, nu, h), abs=1e-9)
    assert len(lp_solves) == route


@pytest.mark.filterwarnings("error")
def test_integer_dual_declines_gaps_past_int64():
    caps = np.array([0.5, 0.5])
    assert transport._integer_duals([(np.array([[2.0, 0.0], [0.0, 4.0]]), caps, caps)]) == [3.0]
    assert np.isnan(transport._integer_duals([(np.array([[2e19, 0.0], [0.0, 4e19]]), caps, caps)]))


# One batch holding every case the integer dual meets, as (gains w,
# rcaps, ccaps, declines). The 22-level ladder fits 44 bits alone, but
# padded to the 3 columns of other pairs it would need 66, so only the
# per-pair bit stride keeps it.
_DUAL_CASES = [
    (np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 0]]), np.full(4, 0.25),
     np.array([0.5, 0.25, 0.25]), False),
    (np.array([[2, 1, 0], [1, 2, 0], [0, 0, 2], [1, 1, 1], [0, 0, 0]]),
     np.array([0.1, 0.2, 0.3, 0.25, 0.15]), np.array([0.3, 0.3, 0.4]), False),
    # Fewer rows than columns: the routine scores the transpose.
    (np.array([[2, 0, 1, 1, 0], [0, 2, 1, 0, 1]]), np.array([0.4, 0.6]), np.full(5, 0.2), False),
    # gcd 2.
    (np.array([[4, 0], [2, 4], [0, 2]]), np.full(3, 1 / 3), np.array([0.5, 0.5]), False),
    (np.array([[22, 21], [0, 0]]), np.array([0.45, 0.55]), np.array([0.3, 0.7]), False),
    (np.array([[0.75, 0.0], [0.0, 2.25]]), np.full(2, 0.5), np.full(2, 0.5), True),
    (np.array([[2e19, 0.0], [0.0, 4e19]]), np.full(2, 0.5), np.full(2, 0.5), True),
    # 40 levels on 2 columns: 80 bits.
    (np.array([[40, 39], [39, 38], [0, 0]]), np.array([0.3, 0.3, 0.4]), np.array([0.45, 0.55]),
     True),
    # Unit rows: every one of the 512 subsets is a candidate.
    (np.eye(9), np.full(9, 1 / 9), np.full(9, 1 / 9), True),
]


@pytest.mark.filterwarnings("error")
def test_integer_duals_batch_mixes_every_case():
    pairs = [(np.asarray(w, dtype=float), r, c) for w, r, c, _ in _DUAL_CASES]
    batch = transport._integer_duals(pairs)
    assert np.isnan(batch).tolist() == [declines for *_, declines in _DUAL_CASES]
    for pair, value in zip(pairs, batch.tolist()):
        alone = transport._integer_duals([pair])[0]
        if np.isnan(value):
            assert np.isnan(alone)
        else:
            assert value == alone
            assert abs(value - float(_dual_brute(*pair))) <= 1e-12


# Splitting a batch's rows down to one apiece changes no value and no
# decline.
@pytest.mark.filterwarnings("error")
def test_integer_duals_split_rows_keep_their_values(monkeypatch):
    pairs = [(np.asarray(w, dtype=float), r, c) for w, r, c, _ in _DUAL_CASES]
    whole = transport._integer_duals(pairs)
    monkeypatch.setattr(transport, "_DUAL_CELLS", 1)
    assert np.array_equal(transport._integer_duals(pairs), whole, equal_nan=True)


# The whole-gap line instance above scaled by 2e19: its gaps no longer fit
# in int64, so it goes to the LP, which must still return the exact value
# (1.9 on the unscaled line), not fail on the size of the costs.
@pytest.mark.filterwarnings("error")
def test_w1_on_gaps_past_int64_is_exact(lp_solves):
    x = 2e19 * np.array((0.0, 1.0, 2.0, 0.5, 2.5, 3.5))
    h = HopDistanceMatrix(nodes=tuple(range(6)), matrix=np.abs(x[:, None] - x[None, :]))
    mu = NodeMeasure(support=(0, 1, 2), masses=np.array([0.5, 0.3, 0.2]))
    nu = NodeMeasure(support=(3, 4, 5), masses=np.array([0.2, 0.3, 0.5]))
    assert wasserstein1_cost(mu, nu, h) == pytest.approx(3.8e19, rel=1e-12)
    assert len(lp_solves) == 1
    assert wasserstein1(mu, nu, h).cost == pytest.approx(3.8e19, rel=1e-12)


# Windows in the calm phase, the transition and the crisis phase.
@pytest.mark.parametrize("k", [100, 300, 420])
@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("mode", ["edges", "pairs"])
def test_window_curvature_solves_no_lp(regime_panel, lp_solves, k, weighting, mode):
    graph = window_graph(regime_panel.window(k, k + 132),
                         WindowConfig(T=132, xi=0.85, weighting=weighting))
    average_curvature(graph, mode=mode, weighting=weighting)
    assert len(lp_solves) == 0


# ---------------------------------------------------------------------------
# Blocks of pairs against one pair at a time
# ---------------------------------------------------------------------------


def _max_gap_to_single_pairs(graph, hop, per_pair, weighting):
    """Largest |kappa| difference between a block result and
    `edge_curvature`, which solves one pair as a block of one."""
    return max(abs(kappa - edge_curvature(graph, hop, a, b, weighting))
               for (a, b), kappa in per_pair.items())


def _max_gap_to_dense_lp(graph, hop, per_pair, weighting, seed, size):
    rng = np.random.default_rng(seed)
    pairs = list(per_pair)
    gaps = []
    for i in rng.choice(len(pairs), size=min(size, len(pairs)), replace=False):
        a, b = pairs[int(i)]
        mu, nu = node_measure(graph, a, weighting), node_measure(graph, b, weighting)
        gaps.append(abs(per_pair[(a, b)] - (1.0 - _dense_lp_w1(mu, nu, hop) / hop.dist(a, b))))
    return max(gaps)


# Calm, transition and two crisis windows, edges mode: every residual
# distance is 1, 2 or 3 (d(u, v) <= d(u, a) + 1 + d(b, v)).
@pytest.mark.parametrize("k", [100, 300, 420, 460])
@pytest.mark.parametrize("weighting", WEIGHTINGS)
def test_block_matches_one_pair_at_a_time(regime_panel, k, weighting):
    graph = window_graph(regime_panel.window(k, k + 132),
                         WindowConfig(T=132, xi=0.85, weighting=weighting))
    hop = hop_distances(graph)
    per_pair = average_curvature(graph, weighting=weighting, hop=hop).per_pair
    assert list(per_pair) == list(graph.edges)
    assert _max_gap_to_single_pairs(graph, hop, per_pair, weighting) <= 1e-12
    assert _max_gap_to_dense_lp(graph, hop, per_pair, weighting, k, 10) <= 1e-9


# Pairs mode on a calm, tree-like window: the diameter is above 3, so
# residuals see more than two distance levels and the code planes more
# than two bits.
def test_pairs_mode_block_matches_one_pair_at_a_time(regime_panel):
    graph = window_graph(regime_panel.window(100, 232), WindowConfig(T=132, xi=0.85))
    hop = hop_distances(graph)
    assert float(hop.matrix.max()) > 3.0
    per_pair = average_curvature(graph, mode="pairs", hop=hop).per_pair
    assert len(per_pair) == graph.n * (graph.n - 1) // 2
    assert _max_gap_to_single_pairs(graph, hop, per_pair, "edge_weight") <= 1e-12
    assert _max_gap_to_dense_lp(graph, hop, per_pair, "edge_weight", 100, 30) <= 1e-9


def _mixed_route_graph():
    """Hubs 0 and 1 share neighbours 2 and 3 (joined); leaves 4 and 6 hang
    on 0 and leaf 5 on 1. The hand-built metric is the hop metric with
    d(4, 5) = 3.5 instead of 4, which keeps the triangle inequality."""
    edges = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (0, 6), (1, 5)]
    weights = dict(zip(edges, [1.0, 2.0, 1.5, 0.5, 1.0, 0.7, 1.3, 2.2]))
    graph = _graph(7, edges, weights)
    matrix = hop_distances(graph).matrix.copy()
    matrix[4, 5] = matrix[5, 4] = 3.5
    return graph, HopDistanceMatrix(nodes=graph.nodes, matrix=matrix)


# One pairs-mode block of 21 pairs that holds every route:
# (4, 6) has no residual (both measures sit on 0), (4, 5) has one
# distance, d(0, 1) = 2; (2, 5) ships from 0 and 3 to 1 at distances 2
# and 1 through the integer dual; only (0, 1) sees d(4, 5) = 3.5 next to
# d(6, 5) = 4, a fractional gap that goes to the LP.
def test_one_block_mixes_every_route(monkeypatch, lp_solves):
    graph, hop = _mixed_route_graph()
    duals = []
    closed_form = transport._integer_duals

    def integer_duals(pairs):
        duals.append(closed_form(pairs))
        return duals[-1]

    monkeypatch.setattr(transport, "_integer_duals", integer_duals)
    per_pair = average_curvature(graph, mode="pairs", hop=hop).per_pair
    assert len(per_pair) == 21 <= transport.PAIR_BLOCK
    assert len(lp_solves) == 1
    assert any(np.isfinite(carried).any() for carried in duals)
    assert per_pair[(4, 6)] == 1.0
    assert per_pair[(4, 5)] == pytest.approx(1.0 - 2.0 / 3.5, abs=1e-12)
    mu_2 = node_measure(graph, 2)
    to_0, to_3 = (float(mu_2.masses[mu_2.support.index(v)]) for v in (0, 3))
    assert per_pair[(2, 5)] == pytest.approx(1.0 - (2.0 * to_0 + to_3) / 2.0, abs=1e-12)
    for (a, b), kappa in per_pair.items():
        mu, nu = node_measure(graph, a), node_measure(graph, b)
        w1 = (1.0 - kappa) * hop.dist(a, b)
        assert w1 == pytest.approx(wasserstein1_cost(mu, nu, hop), abs=1e-12)
        assert w1 == pytest.approx(_dense_lp_w1(mu, nu, hop), abs=1e-9)
    # Pooled groups must never cross pair boundaries, however the pairs
    # are cut into blocks.
    for block in (1, 7):
        monkeypatch.setattr(transport, "PAIR_BLOCK", block)
        assert average_curvature(graph, mode="pairs", hop=hop).per_pair == per_pair


# Rounding can leave residual mass on one side of a pair only (masses
# sum to one within 1e-12). Such a pair moves nothing and reaches no
# solver, and it leaves the other pair of its block alone: pair 0
# (0 -> 1) keeps the one-distance closed form.
def test_one_sided_residual_moves_nothing(monkeypatch):
    h = hop_distances(_path_graph(5))
    lopsided = NodeMeasure((3, 4), [0.5 + 4e-13, 0.5])
    even = NodeMeasure((3, 4), [0.5, 0.5])
    pairs = [(NodeMeasure((0,), [1.0]), NodeMeasure((1,), [1.0])),
             (lopsided, even), (even, lopsided)]
    rows = np.zeros((2, 3, 5))
    for e, pair in enumerate(pairs):
        for side, mu in enumerate(pair):
            rows[side, e, list(mu.support)] = mu.masses
    monkeypatch.setattr(transport, "_integer_duals", lambda *args: pytest.fail("integer dual"))
    assert transport._w1_block(rows[0], rows[1], h).tolist() == [1.0, 0.0, 0.0]
    assert [wasserstein1_cost(mu, nu, h) for mu, nu in pairs] == [1.0, 0.0, 0.0]


def test_block_path_raises_on_infinite_support_distance():
    # Edge (1, 2) of the path 0-1-2-3 has supports {0, 2} and {1, 3}.
    g = _path_graph(4)
    matrix = hop_distances(g).matrix.copy()
    matrix[0, 3] = matrix[3, 0] = np.inf
    hop = HopDistanceMatrix(nodes=g.nodes, matrix=matrix)
    with pytest.raises(InfiniteDistanceError):
        average_curvature(g, mode="edges", hop=hop)


def test_block_path_raises_on_isolated_node():
    g = MarketGraph(nodes=(0, 1, 2, 3), edges=((0, 1), (1, 2)),
                    weights={(0, 1): 1.0, (1, 2): 1.0})
    with pytest.raises(DataError):
        average_curvature(g, mode="edges")


# A crisis window of ~1,000 edges: one pairs x nodes x nodes float array
# alone would be 20 MB; blocks of pairs keep the peak under 1 MB.
def test_window_curvature_memory_stays_flat(regime_panel):
    graph = window_graph(regime_panel.window(460, 592), WindowConfig(T=132, xi=0.85))
    hop = hop_distances(graph)
    tracemalloc.start()
    try:
        average_curvature(graph, hop=hop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.edge_count > 900
    assert peak < 4e6


# The transition window k=360 held 4.9 MB of dual work arrays in one
# piece, and the calm window k=100 in pairs mode meets more than two
# distance levels; split rows keep both within the budget above.
@pytest.mark.parametrize("k, mode", [(360, "edges"), (360, "pairs"), (100, "pairs")])
def test_curvature_memory_stays_flat_in_both_modes(regime_panel, k, mode):
    graph = window_graph(regime_panel.window(k, k + 132), WindowConfig(T=132, xi=0.85))
    hop = hop_distances(graph)
    tracemalloc.start()
    try:
        average_curvature(graph, mode=mode, hop=hop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# A full block of the largest pooled shape seen in crisis windows, 21
# sources against 16 sinks, as staircases of 2 levels (44-92 candidates,
# more than the 51 seen there, none declines) or 3 (up to and past the
# union cap: 48 bits, and 64-generator rows). Every stage runs on padded
# arrays; they stay within the window budget above, and each pair keeps
# its value alone.
@pytest.mark.parametrize("levels", [2, 3])
def test_integer_duals_memory_stays_flat(levels):
    rng = np.random.default_rng(0)
    pairs = []
    for _ in range(transport.PAIR_BLOCK):
        cuts = np.sort(rng.integers(0, 17, size=(levels, 21)), axis=0)
        w = sum((np.arange(16) < cut[:, None]).astype(float) for cut in cuts)
        w[0, 0] = levels
        pairs.append((w, rng.dirichlet(np.ones(21)), rng.dirichlet(np.ones(16))))
    tracemalloc.start()
    try:
        duals = transport._integer_duals(pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert np.isfinite(duals).all() if levels == 2 else np.isfinite(duals).any()
    alone = [transport._integer_duals([pair])[0] for pair in pairs]
    assert np.array_equal(duals, alone, equal_nan=True)


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(3, 9))
def test_complete_graph_edge_curvature(n):
    g = _complete_graph(n)
    h = hop_distances(g)
    assert edge_curvature(g, h, 0, 1) == pytest.approx((n - 2.0) / (n - 1.0), abs=1e-12)


def test_curvature_validations():
    g = _path_graph(3)
    h = hop_distances(g)
    with pytest.raises(ConfigError):
        edge_curvature(g, h, 1, 1)
    disc = MarketGraph(nodes=(0, 1, 2, 3), edges=((0, 1), (2, 3)),
                       weights={(0, 1): 1.0, (2, 3): 1.0})
    hd = hop_distances(disc)
    with pytest.raises(InfiniteDistanceError):
        edge_curvature(disc, hd, 0, 2)


def test_unknown_node_ids_are_graph_errors():
    g = _path_graph(3)
    h = hop_distances(g)
    foreign = NodeMeasure(support=(0, 9), masses=np.array([0.5, 0.5]))
    mu = node_measure(g, 1)
    with pytest.raises(GraphError):
        edge_curvature(g, h, 0, 9)
    with pytest.raises(GraphError):
        wasserstein1(mu, foreign, h)
    with pytest.raises(GraphError):
        wasserstein1_cost(foreign, mu, h)
    with pytest.raises(GraphError):
        wasserstein1_oracle(mu, foreign, h)


def test_average_curvature_edges_mode_complete():
    g = _complete_graph(5)
    rep = average_curvature(g, mode="edges")
    assert rep.mode == "edges"
    assert set(rep.per_pair) == set(g.edges)
    assert rep.average == pytest.approx(0.75, abs=1e-12)


def test_average_curvature_pairs_mode_star():
    # Hub-leaf pairs have curvature 0; leaf-leaf pairs have curvature 1;
    # the average over all pairs of the n-star is (n - 2) / n.
    for n in (4, 5, 7):
        g = _star_graph(n)
        rep = average_curvature(g, mode="pairs")
        assert rep.average == pytest.approx((n - 2.0) / n, abs=1e-12)


def test_average_curvature_path3_pairs_weight_independent():
    for w in [(1.0, 1.0), (2.5, 0.3), (0.01, 7.0)]:
        g = _graph(3, [(0, 1), (1, 2)], {(0, 1): w[0], (1, 2): w[1]})
        rep = average_curvature(g, mode="pairs")
        assert rep.average == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_average_curvature_pairs_disconnected_raises():
    g = MarketGraph(nodes=(0, 1, 2, 3), edges=((0, 1), (2, 3)),
                    weights={(0, 1): 1.0, (2, 3): 1.0})
    with pytest.raises(DisconnectedGraphError):
        average_curvature(g, mode="pairs")


def test_average_curvature_edges_mode_needs_edges():
    g = MarketGraph(nodes=(0, 1), edges=(), weights={})
    with pytest.raises(DataError):
        average_curvature(g, mode="edges")


def test_average_curvature_rejects_bad_mode_and_weighting():
    g = _path_graph(3)
    with pytest.raises(ConfigError):
        average_curvature(g, mode="triangles")
    with pytest.raises(ConfigError):
        average_curvature(g, weighting="nope")


def test_average_is_mean_of_per_pair():
    g = _kn_minus_edge(5)
    rep = average_curvature(g, mode="pairs")
    assert rep.average == pytest.approx(np.mean(list(rep.per_pair.values())), abs=1e-12)


def test_kn_minus_edge_closed_forms():
    # Remove edge (0, 1) from K_n. The removed pair has curvature 1 (its
    # measures coincide); pairs touching exactly one endpoint drop to
    # 1 - 2/(n-1); untouched pairs keep the K_n value 1 - 1/(n-1).
    for n in (5, 6, 7):
        g = _kn_minus_edge(n)
        h = hop_distances(g)
        rep = average_curvature(g, mode="pairs", hop=h)
        assert rep.per_pair[(0, 1)] == pytest.approx(1.0, abs=1e-12)
        assert rep.per_pair[(0, 2)] == pytest.approx(1.0 - 2.0 / (n - 1), abs=1e-12)
        assert rep.per_pair[(2, 3)] == pytest.approx(1.0 - 1.0 / (n - 1), abs=1e-12)


def test_k4_minus_edge_pairs_average():
    rep = average_curvature(_kn_minus_edge(4), mode="pairs")
    # pairs: (0,1) -> 1, four affected -> 1/3, (2,3) -> 2/3; mean = 1/2
    assert rep.average == pytest.approx(0.5, abs=1e-12)


@given(st.integers(min_value=0, max_value=2 ** 20))
@settings(max_examples=40, deadline=None)
def test_curvature_never_exceeds_one(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 8))
    g = _random_connected_graph(rng, n)
    h = hop_distances(g)
    rep = average_curvature(g, mode="pairs", weighting="uniform", hop=h)
    for kappa in rep.per_pair.values():
        assert kappa <= 1.0 + 1e-12


def test_hop_matrix_graph_mismatch_rejected():
    g = _path_graph(4)
    other = hop_distances(_path_graph(5))
    with pytest.raises(DataError):
        average_curvature(g, hop=other)
