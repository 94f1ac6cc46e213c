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
from ricci_fragility.graphs import (
    HopDistanceMatrix,
    MarketGraph,
    _dense,
    _hops,
    hop_distances,
)
from ricci_fragility.indicator import WindowConfig, window_graph
from ricci_fragility.synthetic import regime_switch
from ricci_fragility.transport import (
    WEIGHTINGS,
    NodeMeasure,
    average_curvature,
    edge_curvature,
    node_measure,
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


# Zero weights next to positive ones, and nodes whose every weight is
# zero (uniform fallback), on random graphs with some isolated nodes left
# out of the comparison.
@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("weighting", WEIGHTINGS)
def test_node_measure_is_its_measure_row(seed, weighting):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 14))
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6)
    w = rng.uniform(0.05, 2.0, size=len(edges))
    w[rng.random(len(edges)) < 0.3] = 0.0
    w[[0 in e for e in edges]] = 0.0
    g = _graph(n, edges, dict(zip(edges, w.tolist())))
    adj, weights = _dense(g)
    rows = transport._measure_rows(adj, weights, weighting)
    assert any(g.degree(v) and not any(g.weight(v, u) for u in g.neighbors(v)) for v in g.nodes)
    for v in g.nodes:
        if not g.degree(v):
            continue
        mu = node_measure(g, v, weighting)
        assert list(mu.support) == np.flatnonzero(rows[v]).tolist()
        assert np.array_equal(mu.masses, rows[v][rows[v] > 0.0])


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
    assert wasserstein1_cost(mu, nu, h) == pytest.approx(1.0 / (n - 1), abs=1e-12)


def test_w1_identical_measures_zero():
    g = _star_graph(5)
    h = hop_distances(g)
    mu = node_measure(g, 1)  # delta at the hub
    nu = node_measure(g, 2)
    assert wasserstein1_cost(mu, nu, h) == 0.0


def test_w1_star_leaf_to_center_is_one():
    g = _star_graph(6)
    h = hop_distances(g)
    mu = node_measure(g, 0)  # uniform on the leaves
    nu = node_measure(g, 3)  # delta at the hub
    assert wasserstein1_cost(mu, nu, h) == pytest.approx(1.0, abs=1e-12)


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
        wasserstein1_cost(mu, nu, h)


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
    assert _dense_lp_w1(mu, nu, h) == pytest.approx(1.0, abs=1e-9)
    assert wasserstein1_cost(mu, nu, h) == pytest.approx(1.0, abs=1e-12)
    assert wasserstein1_oracle(mu, nu, h) == pytest.approx(1.0, abs=1e-12)


def test_w1_three_cost_case_uses_lp():
    g = _path_graph(6)
    h = hop_distances(g)
    mu = node_measure(g, 1)  # 1/2 on {0, 2}
    nu = node_measure(g, 4)  # 1/2 on {3, 5}
    # cross distances {1, 3, 5}; optimum ships 2 -> 3 and 0 -> 5 (or the
    # equal-cost alternative) for a total of 3.
    assert wasserstein1_cost(mu, nu, h) == pytest.approx(3.0, abs=1e-12)
    assert wasserstein1_oracle(mu, nu, h) == pytest.approx(3.0, abs=1e-12)


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


# ---------------------------------------------------------------------------
# Dense LP reference at production support sizes
# ---------------------------------------------------------------------------


def _dense_lp_w1(mu, nu, hop):
    """W1 as one dense transportation LP on the full supports: no
    shared-mass peel, no pooling, no special cases."""
    cost = hop.matrix[np.ix_(hop.positions(mu.support), hop.positions(nu.support))]
    return _dense_lp(mu.masses, nu.masses, cost)


def _dense_lp(a, b, cost):
    """Optimum of the transportation LP from masses ``a`` to ``b``."""
    m, k = cost.shape
    a_eq = np.vstack([np.kron(np.eye(m), np.ones(k)), np.kron(np.ones(m), np.eye(k))])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([a, b]),
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


def _level_bits(mu, nu, hop):
    """Level bits ``levels * k`` of a pair's pooled residual, computed
    apart from the solver: after the shared-mass peel, residual atoms with
    equal distances to the other side's pool into one, ``k`` is the
    smaller pooled side and ``levels`` the largest gap ``vmax - d`` over
    the gaps' gcd; 0 for a residual with fewer than two distances."""
    a, b = np.zeros(len(hop.nodes)), np.zeros(len(hop.nodes))
    a[hop.positions(mu.support)], b[hop.positions(nu.support)] = mu.masses, nu.masses
    shared = np.minimum(a, b)
    src, snk = np.flatnonzero(a > shared), np.flatnonzero(b > shared)
    dist = hop.matrix[np.ix_(src, snk)]
    if np.unique(dist).size < 2:
        return 0
    gaps = (dist.max() - dist).astype(np.int64)
    pooled = min(np.unique(dist, axis=0).shape[0], np.unique(dist, axis=1).shape[1])
    return int(gaps.max() // np.gcd.reduce(gaps.ravel())) * pooled


# The integer dual scores a window's multi-distance pairs in chunks sorted
# by level bits, so the pairs with the most share the widest chunks. The
# 20 with the most in a transition and a crisis window match the dense,
# unpooled LP and the pair solved alone.
@pytest.mark.parametrize("k", [360, 460])
def test_widest_dual_pairs_match_dense_lp(regime_panel, k):
    graph = window_graph(regime_panel.window(k, k + 132), WindowConfig(T=132, xi=0.85))
    hop = hop_distances(graph)
    per_pair = average_curvature(graph, hop=hop).per_pair
    measures = {v: node_measure(graph, v) for v in graph.nodes}
    bits = [_level_bits(measures[a], measures[b], hop) for a, b in graph.edges]
    widest = np.argsort(-np.array(bits), kind="stable")[:20]
    assert min(bits[e] for e in widest) > 0
    for e in widest.tolist():
        (a, b), d = graph.edges[e], hop.dist(*graph.edges[e])
        mu, nu = measures[a], measures[b]
        assert per_pair[(a, b)] == pytest.approx(1.0 - _dense_lp_w1(mu, nu, hop) / d, abs=1e-9)
        assert per_pair[(a, b)] == pytest.approx(1.0 - wasserstein1_cost(mu, nu, hop) / d,
                                                 abs=1e-12)


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


def _pad(pairs):
    """`_integer_duals` inputs for ``(w, rcaps, ccaps)`` pairs: each pair
    turned to have its larger side as rows, as `_w1_block` does, and
    zero-padded to the largest."""
    pairs = [(w, r, c) if len(r) >= len(c) else (w.T, c, r) for w, r, c in pairs]
    size, (m, k) = len(pairs), (max(len(pair[side]) for pair in pairs) for side in (1, 2))
    gaps, rcaps, ccaps = np.zeros((size, m, k)), np.zeros((size, m)), np.zeros((size, k))
    for e, (w, r, c) in enumerate(pairs):
        gaps[e, :len(r), :len(c)], rcaps[e, :len(r)], ccaps[e, :len(c)] = w, r, c
    return gaps, rcaps, ccaps, np.array([len(c) for _, _, c in pairs])


@pytest.mark.filterwarnings("error")
def test_integer_dual_declines_gaps_past_int64():
    caps = np.array([0.5, 0.5])
    assert transport._integer_duals(*_pad([(np.array([[2.0, 0.0], [0.0, 4.0]]), caps,
                                            caps)])) == [3.0]
    assert np.isnan(transport._integer_duals(*_pad([(np.array([[2e19, 0.0], [0.0, 4e19]]), caps,
                                                     caps)])))


# One batch holding every case the integer dual meets, as (gains w,
# rcaps, ccaps, declines). The 22-level ladder fits 44 bits alone, but
# padded to the 3 columns of other pairs it would need 66, so only the
# per-pair bit stride keeps it.
_DUAL_CASES = [
    (np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 0]]), np.full(4, 0.25),
     np.array([0.5, 0.25, 0.25]), False),
    (np.array([[2, 1, 0], [1, 2, 0], [0, 0, 2], [1, 1, 1], [0, 0, 0]]),
     np.array([0.1, 0.2, 0.3, 0.25, 0.15]), np.array([0.3, 0.3, 0.4]), False),
    # Fewer rows than columns: `_pad` passes the transpose.
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
    batch = transport._integer_duals(*_pad(pairs))
    assert np.isnan(batch).tolist() == [declines for *_, declines in _DUAL_CASES]
    for pair, value in zip(pairs, batch.tolist()):
        alone = transport._integer_duals(*_pad([pair]))[0]
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
    whole = transport._integer_duals(*_pad(pairs))
    monkeypatch.setattr(transport, "_DUAL_CELLS", 1)
    assert np.array_equal(transport._integer_duals(*_pad(pairs)), whole, equal_nan=True)


def _staircase(rng, levels, m, k):
    """An ``(m, k)`` integer gain pair of exactly ``levels`` levels (gcd 1)
    with caps summing to one: rows that fall in steps along the columns,
    except for column 0, which only the first row gains on. That row is at
    the top level, so its code has every level bit, and has a small cap
    against column 0's large one, so the optimum leaves column 0 at 0."""
    cuts = np.sort(rng.integers(0, k + 1, size=(levels, m)), axis=0)
    w = sum((np.arange(k) < cut[:, None]).astype(float) for cut in cuts)
    w[0], w[1:, 0], w[-1, -1] = levels, 0.0, 1.0
    return (w, np.r_[0.01, 0.99 * rng.dirichlet(np.ones(m - 1))],
            np.r_[0.5, 0.5 * rng.dirichlet(np.ones(k - 1))])


# Codes are uint32 while every pair of a chunk fits 32 level bits, int64
# past that. Chunks padded to exactly 32 and to 33 bits, and a mixed chunk
# of 32-bit pairs whose 16 levels times the other pairs' columns pass 32
# bits (the clamped shifts): each dual equals the pair alone, the same
# chunk forced to int64 codes by a 33-bit pair, and a dense LP.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shapes, dtype", [
    ([(8, 5, 4), (2, 3, 2), (3, 4, 3)], np.uint32),
    ([(11, 4, 3), (2, 3, 2), (3, 4, 3)], np.int64),
    ([(3, 11, 11), (8, 5, 4)], np.int64),
    ([(16, 2, 2), (8, 4, 4), (4, 8, 8), (2, 16, 16)], np.uint32),
], ids=["32-bits", "33-bits", "33-bits-wide", "mixed"])
def test_integer_duals_code_width(monkeypatch, shapes, dtype):
    rng = np.random.default_rng(5)
    pairs = [_staircase(rng, *shape) for shape in shapes]
    assert max(levels * k for levels, _, k in shapes) == (32 if dtype is np.uint32 else 33)
    widths, row_sets = [], transport._row_sets
    monkeypatch.setattr(transport, "_row_sets",
                        lambda a: widths.append(a.dtype) or row_sets(a))
    batch = transport._integer_duals(*_pad(pairs))
    assert widths[0] == dtype and np.isfinite(batch).all()
    widths.clear()
    wide = transport._integer_duals(*_pad(pairs + [_staircase(rng, 11, 4, 3)]))[:-1]
    assert widths[0] == np.int64
    for pair, value, int64 in zip(pairs, batch.tolist(), wide.tolist()):
        assert value == transport._integer_duals(*_pad([pair]))[0] == int64
        w, r, c = pair
        assert value == pytest.approx(-_dense_lp(r, c, -w), abs=1e-9)


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


# Cutting a window's pairs into blocks of 64, 7, 1 or 200 changes no
# value, not even in the last bit. Blocks of 200 have sides past 127, so
# the pooling key needs more side bits than at 64.
@pytest.mark.parametrize("k", [100, 300, 420, 460])
@pytest.mark.parametrize("weighting", WEIGHTINGS)
def test_curvatures_do_not_depend_on_block_size(monkeypatch, regime_panel, k, weighting):
    graph = window_graph(regime_panel.window(k, k + 132),
                         WindowConfig(T=132, xi=0.85, weighting=weighting))
    (adj, w), hop = _dense(graph), hop_distances(graph)
    kappa = []
    for block in (64, 7, 1, 200):
        monkeypatch.setattr(transport, "PAIR_BLOCK", block)
        kappa.append(transport._curvatures(adj[None], w[None], hop.matrix[None], "edges",
                                           weighting)[0].tolist())
    assert kappa[0] == kappa[1] == kappa[2] == kappa[3]


def _random_metric(rng, n):
    """Shortest paths of random weights 1 and 2 on a random connected graph
    of ``n`` nodes: a metric with ties and several distinct values."""
    adj = np.triu(rng.random((n, n)) < 0.2, 1)
    adj[rng.integers(np.arange(1, n)), np.arange(1, n)] = True
    weight = np.triu(rng.integers(1, 3, (n, n)), 1)
    dist = np.where(adj | adj.T, weight + weight.T, np.inf)
    np.fill_diagonal(dist, 0.0)
    for v in range(n):
        dist = np.minimum(dist, dist[:, v, None] + dist[v])
    return dist


# The pooling sort keys on a hash of each atom's masked code planes, and
# only atoms equal in every word pool. So no value may rest on the hash
# being unique: with every atom's hash 0, values stay within 1e-12 of the
# hashed ones on two crisis windows and within 1e-9 of the dense LP on
# random metrics.
@pytest.mark.filterwarnings("error")
def test_values_do_not_rest_on_a_unique_pooling_hash(monkeypatch, regime_panel):
    windows = []
    for k in (420, 460):
        for weighting in WEIGHTINGS:
            graph = window_graph(regime_panel.window(k, k + 132),
                                 WindowConfig(T=132, xi=0.85, weighting=weighting))
            (adj, w), hop = _dense(graph), hop_distances(graph).matrix
            windows.append((adj[None], w[None], hop[None], "edges", weighting))
    hashed = [transport._curvatures(*window)[0] for window in windows]
    rng = np.random.default_rng(19)
    dist = np.stack([_random_metric(rng, 24) for _ in range(3)])
    rows = rng.random((72, 24)) * (rng.random((72, 24)) < 0.3)
    rows[np.arange(72), rng.integers(0, 24, 72)] += 0.1
    rows /= rows.sum(axis=1, keepdims=True)
    g = rng.integers(0, 3, 200)
    ia, ib = g * 24 + rng.integers(0, 24, 200), g * 24 + rng.integers(0, 24, 200)
    monkeypatch.setattr(transport, "_POOL_HASH", np.zeros_like(transport._POOL_HASH))
    for window, values in zip(windows, hashed):
        assert np.abs(transport._curvatures(*window)[0] - values).max() <= 1e-12
    w1 = transport._w1_rows(rows, dist, ia, ib)
    for e, (a, b) in enumerate(zip(ia, ib)):
        assert w1[e] == pytest.approx(_dense_lp(rows[a], rows[b], dist[a // 24]), abs=1e-9)


# The integer dual sorts the multi-distance pairs of a whole call, so the
# pairs that share a pair's chunk depend on every pair of the call. Its
# value must not: reordering the pairs or splitting them over two calls
# changes no value, not even in the last bit.
@pytest.mark.parametrize("k, weighting, mode", [(420, "edge_weight", "edges"),
                                                (420, "uniform", "edges"),
                                                (460, "edge_weight", "edges"),
                                                (460, "uniform", "edges"),
                                                (100, "edge_weight", "pairs")])
def test_pair_values_do_not_depend_on_their_call(monkeypatch, regime_panel, k, weighting, mode):
    graph = window_graph(regime_panel.window(k, k + 132),
                         WindowConfig(T=132, xi=0.85, weighting=weighting))
    (adj, w), hop = _dense(graph), hop_distances(graph).matrix[None]
    rows = transport._measure_rows(adj, w, weighting)
    ia, ib = np.nonzero(np.triu(adj, 1)) if mode == "edges" else np.triu_indices(len(adj), 1)
    duals = []
    closed_form = transport._integer_duals
    monkeypatch.setattr(transport, "_integer_duals",
                        lambda *padded: duals.append(len(padded[0])) or closed_form(*padded))
    canonical = transport._w1_rows(rows, hop, ia, ib)
    # One dual pass: full chunks of PAIR_BLOCK pairs, then the rest.
    assert len(duals) == -(-sum(duals) // transport.PAIR_BLOCK) > 1
    rng = np.random.default_rng(k)
    order = rng.permutation(len(ia))
    permuted = np.empty_like(canonical)
    permuted[order] = transport._w1_rows(rows, hop, ia[order], ib[order])
    cut = int(rng.integers(1, len(ia)))
    split = np.concatenate((transport._w1_rows(rows, hop, ia[:cut], ib[:cut]),
                            transport._w1_rows(rows, hop, ia[cut:], ib[cut:])))
    for other in (permuted, split):
        assert np.array_equal(other.view(np.int64), canonical.view(np.int64))


def test_no_pairs_give_no_values():
    hop = hop_distances(_path_graph(3)).matrix
    none = np.array([], dtype=int)
    got = transport._w1_rows(np.eye(3), hop[None], none, none)
    assert got.dtype == float and got.shape == (0,)


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

    def integer_duals(*padded):
        duals.append(closed_form(*padded))
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


# One block on the path 0-...-9 whose multi-distance pairs have fewer,
# more and as many pooled sources as sinks, then two one-distance pairs
# (the last pools sources 4 and 6). The integer dual gets the first three
# in one call, each with its larger side as rows, and every pair keeps its
# value alone and the dense LP's.
def test_block_orients_pairs_of_every_shape(monkeypatch):
    hop = hop_distances(_path_graph(10))
    pairs = [({0: 0.3, 1: 0.7}, {5: 0.2, 6: 0.5, 7: 0.3}),
             ({0: 0.2, 1: 0.5, 2: 0.3}, {6: 0.6, 7: 0.4}),
             ({0: 0.4, 2: 0.6}, {5: 0.7, 8: 0.3}),
             ({0: 1.0}, {3: 1.0}),
             ({4: 0.5, 6: 0.5}, {5: 1.0})]
    rows = np.zeros((2, len(pairs), 10))
    for e, pair in enumerate(pairs):
        for side, masses in enumerate(pair):
            rows[side, e, list(masses)] = list(masses.values())
    calls = []
    closed_form = transport._integer_duals
    monkeypatch.setattr(transport, "_integer_duals",
                        lambda *padded: calls.append(padded) or closed_form(*padded))
    block = transport._w1_rows(rows.reshape(-1, 10), hop.matrix[None], np.arange(5),
                               5 + np.arange(5))
    assert len(calls) == 1
    gaps, rcaps, ccaps, cols = calls[0]
    assert [((r > 0).sum(), (c > 0).sum()) for r, c in zip(rcaps, ccaps)] == [(3, 2), (3, 2),
                                                                               (2, 2)]
    assert cols.tolist() == [2, 2, 2]
    assert all(np.unique(w[r > 0][:, c > 0]).size > 1 for w, r, c in zip(gaps, rcaps, ccaps))
    assert np.isfinite(closed_form(gaps, rcaps, ccaps, cols)).all()
    for e, (a, b) in enumerate(pairs):
        mu, nu = (NodeMeasure(tuple(masses), list(masses.values())) for masses in (a, b))
        assert block[e] == _alone(rows[0, e:e + 1], rows[1, e:e + 1], hop.matrix)[0]
        assert block[e] == pytest.approx(_dense_lp_w1(mu, nu, hop), abs=1e-9)


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
    assert transport._w1_rows(rows.reshape(-1, 5), h.matrix[None], np.arange(3),
                              3 + np.arange(3)).tolist() == [1.0, 0.0, 0.0]
    assert [wasserstein1_cost(mu, nu, h) for mu, nu in pairs] == [1.0, 0.0, 0.0]


def _int64_code_planes(stack):
    """`_code_planes` as first written: every code shifted as int64."""
    values = np.unique(stack)
    codes = np.searchsorted(values, stack)
    levels = np.arange(max(1, (values.size - 1).bit_length()))
    return transport._packed(np.concatenate((codes, codes.transpose(0, 2, 1)), axis=1)
                             [:, :, None, :] >> levels[:, None] & 1)


# The packed words fix the pooled atom order, so narrow codes must pack to
# the same words: hop stacks (connected or not), past one word of nodes,
# and more than 256 distinct fractional entries, which stay int64.
@pytest.mark.parametrize("seed", range(12))
def test_code_planes_equal_int64_reference(seed):
    rng = np.random.default_rng(seed)
    size, n = int(rng.integers(1, 6)), int(rng.integers(30, 140))
    if seed % 3 == 0:
        stack = rng.integers(0, 40, (size, n, n)).astype(float)
    elif seed % 3 == 1:
        stack = rng.integers(0, 4, (size, n, n)).astype(float)
        stack[rng.random(stack.shape) < 0.1] = np.inf
    else:
        stack = rng.random((size, n, n)).round(4)
    stack = np.minimum(stack, stack.transpose(0, 2, 1))
    planes = transport._code_planes(stack)
    reference = _int64_code_planes(stack)
    assert planes.dtype == reference.dtype == np.uint64
    assert np.array_equal(planes, reference)
    assert (np.unique(stack).size > 256) == (seed % 3 == 2)


def _alone(pa, pb, dist):
    """W1 of each pair of rows on the one matrix ``dist``, one block each."""
    return [transport._w1_rows(np.stack((pa[e], pb[e])), dist[None], np.array([0]),
                               np.array([1]))[0] for e in range(len(pa))]


def _stack(graphs, weighting):
    """Hop matrices and measure rows of ``(adj, w)`` graphs, zero-padded to
    the largest: ``(G, n, n)`` each."""
    size = max(len(adj) for adj, _ in graphs)
    dist, rows = np.zeros((2, len(graphs), size, size))
    for k, (adj, w) in enumerate(graphs):
        dist[k, :len(adj), :len(adj)] = _hops(adj)
        rows[k, :len(adj), :len(adj)] = transport._measure_rows(adj, w, weighting)
    return dist, rows


# Pairs of 4-12 node graphs solved together, in blocks over a zero-padded
# stack of the graphs' hop matrices, equal each pair solved alone on its
# own unpadded matrix, bit for bit; the integer dual serves some of them.
# A pairwise sum of the moved mass would differ in the last bit here.
# Padding the stack past 64 nodes gives its code planes a second word.
@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("pad", [0, 60])
def test_stacked_pairs_equal_pairs_alone(monkeypatch, weighting, pad):
    rng = np.random.default_rng(3)
    graphs = []
    for _ in range(40):
        n = int(rng.integers(4, 13))
        adj = np.triu(rng.random((n, n)) < rng.uniform(0.2, 0.6), 1)
        adj[[int(rng.integers(v)) for v in range(1, n)], range(1, n)] = True
        w = np.triu(rng.uniform(0.05, 2.0, (n, n)), 1) * adj
        graphs.append((adj | adj.T, w + w.T))
    dist, rows = np.pad(_stack(graphs, weighting), ((0, 0), (0, 0), (0, pad), (0, pad)))
    size = dist.shape[1]
    g, a, b = (np.array(v) for v in zip(*[(k, i, j) for k, (adj, _) in enumerate(graphs)
                                          for i, j in zip(*np.triu_indices(len(adj), 1))]))
    order = rng.permutation(len(g))
    g, a, b = g[order], a[order], b[order]
    duals = []
    closed_form = transport._integer_duals
    monkeypatch.setattr(transport, "_integer_duals",
                        lambda *padded: duals.append(len(padded[0])) or closed_form(*padded))
    flat = rows.reshape(-1, size)
    stacked = transport._w1_rows(flat, dist, g * size + a, g * size + b)
    assert len(g) > 3 * transport.PAIR_BLOCK and sum(duals) > 0
    assert len(duals) <= -(-len(g) // transport.PAIR_BLOCK)
    for k, (adj, _) in enumerate(graphs):
        n, on = len(adj), g == k
        alone = _alone(rows[k, a[on], :n], rows[k, b[on], :n], dist[k, :n, :n])
        assert stacked[on].tolist() == alone


# Graph 0 of the stack is the path 0-1-2 beside the edge 3-4, graph 1 the
# 4-cycle 0-1-2-3. A pair whose supports span graph 0's components raises;
# graph 1's pair (1, 2) sits at positions that would span them on graph 0
# and solves, as do graph 0's pairs within one component.
def test_stack_with_a_disconnected_graph_raises_only_across_components():
    path = np.zeros((5, 5), dtype=bool)
    path[[0, 1, 3], [1, 2, 4]] = True
    cycle = np.zeros((4, 4), dtype=bool)
    cycle[[0, 1, 2, 0], [1, 2, 3, 3]] = True
    graphs = [(m | m.T, (m | m.T).astype(float)) for m in (path, cycle)]
    dist, rows = _stack(graphs, "uniform")
    flat = rows.reshape(-1, 5)
    g, a, b = np.array([0, 0, 1, 1]), np.array([0, 3, 1, 0]), np.array([1, 4, 2, 2])
    got = transport._w1_rows(flat, dist, 5 * g + a, 5 * g + b)
    for k, (adj, _) in enumerate(graphs):
        n, on = len(adj), g == k
        assert got[on].tolist() == _alone(rows[k, a[on], :n], rows[k, b[on], :n],
                                          dist[k, :n, :n])
    with pytest.raises(InfiniteDistanceError):
        transport._w1_rows(flat, dist, np.array([1, 5 + 1]), np.array([3, 5 + 2]))


# The stack holds the path 0-...-5, the 5-cycle and the 4-star, each pair
# with its first row in graph k's rows and its second in graph k + 1's,
# as the `bounds` shift pairs are. A pair is solved on graph k alone: it
# equals the pair solved on its own on dist[k], and not on dist[k + 1].
def test_pair_is_solved_on_the_graph_of_its_first_row():
    def undirected(n, edges):
        adj = np.zeros((n, n), dtype=bool)
        adj[tuple(zip(*edges))] = True
        return adj | adj.T

    graphs = [undirected(6, [(i, i + 1) for i in range(5)]),
              undirected(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
              undirected(4, [(0, 1), (0, 2), (0, 3)])]
    dist, rows = _stack([(adj, adj.astype(float)) for adj in graphs], "uniform")
    k, a, b = (np.array(v) for v in zip((0, 0, 0), (1, 1, 1), (0, 0, 3), (1, 2, 0), (0, 1, 3),
                                        (0, 3, 1), (1, 2, 3), (0, 5, 1), (1, 4, 2), (0, 5, 4)))
    got = transport._w1_rows(rows.reshape(-1, 6), dist, 6 * k + a, 6 * (k + 1) + b)
    for e in range(len(k)):
        pa, pb = rows[k[e], a[e]], rows[k[e] + 1, b[e]]
        n, m = len(graphs[k[e]]), len(graphs[k[e] + 1])
        assert got[e] == _alone(pa[None, :n], pb[None, :n], dist[k[e], :n, :n])[0]
        assert got[e] != _alone(pa[None, :m], pb[None, :m], dist[k[e] + 1, :m, :m])[0]


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
        duals = transport._integer_duals(*_pad(pairs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert np.isfinite(duals).all() if levels == 2 else np.isfinite(duals).any()
    alone = [transport._integer_duals(*_pad([pair]))[0] for pair in pairs]
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
        wasserstein1_cost(mu, foreign, h)
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
