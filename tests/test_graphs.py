"""Graph construction, MST, augmentation, hop distances, subgraphs."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from ricci_fragility.bounds import _padded
from ricci_fragility.errors import ConfigError, DisconnectedGraphError, GraphError
from ricci_fragility.graphs import (
    UNREACHABLE,
    HopDistanceMatrix,
    MarketGraph,
    _clipped_hops,
    _dense,
    _hops,
    _hops_with_edge,
    _prim,
    _stable_order,
    augment_high_value_edges,
    build_complete_graph,
    hop_distances,
    induced_subgraph,
    minimum_spanning_tree,
)
from ricci_fragility.indicator import WindowConfig, window_graph
from ricci_fragility.synthetic import regime_switch


def _complete(n, weight=1.0):
    nodes = tuple(range(n))
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return MarketGraph(nodes=nodes, edges=edges, weights={e: weight for e in edges})


def _path(n):
    nodes = tuple(range(n))
    edges = tuple((i, i + 1) for i in range(n - 1))
    return MarketGraph(nodes=nodes, edges=edges, weights={e: 1.0 for e in edges})


def _cycle(n):
    nodes = tuple(range(n))
    edges = tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),)
    return MarketGraph(nodes=nodes, edges=edges, weights={e: 1.0 for e in edges})


# ---------------------------------------------------------------------------
# MarketGraph construction
# ---------------------------------------------------------------------------


def test_graph_rejects_duplicate_nodes():
    with pytest.raises(GraphError):
        MarketGraph(nodes=("A", "A"), edges=(), weights={})


def test_graph_rejects_self_loop():
    with pytest.raises(GraphError):
        MarketGraph(nodes=(0, 1), edges=((0, 0),), weights={(0, 0): 1.0})


def test_graph_rejects_unknown_endpoint():
    with pytest.raises(GraphError):
        MarketGraph(nodes=(0, 1), edges=((0, 2),), weights={(0, 2): 1.0})


def test_graph_rejects_duplicate_edge_even_reversed():
    with pytest.raises(GraphError):
        MarketGraph(nodes=(0, 1), edges=((0, 1), (1, 0)), weights={(0, 1): 1.0})


def test_graph_rejects_missing_or_bad_weight():
    with pytest.raises(GraphError):
        MarketGraph(nodes=(0, 1), edges=((0, 1),), weights={})
    with pytest.raises(GraphError):
        MarketGraph(nodes=(0, 1), edges=((0, 1),), weights={(0, 1): -0.5})
    with pytest.raises(GraphError):
        MarketGraph(nodes=(0, 1), edges=((0, 1),), weights={(0, 1): float("nan")})


def test_graph_canonicalises_reversed_edges():
    g = MarketGraph(nodes=("B", "A"), edges=(("A", "B"),), weights={("A", "B"): 2.0})
    # node order is ("B", "A"), so the canonical key is ("B", "A")
    assert g.edges == (("B", "A"),)
    assert g.weight("A", "B") == 2.0
    assert g.has_edge("B", "A")


def test_graph_edges_sorted_by_node_position():
    g = MarketGraph(
        nodes=(0, 1, 2),
        edges=((1, 2), (0, 2), (0, 1)),
        weights={(1, 2): 1.0, (0, 2): 1.0, (0, 1): 1.0},
    )
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_graph_correlations_validated_and_clipped():
    with pytest.raises(GraphError):
        MarketGraph(nodes=(0, 1), edges=((0, 1),), weights={(0, 1): 1.0},
                    correlations={(0, 1): 1.5})
    g = MarketGraph(nodes=(0, 1), edges=((0, 1),), weights={(0, 1): 1.0},
                    correlations={(0, 1): 1.0 + 1e-10})
    assert g.correlation(0, 1) == 1.0


def test_graph_correlations_must_cover_all_edges():
    with pytest.raises(GraphError):
        MarketGraph(nodes=(0, 1, 2), edges=((0, 1), (1, 2)),
                    weights={(0, 1): 1.0, (1, 2): 1.0},
                    correlations={(0, 1): 0.5})


def test_neighbors_and_degree():
    g = _path(4)
    assert g.neighbors(0) == (1,)
    assert g.neighbors(1) == (0, 2)
    assert g.degree(2) == 2
    assert g.is_connected()


def test_disconnected_graph_detected():
    g = MarketGraph(nodes=(0, 1, 2, 3), edges=((0, 1), (2, 3)),
                    weights={(0, 1): 1.0, (2, 3): 1.0})
    assert not g.is_connected()


# ---------------------------------------------------------------------------
# build_complete_graph
# ---------------------------------------------------------------------------


def test_build_complete_graph_basic():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    c = np.array([[1.0, 0.5, -0.1], [0.5, 1.0, 0.2], [-0.1, 0.2, 1.0]])
    g = build_complete_graph(d, c, nodes=("X", "Y", "Z"))
    assert g.edge_count == 3
    assert g.weight("X", "Z") == 2.0
    assert g.correlation("Y", "Z") == 0.2


def test_build_complete_graph_rejects_asymmetry():
    d = np.array([[0.0, 1.0], [1.1, 0.0]])
    c = np.eye(2)
    with pytest.raises(GraphError):
        build_complete_graph(d, c)


def test_build_complete_graph_rejects_nonzero_diagonal():
    d = np.array([[0.1, 1.0], [1.0, 0.0]])
    with pytest.raises(GraphError):
        build_complete_graph(d, np.eye(2))


def test_build_complete_graph_rejects_negative_distance():
    d = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(GraphError):
        build_complete_graph(d, np.eye(2))


def test_build_complete_graph_rejects_tiny_matrix():
    with pytest.raises(GraphError):
        build_complete_graph(np.zeros((1, 1)), np.ones((1, 1)))


def test_build_complete_graph_shape_mismatch():
    with pytest.raises(GraphError):
        build_complete_graph(np.zeros((2, 2)), np.ones((3, 3)))


# ---------------------------------------------------------------------------
# minimum spanning tree
# ---------------------------------------------------------------------------


def test_mst_of_tree_is_itself():
    g = _path(5)
    t = minimum_spanning_tree(g)
    assert t.edges == g.edges
    assert t.weights == g.weights


def test_mst_deterministic_under_ties():
    # Unit-weight K_4: every frontier edge ties, so the lexicographic rule
    # grows a star rooted at the first node.
    t = minimum_spanning_tree(_complete(4))
    assert t.edges == ((0, 1), (0, 2), (0, 3))
    # Repeat runs agree exactly.
    assert minimum_spanning_tree(_complete(4)).edges == t.edges


def test_mst_known_weighted_case():
    nodes = (0, 1, 2, 3)
    edges = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    weights = {(0, 1): 5.0, (0, 2): 1.0, (0, 3): 4.0,
               (1, 2): 2.0, (1, 3): 3.0, (2, 3): 6.0}
    t = minimum_spanning_tree(MarketGraph(nodes=nodes, edges=edges, weights=weights))
    assert set(t.edges) == {(0, 2), (1, 2), (1, 3)}


def test_mst_disconnected_raises():
    g = MarketGraph(nodes=(0, 1, 2, 3), edges=((0, 1), (2, 3)),
                    weights={(0, 1): 1.0, (2, 3): 1.0})
    with pytest.raises(DisconnectedGraphError):
        minimum_spanning_tree(g)


def test_mst_preserves_correlations_subset():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    c = np.array([[1.0, 0.9, 0.5], [0.9, 1.0, 0.1], [0.5, 0.1, 1.0]])
    t = minimum_spanning_tree(build_complete_graph(d, c))
    assert set(t.edges) == {(0, 1), (0, 2)}
    assert t.correlations == {(0, 1): 0.9, (0, 2): 0.5}


def _spanning_trees(n):
    """All spanning trees of K_n by brute force (n small)."""
    all_edges = list(itertools.combinations(range(n), 2))
    for cand in itertools.combinations(all_edges, n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for a, b in cand:
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            yield cand


@given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=10, max_size=10))
@settings(max_examples=60, deadline=None)
def test_mst_total_weight_matches_exhaustive_enumeration(raw):
    # K_5 has C(10, 4) = 210 candidate edge subsets; compare Prim's total
    # weight against the best spanning tree found by enumeration.
    n = 5
    all_edges = list(itertools.combinations(range(n), 2))
    weights = {e: w for e, w in zip(all_edges, raw)}
    g = MarketGraph(nodes=tuple(range(n)), edges=tuple(all_edges), weights=weights)
    t = minimum_spanning_tree(g)
    prim_total = sum(t.weights.values())
    best = min(sum(weights[e] for e in cand) for cand in _spanning_trees(n))
    assert prim_total == pytest.approx(best, abs=1e-12)


def _scan_prim(g):
    """Plain Prim: scan every frontier edge for the smallest (weight, i, j)."""
    idx = g.index
    in_tree, chosen = {0}, []
    while len(in_tree) < g.n:
        frontier = [(g.weights[(a, b)], idx[a], idx[b]) for a, b in g.edges
                    if (idx[a] in in_tree) != (idx[b] in in_tree)]
        if not frontier:
            return None
        _, i, j = min(frontier)
        chosen.append((g.nodes[i], g.nodes[j]))
        in_tree |= {i, j}
    return chosen


def test_mst_matches_full_frontier_scan_under_ties():
    # Weights from {1, 2, 3} make ties common; shuffled labels keep node
    # order apart from label order; sparse draws are often disconnected.
    rng = np.random.default_rng(2024)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        n = int(rng.integers(2, 10))
        nodes = tuple(f"v{p}" for p in rng.permutation(n))
        p = rng.uniform(0.2, 1.0)
        edges = [(nodes[i], nodes[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        weights = {e: float(rng.integers(1, 4)) for e in edges}
        corrs = {e: float(rng.uniform(-1, 1)) for e in edges}
        g = MarketGraph(nodes=nodes, edges=tuple(edges), weights=weights, correlations=corrs)
        expected = _scan_prim(g)
        outcomes[expected is not None] += 1
        if expected is None:
            with pytest.raises(DisconnectedGraphError):
                minimum_spanning_tree(g)
            continue
        t = minimum_spanning_tree(g)
        assert set(t.edges) == set(expected)
        assert t.weights == {e: weights[e] for e in expected}
        assert t.correlations == {e: corrs[e] for e in expected}
    assert min(outcomes.values()) >= 30


def _stack_of_graphs(rng, n, size):
    """``size`` seeded graphs on nodes ``0..n-1`` as MarketGraphs and as a
    ``(size, n, n)`` stack of dense weights (``inf``: no edge): tied
    integer weights, a path, a star and random densities."""
    graphs = []
    for g in range(size):
        if g % 4 == 0:
            edges = [(i, i + 1) for i in range(n - 1)]
        elif g % 4 == 1:
            edges = [(0, j) for j in range(1, n)] + [(1, 2)] * (n > 2)
        else:
            p = rng.uniform(0.3, 1.0)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        weights = {e: float(rng.integers(1, 4)) for e in edges}
        graphs.append(MarketGraph(nodes=tuple(range(n)), edges=tuple(edges), weights=weights))
    w = np.stack([np.where(adj, w, np.inf) for adj, w in map(_dense, graphs)])
    return graphs, w


# Every graph of a stack gets the tree a full frontier scan takes, in the
# same order, whatever the other graphs; a disconnected one fails the call.
@pytest.mark.parametrize("seed", range(10))
def test_stacked_prim_equals_full_frontier_scan(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    graphs, w = _stack_of_graphs(rng, n, 12)
    scans = [_scan_prim(g) for g in graphs]
    connected = [i for i, scan in enumerate(scans) if scan is not None]
    trees = _prim(w[connected])
    assert trees.shape == (len(connected), n - 1, 2)
    for i, tree in zip(connected, trees):
        assert list(map(tuple, tree.tolist())) == scans[i]
        assert list(map(tuple, _prim(w[i][None])[0].tolist())) == scans[i]
    if len(connected) < len(graphs):
        with pytest.raises(DisconnectedGraphError):
            _prim(w)


def _kruskal(w):
    """Kruskal on the ``(weight, i, j)`` order: the unique tree under that
    total order, which Prim's tie-break also takes."""
    n = len(w)
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    tree = set()
    for _, i, j in sorted((w[i, j], i, j) for i in range(n) for j in range(i + 1, n)
                          if np.isfinite(w[i, j])):
        if root(i) != root(j):
            parent[root(i)] = root(j)
            tree.add((i, j))
    return tree


# Graphs with distinct float weights (the SIMD sort's order) and graphs
# with exact ties, 0.0 against -0.0 and inf non-edges (the stable
# re-sort) share stacks; each tree is the scan's and Kruskal's.
@pytest.mark.parametrize("seed", range(6))
def test_prim_tie_rule_in_mixed_stacks(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 14))
    stack = []
    for g in range(12):
        w = rng.uniform(0.0, 2.0, (n, n))
        if g % 3 == 1:
            w = np.round(w * 2.0) / 2.0  # few distinct values: ties
        if g % 4 == 2:
            w[rng.random((n, n)) < 0.3] = 0.0
            w[rng.random((n, n)) < 0.3] = -0.0
        w = np.where(np.tri(n, dtype=bool), w.T, w)  # upper triangle mirrored, signs kept
        if g % 2:
            gone = np.triu(rng.random((n, n)) < 0.3, 1)
            gone[np.arange(n - 1), np.arange(1, n)] = False  # keep a path
            w[gone | gone.T] = np.inf
        np.fill_diagonal(w, np.inf)
        stack.append(w)
    w = np.stack(stack)
    assert np.signbit(w[w == 0.0]).any() and (w == np.round(w * 2.0) / 2.0).all(axis=(1, 2)).any()
    trees = _prim(w)
    for wg, tree in zip(w, trees):
        edges = [(i, j) for i, j in zip(*np.nonzero(np.triu(np.isfinite(wg), 1)))]
        g = MarketGraph(nodes=tuple(range(n)), edges=tuple(edges),
                        weights={(i, j): abs(float(wg[i, j])) for i, j in edges})
        assert list(map(tuple, tree.tolist())) == _scan_prim(g)
        assert set(map(tuple, tree.tolist())) == _kruskal(wg)


# The rank order `_prim` reads equals a stable argsort on rows with
# injected ties, and on rows with inf entries it does up to the order
# of the infs among themselves.
def test_stable_order_equals_stable_argsort():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((200, 300))
    for row in x[::2]:
        k = int(rng.integers(1, 50))
        row[rng.integers(0, 300, k)] = row[rng.integers(0, 300, k)]
    for row in x[1:80:2]:  # one 0.0 and one -0.0, which compare equal
        row[rng.choice(300, 2, replace=False)] = 0.0, -0.0
    assert np.array_equal(_stable_order(x), np.argsort(x, axis=1, kind="stable"))
    x[rng.random(x.shape) < 0.2] = np.inf
    order, stable = _stable_order(x), np.argsort(x, axis=1, kind="stable")
    finite = np.isfinite(np.take_along_axis(x, stable, axis=1))
    assert np.array_equal(order[finite], stable[finite])
    assert np.array_equal(np.sort(order, axis=1), np.sort(stable, axis=1))


# One BFS over a stack: paths (long diameters), stars, tied and sparse
# random graphs, disconnected ones among them, each as scipy finds it.
@pytest.mark.parametrize("seed", range(10))
def test_stacked_hops_equal_scipy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    graphs, w = _stack_of_graphs(rng, n, 9)
    graphs.append(MarketGraph(nodes=tuple(range(n)), edges=((0, n - 1),) if n > 2 else (),
                              weights={(0, n - 1): 1.0} if n > 2 else {}))
    adj = np.stack([_dense(g)[0] for g in graphs])
    hop = _hops(adj)
    assert hop.shape == adj.shape
    for g, h in zip(graphs, hop):
        assert np.array_equal(h, _scipy_hops(g))
    assert not np.isfinite(hop[-1]).all()
    assert len({np.max(h[np.isfinite(h)]) for h in hop}) > 1


def _scipy_hops_of(adj):
    """Reference hop matrix of a boolean adjacency of any order."""
    return shortest_path(csr_matrix(adj.astype(float)), directed=False, unweighted=True)


def _path_adj(n, size=None):
    adj = np.zeros((n, n) if size is None else (size, n), dtype=bool)
    adj[np.arange(n - 1), np.arange(1, n)] = adj[np.arange(1, n), np.arange(n - 1)] = True
    return adj


def _assert_hops(adj):
    """`_hops` of ``adj`` and of each of its graphs alone equal scipy's."""
    hop = _hops(adj)
    assert hop.shape == adj.shape and hop.dtype == float
    for a, h in zip(adj.reshape(-1, *adj.shape[-2:]), hop.reshape(-1, *adj.shape[-2:])):
        expected = _scipy_hops_of(a)
        assert np.array_equal(h, expected)
        assert np.array_equal(_hops(a), expected)


# A path of n nodes is the deepest graph on n nodes: its search runs
# n - 1 frontier steps; odd and even lengths, both forms.
@pytest.mark.parametrize("n", [2, 3, 5, 9, 17, 65, 129])
def test_hops_of_paths_reach_diameter_n_minus_one(n):
    adj = _path_adj(n)
    _assert_hops(adj)
    _assert_hops(adj[None])
    assert _hops(adj)[0, -1] == n - 1


# One stack of paths of every length 1..n - 1, padded with isolated
# nodes, in a shuffled order: each graph's frontier empties while others
# still need steps.
@pytest.mark.parametrize("n", [6, 17, 40])
def test_hops_of_stacks_mixing_diameters(n):
    stack = np.zeros((n - 1, n, n), dtype=bool)
    for d in range(1, n):
        stack[d - 1, :d + 1, :d + 1] = _path_adj(d + 1)
    stack = stack[np.random.default_rng(n).permutation(n - 1)]
    _assert_hops(stack)
    assert sorted(np.max(h[np.isfinite(h)]) for h in _hops(stack)) == list(range(1, n))


def test_hops_of_edgeless_complete_and_single_node_graphs():
    for n in (1, 2, 3, 8):
        empty = np.zeros((n, n), dtype=bool)
        complete = ~np.eye(n, dtype=bool)
        _assert_hops(empty)
        _assert_hops(complete)
        _assert_hops(np.stack([empty, complete, empty]))
        assert np.array_equal(_hops(empty), np.where(np.eye(n, dtype=bool), 0.0, UNREACHABLE))


# Complete multipartite graphs, K_300 (parts of one node) and K_150,150:
# 1 across parts, 2 within a part. K_300's frontier products count up to
# 299 neighbours, past 255; K_256,300's hop-2 counts are exactly 256 and
# 300, so a product dtype that wraps at 256 loses hop 2.
@pytest.mark.parametrize("sides", [(1,) * 300, (150, 150), (256, 300)],
                         ids=["K_300", "K_150,150", "K_256,300"])
def test_hops_of_complete_multipartite_graphs(sides):
    part = np.repeat(np.arange(len(sides)), sides)
    same = part[:, None] == part[None, :]
    expected = np.where(same, 2.0, 1.0)
    np.fill_diagonal(expected, 0.0)
    assert np.array_equal(_hops(~same), expected)
    assert np.array_equal(_hops(np.stack([~same, ~same])), np.stack([expected, expected]))


# Isolated nodes and the zero padding of the stacks `bounds._draw` BFSes:
# padding nodes are unreachable from everything but themselves.
def test_hops_of_isolated_nodes_and_zero_padded_stacks():
    rng = np.random.default_rng(5)
    blocks = []
    for _ in range(30):
        n = int(rng.integers(2, 13))
        iu, ju = np.triu_indices(n, 1)
        drawn = rng.random(iu.size) < rng.uniform(0.1, 0.75)
        adj = np.zeros((n, n), dtype=bool)
        adj[iu[drawn], ju[drawn]] = adj[ju[drawn], iu[drawn]] = True
        blocks.append(adj)
    stack = _padded(blocks)
    _assert_hops(stack)
    hop = _hops(stack)
    for adj, h in zip(blocks, hop):
        n = len(adj)
        assert np.array_equal(h[:n, :n], _scipy_hops_of(adj))
        assert np.isinf(h[:n, n:]).all() and np.isinf(h[n:, :n]).all()
        assert np.array_equal(h[n:, n:], np.where(np.eye(len(h) - n, dtype=bool), 0.0,
                                                  UNREACHABLE))
    # A star with an isolated node, and a self-loop the adjacency ignores.
    star = np.zeros((6, 6), dtype=bool)
    star[0, 1:5] = star[1:5, 0] = True
    _assert_hops(star)
    looped = star.copy()
    looped[2, 2] = True
    assert np.array_equal(_hops(looped), _scipy_hops_of(star))


def _assert_clipped(adj):
    """`_clipped_hops` of ``adj`` and of each of its graphs alone equal
    `_hops` clipped at 3."""
    hop = _clipped_hops(adj)
    assert hop.shape == adj.shape and hop.dtype == float
    assert np.array_equal(hop, np.minimum(_hops(adj), 3))
    for a, h in zip(adj.reshape(-1, *adj.shape[-2:]), hop.reshape(-1, *adj.shape[-2:])):
        assert np.array_equal(_clipped_hops(a), h)


# Seeded random graphs of every density, alone and as a stack, with an
# isolated node (so disconnected) and a self-loop the adjacency ignores;
# a path, whose hop counts pass 3 most; and the zero-padded stacks of
# `bounds._draw`.
@pytest.mark.parametrize("seed", range(10))
def test_clipped_hops_equal_hops_clipped_at_three(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    adj = np.triu(rng.random((8, n, n)) < rng.uniform(0.0, 0.5, size=(8, 1, 1)), 1)
    adj |= adj.transpose(0, 2, 1)
    adj[0, 0], adj[0, :, 0], adj[1, 0, 0] = False, False, True
    _assert_clipped(adj)
    assert np.isinf(_hops(adj[0])).any()
    _assert_clipped(np.eye(n + 4, k=1, dtype=bool) | np.eye(n + 4, k=-1, dtype=bool))
    blocks = []
    for _ in range(12):
        m = int(rng.integers(2, 13))
        iu, ju = np.triu_indices(m, 1)
        drawn = rng.random(iu.size) < rng.uniform(0.1, 0.75)
        block = np.zeros((m, m), dtype=bool)
        block[iu[drawn], ju[drawn]] = block[ju[drawn], iu[drawn]] = True
        blocks.append(block)
    _assert_clipped(_padded(blocks))


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


def _complete_with_corr(rho):
    rho = np.asarray(rho, dtype=float)
    n = rho.shape[0]
    d = np.sqrt(2.0 * (1.0 - rho))
    np.fill_diagonal(d, 0.0)
    return build_complete_graph(d, rho)


def test_augment_threshold_one_returns_tree():
    rho = np.array([[1.0, 0.8, 0.2], [0.8, 1.0, 0.5], [0.2, 0.5, 1.0]])
    base = _complete_with_corr(rho)
    t = minimum_spanning_tree(base)
    out = augment_high_value_edges(t, base, 1.0)
    assert out.edges == t.edges


def test_augment_threshold_minus_one_returns_base():
    rho = np.array([[1.0, 0.8, 0.2], [0.8, 1.0, 0.5], [0.2, 0.5, 1.0]])
    base = _complete_with_corr(rho)
    t = minimum_spanning_tree(base)
    out = augment_high_value_edges(t, base, -1.0)
    assert out.edges == base.edges


def test_augment_keeps_tree_edges_below_threshold():
    # The (0, 2) correlation is far below the threshold, yet the edge stays
    # because the tree needs it.
    rho = np.array([[1.0, 0.9, -0.5, 0.1],
                    [0.9, 1.0, 0.0, 0.2],
                    [-0.5, 0.0, 1.0, 0.95],
                    [0.1, 0.2, 0.95, 1.0]])
    base = _complete_with_corr(rho)
    t = minimum_spanning_tree(base)
    out = augment_high_value_edges(t, base, 0.85)
    assert set(t.edges) <= set(out.edges)
    assert all(
        e in t.edges or base.correlations[e] >= 0.85
        for e in out.edges
    )


def test_augment_rejects_xi_out_of_range():
    rho = np.array([[1.0, 0.5], [0.5, 1.0]])
    base = _complete_with_corr(rho)
    t = minimum_spanning_tree(base)
    with pytest.raises(ConfigError):
        augment_high_value_edges(t, base, 1.0 + 1e-6)
    with pytest.raises(ConfigError):
        augment_high_value_edges(t, base, -1.5)


def test_augment_requires_correlations_on_base():
    g = _complete(3)
    t = minimum_spanning_tree(g)
    with pytest.raises(GraphError):
        augment_high_value_edges(t, g, 0.5)


def test_augment_rejects_node_set_mismatch():
    rho = np.array([[1.0, 0.8, 0.2], [0.8, 1.0, 0.5], [0.2, 0.5, 1.0]])
    base = _complete_with_corr(rho)
    other = _path(4)
    with pytest.raises(GraphError):
        augment_high_value_edges(other, base, 0.5)


def test_augment_rejects_foreign_tree_edge():
    rho = np.array([[1.0, 0.8, 0.2], [0.8, 1.0, 0.5], [0.2, 0.5, 1.0]])
    base = _complete_with_corr(rho)
    # A "tree" using an edge absent from a path base graph.
    smaller = MarketGraph(nodes=base.nodes, edges=((0, 1), (1, 2)),
                          weights={(0, 1): 1.0, (1, 2): 1.0},
                          correlations={(0, 1): 0.8, (1, 2): 0.5})
    pruned = MarketGraph(nodes=base.nodes, edges=((0, 1), (0, 2)),
                         weights={(0, 1): 1.0, (0, 2): 1.0},
                         correlations={(0, 1): 0.8, (0, 2): 0.2})
    out = augment_high_value_edges(pruned, base, 0.99)
    assert set(pruned.edges) <= set(out.edges)
    with pytest.raises(GraphError):
        augment_high_value_edges(pruned, smaller, 0.5)


@given(st.integers(min_value=0, max_value=2 ** 15 - 1))
@settings(max_examples=40, deadline=None)
def test_augment_edge_set_monotone_in_xi(seed):
    rng = np.random.default_rng(seed)
    n = 6
    rho = rng.uniform(-1.0, 1.0, size=(n, n))
    rho = (rho + rho.T) / 2.0
    np.fill_diagonal(rho, 1.0)
    base = _complete_with_corr(rho)
    t = minimum_spanning_tree(base)
    grid = sorted(rng.uniform(-1.0, 1.0, size=4))
    sizes = [len(augment_high_value_edges(t, base, xi).edges) for xi in grid]
    assert sizes == sorted(sizes, reverse=True)


# ---------------------------------------------------------------------------
# hop distances
# ---------------------------------------------------------------------------


def _scipy_hops(graph):
    """Reference hop matrix: scipy's unweighted shortest paths."""
    idx = graph.index
    rows, cols = [idx[a] for a, _ in graph.edges], [idx[b] for _, b in graph.edges]
    adj = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(graph.n, graph.n))
    return shortest_path(adj, directed=False, unweighted=True)


def _random_graph(seed):
    """Seeded random graph of 2-30 nodes at an edge density that leaves
    about half of them disconnected."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 31))
    p = float(rng.uniform(0.0, 3.0 / n))
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p)
    return MarketGraph(nodes=tuple(range(n)), edges=edges, weights={e: 1.0 for e in edges})


@pytest.fixture(scope="module")
def regime_panel():
    return regime_switch()


def test_hop_distances_path():
    h = hop_distances(_path(5))
    for i in range(5):
        for j in range(5):
            assert h.matrix[i, j] == abs(i - j)
    assert h.connected
    assert np.array_equal(h.matrix, _scipy_hops(_path(5)))


# Seeded random graphs, disconnected ones among them, and window graphs
# of the default corpus from the calm phase (long paths) to the crisis.
@pytest.mark.parametrize("seed", range(40))
def test_hop_distances_equal_scipy_on_random_graphs(seed):
    g = _random_graph(seed)
    h = hop_distances(g)
    assert np.array_equal(h.matrix, _scipy_hops(g))
    assert np.array_equal(_hops(_dense(g)[0]), h.matrix)


def test_random_graph_cases_include_disconnected_ones():
    assert sum(not hop_distances(_random_graph(s)).connected for s in range(40)) >= 10


# Adding one edge to a connected graph: the one-edge rule on the old hop
# matrix equals BFS on the new graph, for every absent pair, alone and on
# a stack of copies of the graph with one absent pair each.
@pytest.mark.parametrize("seed", range(30))
def test_one_edge_rule_equals_bfs_of_the_new_graph(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 16))
    adj = np.triu(rng.random((n, n)) < rng.uniform(0.0, 0.5), 1)
    adj[[int(rng.integers(v)) for v in range(1, n)], range(1, n)] = True  # a spanning tree
    adj |= adj.T
    hop = _hops(adj)
    assert np.isfinite(hop).all()
    absent = np.nonzero(np.triu(~adj, 1))
    stacked = _hops_with_edge(np.repeat(hop[None], absent[0].size, axis=0), *absent)
    for i, j, star in zip(*absent, stacked):
        grown = adj.copy()
        grown[i, j] = grown[j, i] = True
        assert np.array_equal(_hops_with_edge(hop, i, j), _hops(grown))
        assert np.array_equal(star, _hops(grown))


@pytest.mark.parametrize("k", [0, 100, 250, 300, 360, 420, 460])
@pytest.mark.parametrize("xi", [0.75, 0.9])
def test_hop_distances_equal_scipy_on_window_graphs(regime_panel, k, xi):
    g = window_graph(regime_panel.window(k, k + 132), WindowConfig(xi=xi))
    assert np.array_equal(hop_distances(g).matrix, _scipy_hops(g))


def test_hop_distances_cycle():
    h = hop_distances(_cycle(6))
    assert h.dist(0, 3) == 3
    assert h.dist(0, 5) == 1
    assert h.dist(1, 4) == 3


def test_hop_distances_ignore_weights():
    nodes = (0, 1, 2)
    edges = ((0, 1), (1, 2))
    g = MarketGraph(nodes=nodes, edges=edges, weights={(0, 1): 100.0, (1, 2): 0.001})
    h = hop_distances(g)
    assert h.dist(0, 2) == 2.0


def test_hop_distances_disconnected_marked_infinite():
    g = MarketGraph(nodes=(0, 1, 2, 3), edges=((0, 1), (2, 3)),
                    weights={(0, 1): 1.0, (2, 3): 1.0})
    h = hop_distances(g)
    assert h.dist(0, 2) == UNREACHABLE
    assert not h.connected
    assert h.dist(2, 3) == 1.0
    assert np.array_equal(h.matrix, _scipy_hops(g))


def test_hop_matrix_read_only():
    h = hop_distances(_path(3))
    with pytest.raises(ValueError):
        h.matrix[0, 1] = 9.0


def test_hop_positions_lookup():
    g = MarketGraph(nodes=("A", "B", "C"), edges=(("A", "B"), ("B", "C")),
                    weights={("A", "B"): 1.0, ("B", "C"): 1.0})
    h = hop_distances(g)
    assert list(h.positions(("C", "A"))) == [2, 0]


def test_hop_unknown_node_is_graph_error():
    h = hop_distances(_path(3))
    with pytest.raises(GraphError):
        h.dist(0, 9)
    with pytest.raises(GraphError):
        h.positions((0, 9))


@given(st.integers(min_value=0, max_value=2 ** 15 - 1))
@settings(max_examples=30, deadline=None)
def test_hop_distance_one_iff_edge(seed):
    rng = np.random.default_rng(seed)
    n = 7
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45]
    # ensure connectivity with a path backbone
    edges = sorted(set(edges) | {(i, i + 1) for i in range(n - 1)})
    g = MarketGraph(nodes=tuple(range(n)), edges=tuple(edges),
                    weights={e: 1.0 for e in edges})
    h = hop_distances(g)
    assert np.array_equal(h.matrix, _scipy_hops(g))
    for i in range(n):
        for j in range(i + 1, n):
            assert (h.matrix[i, j] == 1.0) == g.has_edge(i, j)
    # metric sanity: symmetry, zero diagonal, triangle inequality
    assert np.all(h.matrix == h.matrix.T)
    assert np.all(np.diag(h.matrix) == 0.0)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert h.matrix[i, j] <= h.matrix[i, k] + h.matrix[k, j] + 1e-12


# ---------------------------------------------------------------------------
# induced subgraphs
# ---------------------------------------------------------------------------


def test_induced_subgraph_keeps_internal_edges():
    g = _complete(5)
    s = induced_subgraph(g, [4, 1, 2])
    assert s.nodes == (1, 2, 4)
    assert s.edges == ((1, 2), (1, 4), (2, 4))


def test_induced_subgraph_preserves_weights_and_correlations():
    rho = np.array([[1.0, 0.8, 0.2], [0.8, 1.0, 0.5], [0.2, 0.5, 1.0]])
    d = np.sqrt(2.0 * (1.0 - rho))
    np.fill_diagonal(d, 0.0)
    g = build_complete_graph(d, rho)
    s = induced_subgraph(g, [0, 2])
    assert s.weight(0, 2) == g.weight(0, 2)
    assert s.correlation(0, 2) == g.correlation(0, 2)


def test_induced_subgraph_rejects_small_or_bad_subsets():
    g = _complete(4)
    with pytest.raises(ConfigError):
        induced_subgraph(g, [1])
    with pytest.raises(GraphError):
        induced_subgraph(g, [0, 9])
    with pytest.raises(GraphError):
        induced_subgraph(g, [0, 0, 1])


def test_hop_distance_matrix_shape_validation():
    with pytest.raises(GraphError):
        HopDistanceMatrix(nodes=(0, 1), matrix=np.zeros((3, 3)))


# A nonzero diagonal made the solver and the oracle disagree: on
# [[1, 1, 2], [1, 1, 1], [2, 1, 1]], W1 between (d0 + d1) / 2 and
# (d0 + d2) / 2 moved the shared half at 0 for free (0.5), while the
# oracle charged d(0, 0) = 1 for it (1.0).
@pytest.mark.parametrize("diagonal", [(1.0, 1.0, 1.0), (0.0, 1.0, 0.0), (0.0, 0.0, np.inf)])
def test_hop_distance_matrix_rejects_nonzero_diagonal(diagonal):
    matrix = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    np.fill_diagonal(matrix, diagonal)
    with pytest.raises(GraphError, match="diagonal"):
        HopDistanceMatrix(nodes=(0, 1, 2), matrix=matrix)
