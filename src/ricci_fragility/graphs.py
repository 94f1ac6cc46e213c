"""Undirected weighted market graphs.

Construction from distance/correlation matrices, Prim minimum spanning
trees with deterministic tie-breaking, correlation-threshold edge
augmentation, unweighted hop-distance matrices (also clipped at 3, all
that edges-mode curvature reads), and induced subgraphs.
Curvature code reads a graph as dense arrays (`_dense`).

Edge weights are *distances* (larger = weaker relationship); raw
correlations ride along separately because thresholding reads
correlations while tree construction and transport read distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DisconnectedGraphError, GraphError

#: Marker for node pairs with no connecting path in a hop-distance matrix.
UNREACHABLE = np.inf

#: Slack allowed when validating allegedly symmetric float matrices.
SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class MarketGraph:
    """Immutable undirected weighted graph over an ordered node set.

    Parameters
    ----------
    nodes : tuple
        Ordered node identifiers (tickers or integers). Node order is the
        canonical order used for edge keys, iteration, and tie-breaking.
    edges : tuple
        Edge keys ``(a, b)`` with ``a`` preceding ``b`` in node order.
        Non-canonical input is normalised; duplicates are rejected.
    weights : dict
        Map from edge key to nonnegative finite distance.
    correlations : dict or None
        Optional map from edge key to correlation in ``[-1, 1]``. When
        present it must cover every edge. Values within ``1e-9`` of the
        interval are clipped onto it.
    """

    nodes: tuple
    edges: tuple
    weights: dict
    correlations: dict | None = None

    def __post_init__(self):
        nodes = tuple(self.nodes)
        if len(nodes) < 2:
            raise GraphError("graph needs at least two nodes")
        index = {v: i for i, v in enumerate(nodes)}
        if len(index) != len(nodes):
            raise GraphError("duplicate node identifiers")

        canonical = []
        weights = {}
        correlations = {} if self.correlations is not None else None
        seen = set()
        for edge in self.edges:
            a, b = edge
            if a == b:
                raise GraphError(f"self-loop on node {a!r}")
            if a not in index or b not in index:
                raise GraphError(f"edge {edge!r} references unknown node")
            key = (a, b) if index[a] < index[b] else (b, a)
            if key in seen:
                raise GraphError(f"duplicate edge {key!r}")
            seen.add(key)
            canonical.append(key)

            w = self._lookup(self.weights, edge, key)
            if w is None:
                raise GraphError(f"missing weight for edge {key!r}")
            w = float(w)
            if not np.isfinite(w) or w < 0.0:
                raise GraphError(f"weight for edge {key!r} must be finite and >= 0")
            weights[key] = w

            if correlations is not None:
                rho = self._lookup(self.correlations, edge, key)
                if rho is None:
                    raise GraphError(f"missing correlation for edge {key!r}")
                rho = float(rho)
                if abs(rho) > 1.0 + SYMMETRY_TOL:
                    raise GraphError(f"correlation {rho} for edge {key!r} outside [-1, 1]")
                correlations[key] = min(1.0, max(-1.0, rho))

        canonical.sort(key=lambda e: (index[e[0]], index[e[1]]))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", tuple(canonical))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "correlations", correlations)

    @staticmethod
    def _lookup(table, edge, key):
        if edge in table:
            return table[edge]
        return table.get(key)

    @cached_property
    def index(self) -> dict:
        """Node id -> position in ``nodes``."""
        return {v: i for i, v in enumerate(self.nodes)}

    @cached_property
    def adjacency(self) -> dict:
        """Node id -> tuple of neighbours in node order."""
        nbrs = {v: [] for v in self.nodes}
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        idx = self.index
        return {v: tuple(sorted(ns, key=idx.__getitem__)) for v, ns in nbrs.items()}

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge_key(self, a, b) -> tuple:
        idx = self.index
        if a not in idx or b not in idx:
            raise GraphError(f"unknown node in pair ({a!r}, {b!r})")
        if a == b:
            raise GraphError(f"pair ({a!r}, {b!r}) is not an edge key")
        return (a, b) if idx[a] < idx[b] else (b, a)

    def has_edge(self, a, b) -> bool:
        return self.edge_key(a, b) in self.weights

    def weight(self, a, b) -> float:
        return self.weights[self.edge_key(a, b)]

    def correlation(self, a, b) -> float:
        if self.correlations is None:
            raise GraphError("graph carries no correlations")
        return self.correlations[self.edge_key(a, b)]

    def neighbors(self, v) -> tuple:
        if v not in self.index:
            raise GraphError(f"unknown node {v!r}")
        return self.adjacency[v]

    def degree(self, v) -> int:
        return len(self.neighbors(v))

    def is_connected(self) -> bool:
        return bool(np.isfinite(_hops(_dense(self)[0])).all())


@dataclass(frozen=True)
class HopDistanceMatrix:
    """Unweighted shortest-path (hop) distances for a graph's node set.

    ``matrix[i, j]`` is the hop count between ``nodes[i]`` and
    ``nodes[j]``; unreachable pairs hold ``UNREACHABLE`` (``inf``).
    Off-diagonal entries need not form a hop metric, but a NaN or negative
    entry, or a diagonal entry other than 0 (``inf`` included), is a
    ``GraphError``: W1 moves shared mass for free, which charges d(v, v)
    nothing. The array is frozen read-only so instances can be shared
    freely.
    """

    nodes: tuple
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != len(self.nodes):
            raise GraphError("hop matrix shape does not match node count")
        if not (m >= 0.0).all():
            raise GraphError("hop matrix entries must be nonnegative, not NaN")
        if np.diagonal(m).any():
            raise GraphError("hop matrix diagonal must be zero")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "matrix", m)

    @cached_property
    def index(self) -> dict:
        return {v: i for i, v in enumerate(self.nodes)}

    def dist(self, a, b) -> float:
        i, j = self.positions((a, b))
        return float(self.matrix[i, j])

    def positions(self, node_ids) -> np.ndarray:
        """Matrix positions of ``node_ids``; ``GraphError`` for an unknown id."""
        idx = self.index
        try:
            return np.fromiter((idx[v] for v in node_ids), dtype=np.intp)
        except KeyError as exc:
            raise GraphError(f"node {exc.args[0]!r} missing from hop matrix") from exc

    @cached_property
    def connected(self) -> bool:
        return bool(np.all(np.isfinite(self.matrix)))


def build_complete_graph(distances, correlations, nodes=None) -> MarketGraph:
    """Build the complete graph K_n with distance weights and correlations.

    Both matrices must be square, symmetric (within ``1e-9``), and of the
    same order ``n >= 2``; distances must be nonnegative with a zero
    diagonal. ``nodes`` optionally labels the vertices (defaults to
    ``0..n-1``).
    """
    d = np.asarray(distances, dtype=float)
    c = np.asarray(correlations, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise GraphError("distance matrix must be square")
    if c.shape != d.shape:
        raise GraphError("correlation matrix shape differs from distance matrix")
    n = d.shape[0]
    if n < 2:
        raise GraphError("need at least two nodes")
    if not np.all(np.isfinite(d)):
        raise GraphError("distance matrix has non-finite entries")
    if np.max(np.abs(d - d.T)) > SYMMETRY_TOL or np.max(np.abs(c - c.T)) > SYMMETRY_TOL:
        raise GraphError("input matrices must be symmetric")
    if np.max(np.abs(np.diag(d))) > 1e-12:
        raise GraphError("distance matrix diagonal must be zero")
    if np.min(d) < 0.0:
        raise GraphError("distances must be nonnegative")

    if nodes is None:
        nodes = tuple(range(n))
    else:
        nodes = tuple(nodes)
        if len(nodes) != n:
            raise GraphError("node labels do not match matrix order")

    return _from_edge_mask(nodes, np.ones((n, n), dtype=bool), d, c)


def minimum_spanning_tree(graph: MarketGraph) -> MarketGraph:
    """Prim's minimum spanning tree with deterministic tie-breaking.

    Growth starts from the first node; at each step the frontier edge
    with the smallest ``(weight, i, j)`` triple is taken, where ``i < j``
    are the endpoint positions in node order. Equal-weight inputs
    therefore always produce the same tree.
    """
    adj, w = _dense(graph)
    return _edge_subset(graph, [(graph.nodes[i], graph.nodes[j])
                                for i, j in _prim(np.where(adj, w, np.inf)[None])[0].tolist()])


def _prim(w: np.ndarray) -> np.ndarray:
    """Prim's trees of a ``(G, n, n)`` stack of dense symmetric weight
    matrices (``inf``: no edge), each grown from node 0 with the
    `minimum_spanning_tree` tie-break: a step takes the frontier edge with
    the smallest ``(weight, i, j)``, ``i < j``. Each upper triangle, which
    is in ``(i, j)`` order, is ranked once by `_stable_order`, so a step is
    a few array operations on the whole stack, whatever its size.
    Returns the ``(G, n - 1, 2)`` pairs ``(i, j)`` in the order taken;
    ``DisconnectedGraphError`` if some ``w`` spans no tree."""
    size, n = w.shape[:2]
    iu, ju = np.triu_indices(n, 1)
    order = _stable_order(w[:, iu, ju])
    stack, flat = np.arange(size), np.arange(0, size * n, n)
    inverse = np.empty(order.shape, dtype=np.int32)
    np.put_along_axis(inverse, order, np.arange(iu.size, dtype=np.int32), axis=1)
    rank = np.full((size, n, n), iu.size, dtype=np.int32)
    rank[:, iu, ju] = rank[:, ju, iu] = inverse
    # Each outside node keeps the rank of its best tree edge; tree nodes
    # hold iu.size, which is past every rank, as `tree` does there. Steps
    # index the stack's nodes flat: graph g's node k is g * n + k.
    best, rank = rank[:, 0].copy(), rank.reshape(size * n, n)
    tree = np.where(best < iu.size, 0, best)
    taken = np.empty((size, n - 1), dtype=np.intp)
    for s in range(n - 1):
        k = best.argmin(axis=1) + flat
        taken[:, s] = best.take(k)
        tree.put(k, iu.size)
        np.minimum(best, rank.take(k, axis=0), out=best)
        np.maximum(best, tree, out=best)
    pair = order[stack[:, None], taken]
    if np.isinf(w[stack[:, None], iu[pair], ju[pair]]).any():
        raise DisconnectedGraphError("graph is disconnected; no spanning tree exists")
    return np.stack((iu[pair], ju[pair]), axis=-1)


def _stable_order(x: np.ndarray) -> np.ndarray:
    """``np.argsort(x, axis=1, kind="stable")`` up to the order of equal
    ``inf`` entries (non-edges, which never decide a tree): numpy's SIMD
    sort, re-sorted stably on the rows that hold equal finite values."""
    order = np.argsort(x, axis=1)
    s = np.take_along_axis(x, order, axis=1)
    tied = ((s[:, 1:] == s[:, :-1]) & np.isfinite(s[:, 1:])).any(axis=1)
    if tied.any():
        order[tied] = np.argsort(x[tied], axis=1, kind="stable")
    return order


def augment_high_value_edges(mst: MarketGraph, base: MarketGraph, xi: float) -> MarketGraph:
    """Union of the tree edges and all base edges with correlation >= xi.

    ``mst`` must span the same node set as ``base`` and use only base
    edges; ``base`` must carry correlations. ``xi`` lies in ``[-1, 1]``.
    Weights and correlations of retained edges come from ``base``.
    """
    xi = float(xi)
    if not -1.0 <= xi <= 1.0:
        raise ConfigError(f"threshold xi={xi} outside [-1, 1]")
    if mst.nodes != base.nodes:
        raise GraphError("tree and base graph disagree on the node set")
    if base.correlations is None:
        raise GraphError("base graph carries no correlations to threshold")
    for e in mst.edges:
        if e not in base.weights:
            raise GraphError(f"tree edge {e!r} is not a base edge")

    tree = set(mst.edges)
    return _edge_subset(base, [e for e in base.edges if e in tree or base.correlations[e] >= xi])


def hop_distances(graph: MarketGraph) -> HopDistanceMatrix:
    """All-pairs unweighted shortest-path lengths (BFS metric).

    Unreachable pairs are marked ``UNREACHABLE`` rather than raising, so
    callers decide whether disconnection is an error.
    """
    return HopDistanceMatrix(nodes=graph.nodes, matrix=_hops(_dense(graph)[0]))


def _hops(adj: np.ndarray) -> np.ndarray:
    """Hop counts of the symmetric boolean adjacency ``adj``, ``(n, n)`` or a
    ``(G, n, n)`` stack, by a breadth-first search from every node of every
    graph at once: hop h reaches the unseen neighbours of hop h - 1's frontier,
    one product per hop up to the stack's largest diameter; ``UNREACHABLE``
    where no path exists. The diagonal starts seen, so self-loops are ignored.
    A product entry counts at most n frontier nodes, exact in float32."""
    f = adj.astype(np.float32)
    seen = np.broadcast_to(np.eye(adj.shape[-1], dtype=bool), adj.shape).copy()
    hop, frontier, h = np.where(seen, 0.0, UNREACHABLE), seen, 0
    while frontier.any():
        h += 1
        frontier = (frontier.astype(np.float32) @ f > 0) & ~seen
        hop[frontier] = h
        seen |= frontier
    return hop


def _clipped_hops(adj: np.ndarray) -> np.ndarray:
    """``np.minimum(_hops(adj), 3)`` in one boolean product: 0 on the
    diagonal, 1 on ``adj``, 2 at a common neighbour, 3 elsewhere, unreachable
    pairs included. All an edge's curvature reads, as its measures' supports
    lie within 3 hops (`_curvatures`). float32 sums of ones stay positive."""
    f = adj.astype(np.float32)
    hop = 3.0 - (f @ f > 0)
    hop[adj] = 1.0
    diag = np.arange(adj.shape[-1])
    hop[..., diag, diag] = 0.0
    return hop


def _hops_with_edge(hop: np.ndarray, i, j) -> np.ndarray:
    """`_hops` of a graph with hop matrix ``hop`` once edge (i, j) is added:
    a new shortest path crosses the edge once, in one direction. On a
    ``(G, n, n)`` stack ``i`` and ``j`` hold one edge per graph."""
    at = (np.arange(len(hop)),) if hop.ndim == 3 else ()
    hi, hj = hop[(*at, i)][..., None], hop[(*at, j)][..., None]  # columns, as hop is symmetric
    return np.minimum(hop, np.minimum(hi + 1.0 + hj.swapaxes(-1, -2),
                                      hj + 1.0 + hi.swapaxes(-1, -2)))


def induced_subgraph(graph: MarketGraph, node_subset) -> MarketGraph:
    """Subgraph on ``node_subset`` keeping all internal edges.

    Node order is inherited from ``graph``; the subset must contain at
    least two distinct known nodes.
    """
    subset = list(node_subset)
    seen = set()
    for v in subset:
        if v not in graph.index:
            raise GraphError(f"unknown node {v!r} in subset")
        if v in seen:
            raise GraphError(f"duplicate node {v!r} in subset")
        seen.add(v)
    if len(seen) < 2:
        raise ConfigError("subset must contain at least two nodes")

    nodes = tuple(v for v in graph.nodes if v in seen)
    return _edge_subset(graph, [e for e in graph.edges if e[0] in seen and e[1] in seen],
                        nodes)


def _edge_subset(graph: MarketGraph, edges, nodes=None) -> MarketGraph:
    """``graph`` restricted to ``edges`` (and to ``nodes`` if given)."""
    corrs = None
    if graph.correlations is not None:
        corrs = {e: graph.correlations[e] for e in edges}
    return MarketGraph(nodes=graph.nodes if nodes is None else nodes, edges=tuple(edges),
                       weights={e: graph.weights[e] for e in edges}, correlations=corrs)


def _dense(graph: MarketGraph):
    """``(adj, w)`` of ``graph`` in node order: the boolean adjacency and the
    edge weights, with 0 where there is no edge."""
    idx = graph.index
    i = [idx[a] for a, _ in graph.weights]
    j = [idx[b] for _, b in graph.weights]
    adj = np.zeros((graph.n, graph.n), dtype=bool)
    w = np.zeros((graph.n, graph.n))
    adj[i, j] = adj[j, i] = True
    w[i, j] = w[j, i] = list(graph.weights.values())
    return adj, w


def _from_edge_mask(nodes: tuple, mask: np.ndarray, d: np.ndarray, c: np.ndarray) -> MarketGraph:
    """Graph on ``nodes`` with an edge for each ``mask[i, j]``, ``i < j``,
    weighted by ``d[i, j]`` and carrying correlation ``c[i, j]``."""
    i, j = np.nonzero(np.triu(mask, 1))
    edges = [(nodes[a], nodes[b]) for a, b in zip(i.tolist(), j.tolist())]
    return MarketGraph(nodes=nodes, edges=tuple(edges), weights=dict(zip(edges, d[i, j].tolist())),
                       correlations=dict(zip(edges, c[i, j].tolist())))
