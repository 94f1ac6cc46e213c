"""Neighbor measures, exact Wasserstein-1 on the hop metric, and
Ollivier-Ricci curvature.

The W1 solver is exact, not approximate. One front end (`_residual`)
fixes mass shared between identical atoms in place, since it never moves
under a metric cost, and leaves a residual problem. The value is then
routed by the residual's shape: no residual costs nothing; one distinct
distance has a closed form; two have one too, from Gale's supply-demand
theorem scored over the unions of the pooled cheap-cell patterns (past
``_UNION_CAP`` unions they fall back to the LP); three or more become a
pooled transportation LP, and every such LP of a window is solved in one
batched HiGHS call (`_solve_lps`). The optimal plan (`wasserstein1`) is
the fixed shared mass plus one unpooled LP on the residual. Every route
returns the exact optimum up to float rounding of sums, which keeps
closed-form comparisons tight at 1e-12.

A deliberately naive exhaustive oracle (`wasserstein1_oracle`) solves
small rational instances by integer dynamic programming and shares no
code with the solver, so the two can check each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from .errors import (
    ConfigError,
    DataError,
    DisconnectedGraphError,
    GraphError,
    InfiniteDistanceError,
    OracleBudgetError,
    SolverError,
)
from .graphs import HopDistanceMatrix, MarketGraph, hop_distances

#: Probability masses must sum to one within this tolerance.
MASS_TOL = 1e-12

#: Transport plans must reproduce their marginals within this tolerance.
MARGINAL_TOL = 1e-9

WEIGHTINGS = ("edge_weight", "uniform")

AVERAGING_MODES = ("edges", "pairs")

#: Two-distance residuals with more distinct cheap-pattern unions than
#: this are solved as LP blocks instead of in closed form.
_UNION_CAP = 256


@dataclass(frozen=True)
class NodeMeasure:
    """Probability measure on a graph's node set.

    ``support`` lists atoms in node order and ``masses`` their weights;
    every mass is strictly positive and the total is one within
    ``MASS_TOL``.
    """

    support: tuple
    masses: np.ndarray

    def __post_init__(self):
        support = tuple(self.support)
        masses = np.asarray(self.masses, dtype=float).copy()
        if masses.ndim != 1 or len(support) != masses.shape[0]:
            raise DataError("support and masses have mismatched lengths")
        if len(set(support)) != len(support):
            raise DataError("support atoms must be distinct")
        if masses.size == 0:
            raise DataError("measure must have at least one atom")
        if np.any(masses <= 0.0) or not np.all(np.isfinite(masses)):
            raise DataError("every mass must be finite and strictly positive")
        if abs(float(masses.sum()) - 1.0) > MASS_TOL:
            raise DataError(f"masses sum to {masses.sum()!r}, not 1")
        masses.flags.writeable = False
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "masses", masses)


@dataclass(frozen=True)
class TransportPlan:
    """Optimal coupling between two measures.

    ``plan[i, j]`` is the mass shipped from atom ``i`` of the source
    measure to atom ``j`` of the target measure; ``cost`` is the total
    transport cost (the W1 value when the plan is optimal).
    """

    plan: np.ndarray
    cost: float

    def __post_init__(self):
        plan = np.asarray(self.plan, dtype=float).copy()
        if plan.ndim != 2:
            raise DataError("plan must be a 2-d array")
        if np.any(plan < -1e-15):
            raise DataError("plan entries must be nonnegative")
        plan[plan < 0.0] = 0.0
        plan.flags.writeable = False
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "cost", float(self.cost))

    def row_marginal(self) -> np.ndarray:
        return self.plan.sum(axis=1)

    def col_marginal(self) -> np.ndarray:
        return self.plan.sum(axis=0)


@dataclass(frozen=True)
class CurvatureReport:
    """Per-pair curvatures plus their arithmetic mean.

    ``mode`` records whether pairs range over edges or over all node
    pairs; ``per_pair`` maps canonical pairs to curvature values in
    canonical order.
    """

    per_pair: dict
    average: float
    mode: str


def node_measure(graph: MarketGraph, node, weighting: str = "edge_weight") -> NodeMeasure:
    """Measure spread over the neighbours of ``node``.

    ``edge_weight`` assigns each neighbour mass proportional to the
    connecting edge's weight; ``uniform`` splits mass equally. When all
    incident weights are zero the edge_weight rule degenerates, so it
    falls back to uniform. Zero-weight neighbours of an otherwise
    positively weighted node carry no mass and are dropped from the
    support.
    """
    if weighting not in WEIGHTINGS:
        raise ConfigError(f"unknown weighting {weighting!r}")
    nbrs = graph.neighbors(node)
    if not nbrs:
        raise DataError(f"node {node!r} is isolated; its measure is undefined")
    if weighting == "uniform":
        masses = np.full(len(nbrs), 1.0 / len(nbrs))
        return NodeMeasure(support=nbrs, masses=masses)
    w = np.array([graph.weights[graph.edge_key(node, v)] for v in nbrs], dtype=float)
    total = float(w.sum())
    if total <= 0.0:
        masses = np.full(len(nbrs), 1.0 / len(nbrs))
        return NodeMeasure(support=nbrs, masses=masses)
    keep = w > 0.0
    support = tuple(v for v, k in zip(nbrs, keep) if k)
    masses = w[keep] / total
    return NodeMeasure(support=support, masses=masses)


# ---------------------------------------------------------------------------
# Exact W1 engine
# ---------------------------------------------------------------------------


def _solve_lps(blocks: list) -> list:
    """Solve independent transportation LPs in one HiGHS call.

    Each block is ``(row_caps, col_caps, dist)``. Windows on dense graphs
    generate hundreds of small residual problems; stacking them into one
    block-diagonal program gives the same optima for a single solver
    setup. The constraint matrix is assembled directly in CSR form: row
    i of a block sums source i's shipments, row m + j sums sink j's.
    Returns each block's optimal shipment matrix.
    """
    if not blocks:
        return []
    indices, row_nnz, b_eq, costs, offsets = [], [], [], [], [0]
    for row_caps, col_caps, dist in blocks:
        m, k = dist.shape
        cells = offsets[-1] + np.arange(m * k).reshape(m, k)
        indices += [cells.ravel(), cells.T.ravel()]
        row_nnz.append(np.repeat((k, m), (m, k)))
        # Equality constraints need matching totals; the inputs agree to
        # ~1e-12, so rescale the columns onto the row total.
        b_eq += [row_caps, col_caps * (float(row_caps.sum()) / float(col_caps.sum()))]
        costs.append(dist.ravel())
        offsets.append(offsets[-1] + m * k)
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(row_nnz))))
    a_eq = csr_matrix((np.ones(indptr[-1]), np.concatenate(indices), indptr),
                      shape=(indptr.size - 1, offsets[-1]))
    res = linprog(np.concatenate(costs), A_eq=a_eq, b_eq=np.concatenate(b_eq),
                  bounds=(0, None), method="highs", options={"presolve": False})
    if res.status != 0:
        raise SolverError(f"transport LP failed: {res.message}")
    return [res.x[s:e].reshape(dist.shape)
            for (_, _, dist), s, e in zip(blocks, offsets, offsets[1:])]


def _group_rows(pattern: np.ndarray, caps: np.ndarray):
    """Merge rows with identical patterns; they are interchangeable.

    Sources (or sinks) whose cost rows coincide can be pooled into one
    super-node with the summed capacity without changing the optimum.
    Rows are compared as raw bytes, which is value equality for booleans
    and for finite nonnegative hop distances. Returns representative row
    indices and pooled capacities.
    """
    rows = np.ascontiguousarray(pattern)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    pooled = np.bincount(inverse, weights=caps, minlength=first.size)
    return first, pooled


def _residual(pos_a: np.ndarray, mass_a: np.ndarray, pos_b: np.ndarray,
              mass_b: np.ndarray, dist: np.ndarray):
    """Split a W1 problem into fixed shared mass and a residual problem.

    ``dist`` is the distance submatrix between the supports at positions
    ``pos_a`` and ``pos_b``. Mass that sits on the same node in both
    supports never moves under a metric cost, so fixing it in place is
    optimal. Returns the fixed shipments ``(ia, jb, fixed)`` and the
    residual sources, sinks and their remaining masses.
    """
    if not np.all(np.isfinite(dist)):
        raise InfiniteDistanceError("supports span disconnected components")
    _, ia, jb = np.intersect1d(pos_a, pos_b, assume_unique=True, return_indices=True)
    fixed = np.minimum(mass_a[ia], mass_b[jb])
    ra = mass_a.copy()
    rb = mass_b.copy()
    ra[ia] -= fixed
    rb[jb] -= fixed
    src = np.nonzero(ra > 0.0)[0]
    snk = np.nonzero(rb > 0.0)[0]
    return (ia, jb, fixed), src, snk, ra[src], rb[snk]


def _cheap_mass(cheap: np.ndarray, rcaps: np.ndarray, ccaps: np.ndarray):
    """Most mass that can ship on the ``cheap`` cells of a pooled problem.

    Gale's supply-demand theorem gives it as ``total - max(0, max_S
    [cap(S) - cap(N(S))])`` over source sets S. For a fixed neighbourhood
    the best S takes every row whose pattern lies inside it, so only the
    distinct unions of row patterns need scoring; the smaller side is
    taken as the rows. Returns ``None`` past ``_UNION_CAP`` unions.
    """
    if cheap.shape[0] > cheap.shape[1]:
        cheap, rcaps, ccaps = cheap.T, ccaps, rcaps
    # Each union contains its own patterns, so OR-ing every union with
    # every pattern keeps the old unions and adds the next layer.
    unions = cheap
    while True:
        grown = (unions[:, None] | cheap[None]).reshape(-1, cheap.shape[1])
        first, _ = _group_rows(grown, np.zeros(len(grown)))
        if first.size > _UNION_CAP:
            return None
        if first.size == len(unions):
            break
        unions = grown[first]
    contained = ~(cheap @ ~unions.T)
    excess = rcaps @ contained - unions @ ccaps
    return float(rcaps.sum()) - max(0.0, float(excess.max()))


def _w1_cost(pos_a: np.ndarray, mass_a: np.ndarray, pos_b: np.ndarray,
             mass_b: np.ndarray, matrix: np.ndarray, blocks: list):
    """Exact W1 value, routed by the residual's distinct distances.

    Zero residual costs nothing and one distance has a closed form. With
    two distances ``vmin < vmax`` the cost is ``vmin * F + vmax * (moved
    - F)``, where ``F`` is the most mass that fits on ``vmin`` cells
    (`_cheap_mass`, Gale's theorem over pattern unions). With three or
    more, or two with more unions than ``_UNION_CAP``, the pooled problem
    is appended to ``blocks`` for `_solve_lps` and the result is
    ``None``. Pooling is exact because atoms with identical cost rows are
    interchangeable in any coupling; on dense market graphs it shrinks a
    ~90 x 90 residual to a handful of super-nodes.
    """
    dist = matrix[np.ix_(pos_a, pos_b)]
    _, src, snk, row_caps, col_caps = _residual(pos_a, mass_a, pos_b, mass_b, dist)
    if src.size == 0 or snk.size == 0:
        return 0.0
    sub = dist[np.ix_(src, snk)]
    moved = min(float(row_caps.sum()), float(col_caps.sum()))
    vmin = float(sub.min())
    vmax = float(sub.max())
    if vmin == vmax:
        return vmin * moved

    rows, rcaps = _group_rows(sub, row_caps)
    cols, ccaps = _group_rows(sub.T, col_caps)
    pooled = sub[np.ix_(rows, cols)]
    if not np.any((sub > vmin) & (sub < vmax)):
        cheap_mass = _cheap_mass(pooled == vmin, rcaps, ccaps)
        if cheap_mass is not None:
            return vmin * cheap_mass + vmax * (moved - cheap_mass)
    blocks.append((rcaps, ccaps, pooled))
    return None


def wasserstein1(mu: NodeMeasure, nu: NodeMeasure, hop: HopDistanceMatrix) -> TransportPlan:
    """Exact W1 distance between ``mu`` and ``nu`` under hop distances.

    Returns the optimal coupling: shared mass fixed in place plus one
    unpooled LP on the residual. Its marginals reproduce the input
    masses within ``MARGINAL_TOL``. Raises ``InfiniteDistanceError``
    when the supports straddle disconnected components.
    """
    pos_a = hop.positions(mu.support)
    pos_b = hop.positions(nu.support)
    dist = hop.matrix[np.ix_(pos_a, pos_b)]
    (ia, jb, fixed), src, snk, row_caps, col_caps = _residual(
        pos_a, mu.masses, pos_b, nu.masses, dist)
    plan = np.zeros(dist.shape)
    plan[ia, jb] = fixed
    if src.size and snk.size:
        (ship,) = _solve_lps([(row_caps, col_caps, dist[np.ix_(src, snk)])])
        plan[np.ix_(src, snk)] = ship
    row_err = float(np.max(np.abs(plan.sum(axis=1) - mu.masses)))
    col_err = float(np.max(np.abs(plan.sum(axis=0) - nu.masses)))
    if max(row_err, col_err) > MARGINAL_TOL:
        raise SolverError(f"transport plan violates marginals (err={max(row_err, col_err)})")
    return TransportPlan(plan=plan, cost=float((plan * dist).sum()))


def wasserstein1_cost(mu: NodeMeasure, nu: NodeMeasure, hop: HopDistanceMatrix) -> float:
    """W1 value only, skipping plan materialisation (hot-loop variant)."""
    blocks = []
    cost = _w1_cost(hop.positions(mu.support), mu.masses,
                    hop.positions(nu.support), nu.masses, hop.matrix, blocks)
    if cost is None:
        (ship,) = _solve_lps(blocks)
        cost = float(np.dot(blocks[0][2].ravel(), ship.ravel()))
    return cost


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------


def wasserstein1_oracle(mu: NodeMeasure, nu: NodeMeasure, hop: HopDistanceMatrix,
                        max_denominator: int = 12, max_support: int = 8) -> float:
    """Brute-force W1 for small rational instances.

    Masses must be integer multiples of ``1/q`` for a common ``q`` up to
    ``max_denominator``, and the two supports together may hold at most
    ``max_support`` atoms (both limits adjustable upward by the caller).
    Each of the ``q`` unit masses of ``mu`` is assigned to a sink by
    exhaustive search with memoisation on the remaining sink capacities.
    Shares no code with the solver on purpose.
    """
    if len(mu.support) + len(nu.support) > max_support:
        raise OracleBudgetError(
            f"combined support {len(mu.support) + len(nu.support)} exceeds budget {max_support}")

    found = None
    for q in range(1, max_denominator + 1):
        src = mu.masses * q
        snk = nu.masses * q
        src_units = np.rint(src)
        snk_units = np.rint(snk)
        if (np.max(np.abs(src - src_units)) < 1e-6 and np.max(np.abs(snk - snk_units)) < 1e-6
                and np.all(src_units >= 1) and np.all(snk_units >= 1)
                and int(src_units.sum()) == q and int(snk_units.sum()) == q):
            found = (q, [int(u) for u in src_units], [int(u) for u in snk_units])
            break
    if found is None:
        raise OracleBudgetError(
            f"masses are not multiples of 1/q for any q <= {max_denominator}")
    q, src_units, snk_units = found

    idx = hop.index
    dist = np.empty((len(mu.support), len(nu.support)), dtype=np.int64)
    for i, u in enumerate(mu.support):
        for j, v in enumerate(nu.support):
            d = hop.matrix[idx[u], idx[v]]
            if not np.isfinite(d):
                raise InfiniteDistanceError("supports span disconnected components")
            dist[i, j] = int(round(float(d)))

    # Expand source units into a fixed processing order; the position in
    # that order is implied by how many sink units remain, so memoising
    # on the remaining-capacity tuple alone is sound.
    unit_atoms = []
    for i, u in enumerate(src_units):
        unit_atoms.extend([i] * u)

    memo = {}

    def best(pos: int, remaining: tuple) -> int:
        if pos == q:
            return 0
        hit = memo.get(remaining)
        if hit is not None:
            return hit
        i = unit_atoms[pos]
        out = None
        for j, r in enumerate(remaining):
            if r > 0:
                nxt = remaining[:j] + (r - 1,) + remaining[j + 1:]
                cand = int(dist[i, j]) + best(pos + 1, nxt)
                if out is None or cand < out:
                    out = cand
        memo[remaining] = out
        return out

    total = best(0, tuple(snk_units))
    return total / q


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------


def edge_curvature(graph: MarketGraph, hop: HopDistanceMatrix, a, b,
                   weighting: str = "edge_weight") -> float:
    """Ollivier-Ricci curvature kappa(a, b) = 1 - W1(mu_a, mu_b) / d(a, b)."""
    if a == b:
        raise ConfigError("curvature needs two distinct nodes")
    d = hop.dist(a, b)
    if not np.isfinite(d):
        raise InfiniteDistanceError(f"nodes {a!r}, {b!r} are disconnected")
    mu_a = node_measure(graph, a, weighting)
    mu_b = node_measure(graph, b, weighting)
    return 1.0 - wasserstein1_cost(mu_a, mu_b, hop) / d


def _measures_by_position(graph: MarketGraph, hop: HopDistanceMatrix, weighting: str) -> dict:
    out = {}
    for v in graph.nodes:
        mu = node_measure(graph, v, weighting)
        out[v] = (hop.positions(mu.support), mu.masses)
    return out


def average_curvature(graph: MarketGraph, mode: str = "edges",
                      weighting: str = "edge_weight",
                      hop: HopDistanceMatrix | None = None) -> CurvatureReport:
    """Mean curvature over edges or over all node pairs.

    ``edges`` averages kappa over the edge set (requires at least one
    edge); ``pairs`` averages over all unordered node pairs and demands
    a connected graph. Pass a precomputed ``hop`` matrix to amortise BFS
    across calls on the same graph.
    """
    if mode not in AVERAGING_MODES:
        raise ConfigError(f"unknown averaging mode {mode!r}")
    if weighting not in WEIGHTINGS:
        raise ConfigError(f"unknown weighting {weighting!r}")
    if hop is None:
        hop = hop_distances(graph)
    elif hop.nodes != graph.nodes:
        raise GraphError("hop matrix does not match the graph's node set")

    if mode == "edges":
        if not graph.edges:
            raise DataError("edges-mode average needs at least one edge")
        pairs = graph.edges
    else:
        if not hop.connected:
            raise DisconnectedGraphError("pairs-mode average needs a connected graph")
        nodes = graph.nodes
        pairs = tuple((nodes[i], nodes[j])
                      for i in range(len(nodes)) for j in range(i + 1, len(nodes)))

    measures = _measures_by_position(graph, hop, weighting)
    idx = hop.index
    blocks = []
    records = []
    for a, b in pairs:
        pos_a, mass_a = measures[a]
        pos_b, mass_b = measures[b]
        cost = _w1_cost(pos_a, mass_a, pos_b, mass_b, hop.matrix, blocks)
        records.append((a, b, float(hop.matrix[idx[a], idx[b]]), cost))
    lp_costs = iter([float(np.dot(dist.ravel(), ship.ravel()))
                     for (_, _, dist), ship in zip(blocks, _solve_lps(blocks))])

    per_pair = {}
    values = np.empty(len(records))
    for t, (a, b, d, cost) in enumerate(records):
        if cost is None:
            cost = next(lp_costs)
        kappa = 1.0 - cost / d
        per_pair[(a, b)] = kappa
        values[t] = kappa
    return CurvatureReport(per_pair=per_pair, average=float(values.mean()), mode=mode)
