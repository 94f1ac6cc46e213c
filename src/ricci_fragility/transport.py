"""Neighbor measures, exact Wasserstein-1 on the hop metric, and
Ollivier-Ricci curvature.

The W1 solver is exact, not approximate. One front end (`_residual`)
fixes mass shared between identical atoms in place, since it never moves
under a metric cost. No residual costs nothing and one distinct distance
has a closed form; two or more are pooled and scored by the integral
dual of the max-weight transport (`_integer_dual`). The rest (fractional
distance gaps, too many level bits or dual candidates) become LP blocks,
all of a window's solved in one HiGHS call (`_solve_lps`). The optimal plan
(`wasserstein1`) is the fixed shared mass plus one unpooled LP on the
residual. Every route returns the exact optimum up to float rounding of
sums, which keeps closed-form comparisons tight at 1e-12.

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

#: Residuals with more integer-dual candidates than this go to the LP.
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

    Each block is ``(row_caps, col_caps, dist)``; stacking them into one
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
    """Pool sources (or sinks) whose cost rows coincide.

    Such atoms are interchangeable, so one super-node with the summed
    capacity has the same optimum. Rows are compared as raw bytes, which
    is value equality for finite nonnegative hop distances. Returns
    representative row indices and pooled capacities.
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


def _integer_dual(w: np.ndarray, rcaps: np.ndarray, ccaps: np.ndarray):
    """Largest ``sum(w * x)`` over pooled transports ``x``, or ``None``.

    It equals ``min r.p + c.q`` over ``p, q >= 0`` with ``p_i + q_j >=
    w_ij``. For integer ``w / gcd`` an optimum is integral (total
    unimodularity), with ``p_i = max_j (w_ij - q_j)+`` and ``q`` a pointwise
    max of row generators ``(w_i - t)+``. With the smaller side as columns
    ``q`` is coded in level bits (bit ``(t-1)k + j`` iff ``q_j >= t``), so
    the candidates are the OR-closure of the generators. ``None`` means
    non-integer ``w``, over 63 bits or over ``_UNION_CAP`` candidates.
    """
    if w.shape[0] < w.shape[1]:
        w, rcaps, ccaps = w.T, ccaps, rcaps
    if not np.array_equal(w, np.rint(w)):
        return None
    step = np.gcd.reduce(w.astype(np.int64), axis=None)
    w = w.astype(np.int64) // step
    levels, k = int(w.max()), w.shape[1]
    if levels * k > 63:
        return None
    bits = np.left_shift(1, np.arange(levels * k, dtype=np.int64)).reshape(levels, k)
    # Generator (w_i - t)+ reaches level s at column j iff w_ij >= s + t.
    reach = np.add.outer(np.arange(levels), np.arange(1, levels + 1))
    gens = ((w[:, None, None, :] >= reach[:, :, None]) * bits).sum(axis=(2, 3))
    # Every union contains a generator, so OR-ing every union with every
    # generator keeps the old unions and adds the next layer.
    unions = gens = np.unique(np.append(gens, 0))
    while unions.size <= _UNION_CAP:
        grown = np.unique(unions[:, None] | gens)
        if grown.size == unions.size:
            q = (unions[:, None] >> np.arange(levels * k) & 1).reshape(-1, levels, k).sum(axis=1)
            p = np.maximum(w - q[:, None, :], 0).max(axis=2)
            return float(step) * float((p @ rcaps + q @ ccaps).min())
        unions = grown
    return None


def _w1_cost(pos_a: np.ndarray, mass_a: np.ndarray, pos_b: np.ndarray,
             mass_b: np.ndarray, matrix: np.ndarray, blocks: list):
    """Exact W1 value, routed by the residual's distinct distances.

    Zero residual costs nothing and one distance has a closed form. More
    are pooled, and W1 = ``vmax * moved - _integer_dual(vmax - dist)``;
    where that is ``None`` the pooled problem is appended to ``blocks``
    for `_solve_lps` and the result is ``None``. Pooling is exact because
    atoms with identical cost rows are interchangeable in any coupling.
    """
    dist = matrix[np.ix_(pos_a, pos_b)]
    _, src, snk, row_caps, col_caps = _residual(pos_a, mass_a, pos_b, mass_b, dist)
    if src.size == 0 or snk.size == 0:
        return 0.0
    sub = dist[np.ix_(src, snk)]
    moved = min(float(row_caps.sum()), float(col_caps.sum()))
    vmax = float(sub.max())
    if float(sub.min()) == vmax:
        return vmax * moved

    rows, rcaps = _group_rows(sub, row_caps)
    cols, ccaps = _group_rows(sub.T, col_caps)
    pooled = sub[np.ix_(rows, cols)]
    carried = _integer_dual(vmax - pooled, rcaps, ccaps)
    if carried is not None:
        return vmax * moved - carried
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
