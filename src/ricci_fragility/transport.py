"""Neighbor measures, exact Wasserstein-1 on the hop metric, and
Ollivier-Ricci curvature.

The W1 solver is exact, not approximate. One front end (`_w1_block`)
takes a block of pairs as dense measure rows (a window's pairs, or one
pair), fixes shared mass in place, since it never moves under a metric
cost, and pools interchangeable residual atoms for the whole block. No
residual costs nothing and one distinct distance has a closed form. The
block's pairs with more are scored together by the integral dual of the
max-weight transport (`_integer_duals`: padded level-bit codes, a
row-wise OR-closure and bit-test scoring), and each pair where it
declines is solved alone as one pooled HiGHS LP (`_solve_lp`). A pair's
value does not depend on the block it is solved in. The optimal plan
(`wasserstein1`) is the fixed shared mass plus one unpooled LP on the
residual. Every route returns the exact optimum up to float rounding of
sums, which keeps closed-form comparisons tight at 1e-12.

A deliberately naive exhaustive oracle (`wasserstein1_oracle`) solves
small rational instances by integer dynamic programming and shares no
code with the solver, so the two can check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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
from .graphs import HopDistanceMatrix, MarketGraph, _packed, hop_distances

#: Probability masses must sum to one within this tolerance.
MASS_TOL = 1e-12

#: Transport plans must reproduce their marginals within this tolerance.
MARGINAL_TOL = 1e-9

WEIGHTINGS = ("edge_weight", "uniform")

AVERAGING_MODES = ("edges", "pairs")

#: Residuals with more integer-dual candidates than this go to the LP.
_UNION_CAP = 256

#: Cells (8 bytes each) per `_integer_duals` closure or scoring array:
#: larger sets of rows are split in halves.
_DUAL_CELLS = 1 << 17

#: Pairs per `_w1_block` call in `average_curvature`; bounds its work arrays,
#: the padded `_integer_duals` inputs among them.
PAIR_BLOCK = 64


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


def _solve_lp(row_caps: np.ndarray, col_caps: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Optimal shipment matrix of one transportation LP, by HiGHS.

    The constraint matrix is assembled directly in CSR form: row i sums
    source i's shipments, row m + j sums sink j's. Costs are divided by
    the largest, which keeps the optimal plan and any metric in range.
    """
    m, k = dist.shape
    cells = np.arange(m * k).reshape(m, k)
    indptr = np.concatenate((np.arange(0, m * k, k), np.arange(m * k, 2 * m * k + 1, m)))
    a_eq = csr_matrix((np.ones(2 * m * k), np.concatenate((cells.ravel(), cells.T.ravel())),
                       indptr), shape=(m + k, m * k))
    # Equality constraints need matching totals; the inputs agree to
    # ~1e-12, so rescale the columns onto the row total.
    b_eq = np.concatenate((row_caps, col_caps * (float(row_caps.sum()) / float(col_caps.sum()))))
    scale = float(np.abs(dist).max()) or 1.0
    res = linprog(dist.ravel() / scale, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"presolve": False})
    if res.status != 0:
        raise SolverError(f"transport LP failed: {res.message}")
    return res.x.reshape(m, k)


def _row_sets(a: np.ndarray):
    """Each row of nonnegative int64 ``a``, which must hold a 0, as a set.

    Rows come back sorted, with repeats and padding as leading 0s (0 is
    always a member), in a copy trimmed to the widest set; also returns
    each row's set size. Sorts ``a`` in place.
    """
    a.sort(axis=1)
    a[:, 1:][a[:, 1:] == a[:, :-1]] = 0
    a.sort(axis=1)
    size = (a > 0).sum(axis=1) + 1
    return a[:, a.shape[1] - size.max():].copy(), size


def _integer_duals(pairs) -> np.ndarray:
    """Largest ``sum(w * x)`` over pooled transports ``x`` for each
    ``(w, rcaps, ccaps)`` of ``pairs``, or NaN where that pair declines.

    It equals ``min r.p + c.q`` over ``p, q >= 0`` with ``p_i + q_j >=
    w_ij``. For integer ``w / gcd`` an optimum is integral (total
    unimodularity), with ``p_i = max_j (w_ij - q_j)+`` and ``q`` a pointwise
    max of row generators ``(w_i - t)+``. With a pair's smaller side as its
    ``k`` columns, ``q`` is coded in level bits (bit ``sk + j`` iff ``q_j >
    s``), so the candidates are the OR-closure of the generators, and
    ``p_i`` counts the generators of row ``i`` with a bit outside ``q``. A
    pair declines on non-integer ``w``, ``w`` past int64, over 63 bits or
    over ``_UNION_CAP`` candidates. Each ``w`` is nonnegative with a
    positive entry. Pairs are padded to the largest with zero caps but keep
    their own ``k``, so every pair's bits and declines are its own.
    """
    out = np.full(len(pairs), np.nan)
    pairs = [(w, r, c) if w.shape[0] >= w.shape[1] else (w.T, c, r) for w, r, c in pairs]
    shape = np.array([w.shape for w, _, _ in pairs])
    m, k = shape.max(axis=0)
    w, rcaps, ccaps = (np.zeros((len(pairs), m, k)), np.zeros((len(pairs), m)),
                       np.zeros((len(pairs), k)))
    for e, (gap, r, c) in enumerate(pairs):
        w[e, :r.size, :c.size], rcaps[e, :r.size], ccaps[e, :c.size] = gap, r, c
    flat = w.reshape(len(pairs), -1)
    fits = ((np.rint(flat) == flat) & (flat < 2.0 ** 63)).all(axis=1)
    flat[~fits] = 0.0
    flat = flat.astype(np.int64)
    step = np.maximum(np.gcd.reduce(flat, axis=1), 1)
    cols = shape[:, 1]
    live = np.flatnonzero(fits & (flat.max(axis=1) // step <= 63 // cols))
    if not live.size:
        return out
    m, k = shape[live].max(axis=0)
    w = flat.reshape(w.shape)[live, :m, :k] // step[live, None, None]
    rcaps, ccaps, cols, step = rcaps[live, :m], ccaps[live, :k], cols[live], step[live]
    levels = w.max(axis=(1, 2))
    level = np.arange(levels.max())

    # Bit s*k + j of row i's code is set iff w_ij > s; shifting the code
    # down by t*k gives the generator (w_i - t)+.
    code = ((w[:, :, None, :] > level[:, None]).reshape(live.size, m, -1)
            @ (1 << np.minimum(level[:, None] * cols[:, None, None] + np.arange(k), 62))
            .reshape(live.size, -1, 1))
    gens = code >> np.minimum(level * cols[:, None], 63)[:, None]
    gen_set, gen_size = _row_sets(np.concatenate((gens.reshape(live.size, -1),
                                                  np.zeros((live.size, 1), np.int64)), axis=1))

    # OR-ing every union with every generator (0 included) keeps the old
    # unions and adds the next layer. A row declines once it passes
    # _UNION_CAP and is scored once it stops growing. Rows whose product
    # or scoring arrays (unions x generators, rows or level bits) would
    # pass _DUAL_CELLS are split in halves, which go on alone.
    rows = np.flatnonzero(gen_size <= _UNION_CAP)
    work = [(rows, gen_set[rows], gen_size[rows])] if rows.size else []
    while work:
        rows, unions, size = work.pop()
        unions = unions[:, unions.shape[1] - size.max():]
        gen = gen_set[rows, gen_set.shape[1] - gen_size[rows].max():]
        depth = max(gen.shape[1], m, (levels * cols)[rows].max())
        if rows.size > 1 and rows.size * unions.shape[1] * depth > _DUAL_CELLS:
            half = rows.size // 2
            work += [(rows[:half], unions[:half], size[:half]),
                     (rows[half:], unions[half:], size[half:])]
            continue
        grown, grown_size = _row_sets((unions[:, :, None] | gen[:, None, :]).reshape(rows.size, -1))
        fixed = grown_size == size
        if fixed.any():
            done, cand = rows[fixed], unions[fixed]
            out[live[done]] = step[done] * _dual_scores(
                cand[:, cand.shape[1] - size[fixed].max():], gens[done], rcaps[done],
                ccaps[done], cols[done], levels[done])
        keep = ~fixed & (grown_size <= _UNION_CAP)
        if keep.any():
            work.append((rows[keep], grown[keep], grown_size[keep]))
    return out


def _dual_scores(cand, gens, rcaps, ccaps, cols, levels) -> np.ndarray:
    """Smallest ``r.p + c.q`` over each row's candidate codes ``q`` (see
    `_integer_duals`), given the generators, caps, column count and level
    count of that row's pair. Its work arrays are freed on return."""
    # p_i counts row i's generators with a bit outside q, and c.q adds the
    # column cap of each bit set in q.
    free, row_gens = ~cand, gens.transpose(1, 2, 0)
    p = sum(((row_gens[:, t, :, None] & free) != 0 for t in range(levels.max())), np.uint8(0))
    bits = np.unpackbits(cand.astype("<i8", copy=False).view(np.uint8)
                         .reshape(len(cand), -1, 8).transpose(2, 0, 1),
                         axis=0, count=(levels * cols).max(), bitorder="little")
    p = p * rcaps.T[:, :, None]
    q = bits * ccaps[np.arange(cols.size), np.arange(bits.shape[0])[:, None] % cols][:, :, None]
    # Running sums over the leading axis add a pair's terms in its own
    # order, then the padding's zeros, so a pair's value does not depend
    # on its batch.
    for terms in (p, q):
        np.cumsum(terms, axis=0, out=terms)
    return (p[-1] + q[-1]).min(axis=1)


def _w1_block(pa: np.ndarray, pb: np.ndarray, hop: HopDistanceMatrix) -> np.ndarray:
    """Exact W1 between the measure rows ``pa[e]`` and ``pb[e]`` of each pair.

    Rows hold masses over ``hop``'s positions. Shared mass is peeled off
    for the whole block; residual sources (sinks) of a pair with equal
    distances to all its residual sinks (sources) are pooled into one atom,
    grouped by one lexsort over (side of a pair, ``hop.code_planes`` masked
    to its other side). A loop gathers each pair's pooled distances; pairs
    with several distinct distances are then scored together as ``vmax *
    moved - _integer_duals(vmax - dist)``, and each pair that declines is
    solved alone as one LP.
    """
    if not hop.connected and ((pa > 0) @ ~np.isfinite(hop.matrix) & (pb > 0)).any():
        raise InfiniteDistanceError("supports span disconnected components")
    size, n = pa.shape
    shared = np.minimum(pa, pb)
    # Residual sources of pair e in row e, its residual sinks in row size + e.
    residual = np.concatenate((pa - shared, pb - shared))
    moved = residual.sum(axis=1).reshape(2, size).min(axis=0)
    atoms = residual > 0.0
    other = atoms.reshape(2, size, n)[::-1].reshape(2 * size, n)
    side, node = np.nonzero(atoms)
    words = hop.code_planes[node + n * (side >= size)] & _packed(other)[side, None]
    keys = np.concatenate((side[:, None].astype(np.uint64),
                           words.reshape(side.size, hop.code_planes[0].size)), axis=1)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    new = np.concatenate(([True], (keys[1:] != keys[:-1]).any(axis=1)))[:side.size]
    caps = np.bincount(np.cumsum(new) - 1, weights=residual[atoms][order])
    gside, gnode = side[order[new]], node[order[new]]

    # Row e's pooled atoms are gnode[bounds[e]:bounds[e + 1]]. A pair with
    # residual mass on one side only (rounding) moves nothing.
    counts = np.bincount(gside, minlength=2 * size)
    bounds = [0] + np.cumsum(counts).tolist()
    cost = np.zeros(size)
    multi = []
    for e in np.flatnonzero(counts[:size] * counts[size:]).tolist():
        rows, cols = slice(bounds[e], bounds[e + 1]), slice(bounds[size + e], bounds[size + e + 1])
        w = hop.matrix[gnode[rows, None], gnode[cols]]
        v = float(w.max())
        if float(w.min()) == v:
            cost[e] = v * moved[e]
        else:
            multi.append((e, v, w, caps[rows], caps[cols]))
    if multi:
        carried = _integer_duals([(v - w, r, c) for _, v, w, r, c in multi])
        for (e, v, w, r, c), dual in zip(multi, carried.tolist()):
            cost[e] = (np.dot(w.ravel(), _solve_lp(r, c, w).ravel()) if np.isnan(dual)
                       else v * moved[e] - dual)
    return cost


def wasserstein1(mu: NodeMeasure, nu: NodeMeasure, hop: HopDistanceMatrix) -> TransportPlan:
    """Exact W1 distance between ``mu`` and ``nu`` under hop distances.

    Returns the optimal coupling: shared mass fixed in place plus one
    unpooled LP on the residual. Its marginals reproduce the input
    masses within ``MARGINAL_TOL``. Raises ``InfiniteDistanceError``
    when the supports straddle disconnected components.
    """
    pos_a, pos_b = hop.positions(mu.support), hop.positions(nu.support)
    dist = hop.matrix[np.ix_(pos_a, pos_b)]
    if not np.all(np.isfinite(dist)):
        raise InfiniteDistanceError("supports span disconnected components")
    plan = np.where(pos_a[:, None] == pos_b, np.minimum.outer(mu.masses, nu.masses), 0.0)
    ra, rb = mu.masses - plan.sum(axis=1), nu.masses - plan.sum(axis=0)
    src, snk = ra > 0.0, rb > 0.0
    if src.any() and snk.any():
        plan[np.ix_(src, snk)] = _solve_lp(ra[src], rb[snk], dist[np.ix_(src, snk)])
    row_err = float(np.max(np.abs(plan.sum(axis=1) - mu.masses)))
    col_err = float(np.max(np.abs(plan.sum(axis=0) - nu.masses)))
    if max(row_err, col_err) > MARGINAL_TOL:
        raise SolverError(f"transport plan violates marginals (err={max(row_err, col_err)})")
    return TransportPlan(plan=plan, cost=float((plan * dist).sum()))


def wasserstein1_cost(mu: NodeMeasure, nu: NodeMeasure, hop: HopDistanceMatrix) -> float:
    """W1 value only, skipping plan materialisation: `_w1_block` on a
    block of one pair."""
    rows = np.zeros((2, len(hop.nodes)))
    rows[0, hop.positions(mu.support)] = mu.masses
    rows[1, hop.positions(nu.support)] = nu.masses
    return float(_w1_block(rows[:1], rows[1:], hop)[0])


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

    pos_a, pos_b = hop.positions(mu.support), hop.positions(nu.support)
    dist = np.empty((len(mu.support), len(nu.support)), dtype=np.int64)
    for i, u in enumerate(pos_a):
        for j, v in enumerate(pos_b):
            d = hop.matrix[u, v]
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
        pairs = tuple(combinations(graph.nodes, 2))

    # Each node's measure as a row over hop positions (graph node order).
    dense = np.zeros((graph.n, graph.n))
    for i, v in enumerate(graph.nodes):
        mu = node_measure(graph, v, weighting)
        dense[i, hop.positions(mu.support)] = mu.masses
    ia, ib = (hop.positions(side) for side in zip(*pairs))
    cost = np.concatenate([
        _w1_block(dense[ia[s:s + PAIR_BLOCK]], dense[ib[s:s + PAIR_BLOCK]], hop)
        for s in range(0, len(pairs), PAIR_BLOCK)])
    kappa = 1.0 - cost / hop.matrix[ia, ib]
    return CurvatureReport(per_pair=dict(zip(pairs, kappa.tolist())),
                           average=float(np.mean(kappa)), mode=mode)
