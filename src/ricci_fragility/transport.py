"""Neighbor measures, exact Wasserstein-1 on the hop metric, and
Ollivier-Ricci curvature.

The W1 solver is exact, not approximate. Its one entry point
(`_w1_rows`) takes measure rows over a stack of distance matrices and
two rows per pair, solved on the graph of its first row: a stack of
windows' pairs or one pair on a stack of one, or the pairs of a stack of
`bounds` instances on their zero-padded hop matrices. A stack whose
off-diagonal entries are all one finite distance v, such as the K_m
subgraphs of the sub-sampled indicator, needs no more: every unit of a
pair's moved mass travels v, so its W1 is v times that mass (total
variation, on K_m). Any other stack has its pooling keys built once,
and its pairs go in blocks, sized by their measure-row cells, to
`_w1_block`, the front end, which fixes shared mass in place, since it
never moves under a metric cost, sums each pair's moved mass left to
right, pools interchangeable residual atoms (one stable sort on
their side and a hash of their masked code planes, then a check of every
word against the sorted neighbour) and reads their distances for the
whole block. No residual costs nothing and one distinct distance has a
closed form. Pairs with more come back as lists of pooled atoms, larger
side as rows, and `_w1_rows` scores all of the call's such pairs in
chunks, sorted by level bits, each padded to its largest pair and cut by
its padded cells, by the integral dual of the max-weight transport
(`_integer_duals`: level-bit codes, a row-wise OR-closure and bit-test
scoring whose sums are left folds, each one numpy reduction over the
leading axis of a C-ordered product, as every scored row has two or
more candidates). Each pair where it declines is solved alone as one
pooled HiGHS LP with dense constraints (`_solve_lp`, the package's only
SciPy call, imported there). No pair's value depends on its block,
chunk, padded stack or call. Every route is exact up to the float
rounding of sums, which keeps closed-form comparisons tight at 1e-12.

Curvature runs on the dense arrays of a stack of graphs (`_curvatures`),
with every node's neighbour measure as one row of a matrix
(`_measure_rows`), in one `_w1_rows` call; one graph is a stack of one.
An edge (a, b) reads only distances between N(a) and N(b), each at most
d(u, a) + d(a, b) + d(b, v) = 3, so edges mode reads hop counts only up
to 3, and where the package counts hops for it, it clips them at 3
(`_clipped_hops`).

A deliberately naive exhaustive oracle (`wasserstein1_oracle`) solves
small rational instances by integer dynamic programming and shares no
code with the solver, so the two can check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DisconnectedGraphError,
    GraphError,
    InfiniteDistanceError,
    OracleBudgetError,
    SolverError,
)
from .graphs import HopDistanceMatrix, MarketGraph, _clipped_hops, _dense, _hops

#: Probability masses must sum to one within this tolerance.
MASS_TOL = 1e-12

WEIGHTINGS = ("edge_weight", "uniform")

AVERAGING_MODES = ("edges", "pairs")

#: Residuals with more integer-dual candidates than this go to the LP.
_UNION_CAP = 256

#: Cells (4 or 8 bytes each, as the chunk's codes) per `_integer_duals`
#: closure or scoring array: larger sets of rows are split in halves.
_DUAL_CELLS = 1 << 16


def _mixed(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser of each entry of the uint64 array ``x``."""
    x = (x ^ x >> 30) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ x >> 27) * np.uint64(0x94D049BB133111EB)
    return x ^ x >> 31


#: Odd multipliers of the pooling hash in `_w1_block`: entry ``[l, j]``
#: weights word ``j`` (modulo 64) of an atom's masked code plane ``l``, so
#: the zero planes and words of a padded stack add nothing.
_POOL_HASH = _mixed(np.arange(1, 4097, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
                    ).reshape(64, 64) | np.uint64(1)

#: Work caps of one `_w1_rows` batch: pairs, measure-row cells (pairs times
#: nodes) per `_w1_block` call, and padded gap cells (pairs times rows times
#: columns) per `_integer_duals` chunk. A pair over a cell cap goes alone.
_BATCH_PAIRS, _BLOCK_CELLS, _CHUNK_CELLS = 256, 6400, 21504


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
    """Measure spread over the neighbours of ``node``: its `_measure_rows`
    row, with the zero-mass atoms dropped from the support.

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
    pos = [graph.index[v] for v in nbrs]
    adj, w = np.zeros(graph.n, dtype=bool), np.zeros(graph.n)
    adj[pos] = True
    w[pos] = [graph.weights[graph.edge_key(node, v)] for v in nbrs]
    masses = _measure_rows(adj, w, weighting)[pos]
    keep = masses > 0.0
    return NodeMeasure(support=tuple(v for v, k in zip(nbrs, keep) if k), masses=masses[keep])


def _measure_rows(adj: np.ndarray, w: np.ndarray, weighting: str) -> np.ndarray:
    """Neighbour measures along the last axis of the boolean adjacency
    ``adj`` and the weights ``w`` (0 off the edges); the leading axes
    broadcast. ``uniform`` gives ``adj / degree``, ``edge_weight`` gives
    ``w / row sum``, and an all-zero weight row falls back to uniform.
    Every row needs a neighbour."""
    uniform = adj / adj.sum(axis=-1, keepdims=True)
    if weighting == "uniform":
        return uniform
    total = w.sum(axis=-1, keepdims=True)
    return np.divide(w, total, out=uniform, where=total > 0.0)


# ---------------------------------------------------------------------------
# Exact W1 engine
# ---------------------------------------------------------------------------


def _solve_lp(row_caps: np.ndarray, col_caps: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Optimal shipment matrix of one transportation LP, by HiGHS.

    SciPy is imported here, as the LP is the package's only use of it and
    is rarely reached. The equality constraints are a dense matrix: row i
    sums source i's shipments, row m + j sums sink j's. Costs are divided
    by the largest, which keeps the optimal plan and any metric in range.
    """
    from scipy.optimize import linprog

    m, k = dist.shape
    a_eq = np.concatenate((np.repeat(np.eye(m), k, axis=1), np.tile(np.eye(k), m)))
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
    """Each row of nonnegative integer ``a``, which must hold a 0, as a set.

    Rows come back sorted, with repeats and padding as leading 0s (0 is
    always a member), in a copy trimmed to the widest set; also returns
    each row's set size. Sorts ``a`` in place.
    """
    a.sort(axis=1)
    a[:, 1:] *= a[:, 1:] != a[:, :-1]
    a.sort(axis=1)
    size = (a > 0).sum(axis=1) + 1
    return a[:, a.shape[1] - size.max():].copy(), size


def _integer_duals(gaps, rcaps, ccaps, cols) -> np.ndarray:
    """Largest ``sum(w * x)`` over pooled transports ``x`` for each pair
    ``e``, of gains ``w = gaps[e]`` and caps ``rcaps[e]``, ``ccaps[e]``, or
    NaN where that pair declines.

    It equals ``min r.p + c.q`` over ``p, q >= 0`` with ``p_i + q_j >=
    w_ij``. For integer ``w / gcd`` an optimum is integral (total
    unimodularity), with ``p_i = max_j (w_ij - q_j)+`` and ``q`` a pointwise
    max of row generators ``(w_i - t)+``. With ``k = cols[e]``, ``q`` is
    coded in level bits (bit ``sk + j`` iff ``q_j > s``), so the candidates
    are the OR-closure of the generators, and ``p_i`` counts the generators
    of row ``i`` with a bit outside ``q``. The codes are uint32 when every
    live pair of the chunk fits 32 bits, else int64. A pair declines on
    non-integer ``w``, ``w`` past int64, over 63 bits or over
    ``_UNION_CAP`` candidates.
    Inputs are padded, ``(E, M, K)``, ``(E, M)`` and ``(E, K)``: a pair's
    ``w`` (nonnegative, with a positive entry) and positive caps fill the
    top left, and zero gaps and caps the rest, so its bits and declines are
    its own. `_w1_block` orients the pairs, its larger side as rows, and
    `_w1_rows` pads them.
    """
    out = np.full(len(gaps), np.nan)
    w = gaps.reshape(len(gaps), -1)
    fits = ((np.rint(w) == w) & (w < 2.0 ** 63)).all(axis=1)
    w = np.where(fits[:, None], w, 0.0).astype(np.int64)
    # A unit gap fixes a pair's gcd at 1, as on every measured crisis pair.
    odd = ~(w == 1).any(axis=1)
    step, any_odd = np.ones(len(w), np.int64), odd.any()
    if any_odd:
        step[odd] = np.maximum(np.gcd.reduce(w[odd], axis=1), 1)
    live = np.flatnonzero(fits & (w.max(axis=1) // step <= 63 // cols))
    if not live.size:
        return out
    m, k = (rcaps[live] > 0).sum(axis=1).max(), cols[live].max()
    rcaps, ccaps, cols, step = rcaps[live, :m], ccaps[live, :k], cols[live], step[live]
    w = w.reshape(gaps.shape)[live, :m, :k]
    if any_odd:
        w = w // step[:, None, None]
    levels = w.max(axis=(1, 2))
    level = np.arange(levels.max())

    # Bit s*k + j of row i's code is set iff w_ij > s; shifting the code
    # down by t*k gives the generator (w_i - t)+. Shifts are clamped: no
    # bit at or past the top is set, and a shift by the top clears all.
    top = 32 if (levels * cols).max() <= 32 else 63
    dtype = np.dtype(np.uint32 if top == 32 else np.int64)
    code = ((w[:, :, None, :] > level[:, None]).reshape(live.size, m, -1)
            @ (dtype.type(1) << np.minimum(level[:, None] * cols[:, None, None] + np.arange(k),
                                           top - 1).astype(dtype)).reshape(live.size, -1, 1))
    gens = code >> np.minimum(level * cols[:, None], top).astype(dtype)[:, None]
    gen_set, gen_size = _row_sets(np.concatenate((gens.reshape(live.size, -1),
                                                  np.zeros((live.size, 1), dtype)), axis=1))

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
    bits = np.unpackbits(cand.astype(cand.dtype.newbyteorder("<"), copy=False).view(np.uint8)
                         .reshape(len(cand), -1, cand.itemsize).transpose(2, 0, 1),
                         axis=0, count=(levels * cols).max(), bitorder="little")
    p = np.multiply(p, rcaps.T[:, :, None], out=np.empty(p.shape))
    q = np.multiply(bits, ccaps[np.arange(cols.size), np.arange(bits.shape[0])[:, None] % cols]
                    [:, :, None], out=np.empty(bits.shape))
    # numpy sums pairwise only along the fast axis in memory, so reducing the
    # leading axis of these C-ordered products adds a pair's terms left to
    # right, then the padding's zeros, in any batch. Each row has 2+ candidates
    # (0 and a generator); one trailing cell would go 1-D and sum pairwise.
    return (np.add.reduce(p, axis=0) + np.add.reduce(q, axis=0)).min(axis=1)


def _code_planes(stack: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The pooling keys of a ``(G, n, n)`` stack of distance matrices, given
    its sorted distinct entries ``values``: each entry's index among them as
    `_packed` bit planes, per graph, per row then per column, shape ``(G,
    2n, levels, words)``. A hop matrix of a connected graph holds 0..D
    (0..3 when clipped), so each entry's code is its own value in any
    stack, and such a stack is copied in as its codes; any other stack is
    searched. Up to 256 distinct entries, the codes are shifted as uint8
    and packed plane by plane, which keeps the transients small."""
    size, n = stack.shape[:2]
    codes = np.empty((size, 2 * n, n), np.uint8 if values.size <= 256 else np.int64)
    whole = np.array_equal(values, np.arange(values.size))
    codes[:, :n] = stack if whole else np.searchsorted(values, stack)
    codes[:, n:] = codes[:, :n].transpose(0, 2, 1)  # rows, then columns
    levels = max(1, (values.size - 1).bit_length())
    # Each level's bits fill the front of one buffer zero-padded to whole
    # words, as in `_packed`, so each row packs straight into its words.
    bits = np.zeros((size, 2 * n, -(-n // 64) * 64), np.uint8)
    planes = np.empty((size, 2 * n, levels, bits.shape[-1] // 64), np.uint64)
    for level in range(levels):
        np.bitwise_and(codes >> level, 1, out=bits[..., :n], casting="unsafe")
        planes[:, :, level] = np.packbits(bits, axis=-1).view(np.uint64)
    return planes


def _packed(bits: np.ndarray) -> np.ndarray:
    """The last axis of ``bits`` packed into uint64 words."""
    padded = np.zeros(bits.shape[:-1] + (-(-bits.shape[-1] // 64) * 64,), dtype=np.uint8)
    padded[..., :bits.shape[-1]] = bits
    return np.packbits(padded, axis=-1).view(np.uint64)


#: Memory estimate per `_w1_rows` call of the two stacking drivers. An
#: item costs its W1 pairs plus ``n * n // 25`` for its ``(n, n)``
#: arrays; a stack takes items in order until the next would pass the
#: budget, and an item over it is a stack of one. A rolling window counts
#: its bounded pairs (`_pair_bound`). On `regime_switch()` (n = 50, edges)
#: 13-17 calm windows share a stack and crisis windows pair up: calm
#: windows took 0.8-1.2 ms each against 2.6-3.1 ms alone, crisis windows
#: 22.9-25.0 against 24.6-26.0 ms (best of 7, two runs). Under
#: `tracemalloc` the largest calm stack peaks at 2.4 MB and a crisis pair
#: at 2.7 MB (xi 0.9). Over the budget, two pairs-mode windows (1,325
#: each) at k = 360, 361 would peak at 3.5 MB and crisis windows in threes
#: at 2.9-3.5 MB. A `bounds` instance counts its sampled pairs under d and
#: d* and its two shifts: 176-208 instances of 4-12 nodes (about 2,050
#: pairs) share a stack, a 100-trial suite is one stack, and a 1,000-trial
#: suite peaks 2.2 MB above what its reports hold.
_STACK_BUDGET = 2600


def _w1_rows(rows: np.ndarray, dist: np.ndarray, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """Exact W1 between ``rows[ia[e]]`` and ``rows[ib[e]]`` on ``dist[ia[e] // n]``
    for each pair ``e``; ``rows`` holds ``n`` measure rows per graph of the
    ``(G, n, n)`` stack ``dist``, in stack order, zero past each graph's
    nodes; raises `InfiniteDistanceError` where a pair's supports span two
    components of its graph. Sorts the stack's distinct entries once. Where
    every off-diagonal entry is one finite value v (a stack of complete
    graphs), each pair's W1 is ``v * moved`` (`_peel`): its residual sources
    and sinks are distinct nodes, so every unit moves at distance v. Only a
    stack of at most two distinct entries is tested for this. Any other
    stack builds its `_code_planes` from those entries and runs `_w1_block`
    on blocks of at most ``_BATCH_PAIRS`` pairs and ``_BLOCK_CELLS``
    measure-row cells, the blocks the closed form is cut by too, so its
    memory stays flat. The pairs `_w1_block` hands back, with two
    or more residual distances, are scored in one pass over the call:
    stably sorted by (largest gap times columns, which is their level bits
    before the gcd, rows), cut into chunks of at most ``_BATCH_PAIRS``
    pairs and ``_CHUNK_CELLS`` cells once padded to their largest rows and
    columns, and charged ``vmax * moved - _integer_duals(vmax - dist)``.
    Each pair the dual declines is solved alone as one LP.
    """
    if not len(ia):
        return np.zeros(0)
    g = ia // dist.shape[1]
    for k in np.flatnonzero(~np.isfinite(dist).all(axis=(1, 2))).tolist():
        on = g == k
        if ((rows[ia[on]] > 0) @ ~np.isfinite(dist[k]) & (rows[ib[on]] > 0)).any():
            raise InfiniteDistanceError("supports span disconnected components")
    # The stack is NaN-free (`HopDistanceMatrix`), so a sort finds its entries.
    values = np.sort(dist, axis=None)
    values = np.concatenate((values[:1], values[1:][values[1:] != values[:-1]]))
    step = max(1, min(_BATCH_PAIRS, _BLOCK_CELLS // rows.shape[1]))
    blocks = [slice(s, s + step) for s in range(0, len(ia), step)]
    if values.size <= 2:
        off = dist[:, ~np.eye(dist.shape[1], dtype=bool)]
        if off.size and off.min() == off.max() < np.inf:
            return np.concatenate([off.flat[0] * _peel(rows[ia[b]], rows[ib[b]])[1]
                                   for b in blocks])
    planes = _code_planes(dist, values)
    parts, base = [], 0
    for block in blocks:
        cost, pair, offset, caps, rfirst, cfirst, *rest = _w1_block(
            rows[ia[block]], rows[ib[block]], dist, planes, g[block])
        parts.append((cost, pair + block.start, offset, caps, rfirst + base, cfirst + base,
                      *rest))
        base += offset.size
    cost, pair, offset, caps, rfirst, cfirst, v, m, k, flip, key = (
        parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts)))
    del parts  # the blocks' pieces, copied above
    order = np.lexsort((m, key))
    while order.size:
        c = order[:_BATCH_PAIRS]
        cells = np.arange(1, c.size + 1) * np.maximum.accumulate(m[c]) * np.maximum.accumulate(k[c])
        c, order = np.split(order, [max(1, np.searchsorted(cells, _CHUNK_CELLS, "right"))])
        (ri, rmask), (ci, cmask) = _runs(rfirst[c], m[c]), _runs(cfirst[c], k[c])
        # Padded cells read the pair's first atoms: finite gaps, zeroed by the mask.
        gaps = v[c, None, None] - dist.ravel()[offset[ri][:, :, None] + offset[ci][:, None, :]]
        gaps *= rmask[:, :, None] & cmask[:, None, :]
        rcaps, ccaps = caps[ri] * rmask, caps[ci] * cmask
        dual = _integer_duals(gaps, rcaps, ccaps, k[c])
        cost[pair[c]] -= dual
        for i in np.flatnonzero(np.isnan(dual)).tolist():
            e = c[i]
            r, q = rcaps[i, :m[e]], ccaps[i, :k[e]]
            d = dist.ravel()[offset[ri[i, :m[e]], None] + offset[ci[i, :k[e]]]]
            r, q, d = (q, r, d.T) if flip[e] else (r, q, d)
            cost[pair[e]] = np.dot(d.ravel(), _solve_lp(r, q, d).ravel())
    return cost


def _w1_block(pa: np.ndarray, pb: np.ndarray, dist: np.ndarray, planes: np.ndarray,
              g: np.ndarray) -> tuple:
    """The front end of `_w1_rows` for the rows ``pa[e]`` and ``pb[e]`` of
    each pair on ``dist[g[e]]``.

    ``planes`` are the stack's `_code_planes`. Shared mass is peeled off
    and each pair's moved mass summed for the whole block by `_peel`.
    Residual sources (sinks) of a pair with equal distances to all its
    residual sinks (sources) are pooled into one atom. One stable argsort
    on a uint64 key, the side of a pair in the top ``(2 * size -
    1).bit_length()`` bits over a `_POOL_HASH` hash of ``planes[g[e]]``
    masked to the other side, keeps each side's atoms together, in node
    order among equal keys; a pooled atom starts where the side or any
    word differs from its sorted neighbour's, so a collision can only
    leave equal atoms unpooled, which is still exact. One indexed read
    gathers the pooled distances, padded, each pair's larger side as rows.
    Values do not depend on the block or stack while the codes do not
    (connected hop matrices): zero planes and words add nothing to a hash.

    Returns each pair's ``vmax * moved``, its W1 when its residual sees at
    most one distance; the block's pooled atoms as offsets into the flat
    stack (a source's plus a sink's indexes their distance) and caps; and
    for the pairs that see more, in order: their indices, the first atom of
    their rows and of their columns, ``vmax``, the row and column counts,
    whether the rows are the sinks, and the largest gap times the column
    count.
    """
    size, n = pa.shape
    residual, moved = _peel(pa, pb)
    atoms = residual > 0.0
    other = atoms.reshape(2, size, n)[::-1].reshape(2 * size, n)
    flat = np.flatnonzero(atoms)
    side, node = np.divmod(flat, n)
    # `take` and the column-by-column compare below are numpy's fast paths
    # for gathering and comparing many short rows: on a 3,000-atom crisis
    # block, `words[order]` takes 30 us against 3 us for `take`, and
    # `.any(axis=1)` over the words 50 us against 6 us.
    graph = np.concatenate((g, g)).take(side)
    levels, width = planes.shape[2:]
    words = (planes.reshape(-1, levels * width).take(node + n * (side >= size) + 2 * n * graph,
                                                     axis=0).reshape(-1, levels, width)
             & _packed(other).take(side, axis=0)[:, None]).reshape(side.size, levels * width)
    bits = (2 * size - 1).bit_length()
    hashed = words @ _POOL_HASH[:levels, np.arange(width) % 64].ravel()
    order = np.argsort(side.astype(np.uint64) << (64 - bits) | hashed >> bits, kind="stable")
    words, ordered = words.take(order, axis=0), side.take(order)
    differs = ordered[1:] != ordered[:-1]
    for col in words.T:
        differs |= col[1:] != col[:-1]
    new = np.concatenate(([True], differs))[:side.size]
    caps = np.bincount(np.cumsum(new) - 1, weights=residual.ravel().take(flat.take(order)))
    first = order.compress(new)
    gside, gnode = side.take(first), node.take(first)
    # offset[source] + offset[sink] indexes their distance in the flat stack.
    offset = np.where(gside < size, (gnode + n * graph.take(first)) * n, gnode)
    # Side row s's pooled atoms run from start[s], counts[s] of them. A
    # pair with residual mass on one side only (rounding) moves nothing.
    counts = np.bincount(gside, minlength=2 * size)
    start = np.cumsum(counts) - counts
    pair = np.flatnonzero(counts[:size] * counts[size:])
    # Rows are a pair's larger side.
    flip = counts[pair] < counts[size + pair]
    rs, cs = pair + size * flip, pair + size * ~flip
    m, k = counts[rs], counts[cs]
    rfirst, cfirst = start[rs], start[cs]
    (ri, _), (ci, _) = _runs(rfirst, m), _runs(cfirst, k)
    w = dist.ravel()[offset[ri][:, :, None] + offset[ci][:, None, :]]
    v = w.max(axis=(1, 2), initial=-np.inf)
    cost = np.zeros(size)
    cost[pair] = v * moved[pair]
    gap = v - w.min(axis=(1, 2), initial=np.inf)
    multi = np.flatnonzero(gap > 0.0)
    return (cost, pair[multi], offset, caps, rfirst[multi], cfirst[multi], v[multi], m[multi],
            k[multi], flip[multi], gap[multi] * k[multi])


def _peel(pa: np.ndarray, pb: np.ndarray) -> tuple:
    """The residuals of the pairs of rows ``pa[e]``, ``pb[e]`` once shared
    mass is peeled off, sources of pair e in row e and its sinks in row
    ``size + e``, and each pair's moved mass, the smaller side's sum left
    to right, which zero padding leaves alone."""
    shared = np.minimum(pa, pb)
    residual = np.concatenate((pa - shared, pb - shared))
    return residual, np.cumsum(residual, axis=1)[:, -1].reshape(2, len(pa)).min(axis=0)


def _runs(first: np.ndarray, count: np.ndarray) -> tuple:
    """Indices ``first[i] + j`` for ``j < count[i]``, padded with ``first[i]``
    to the largest count, and the mask of the unpadded ones."""
    span = np.arange(count.max(initial=0))
    on = span < count[:, None]
    return first[:, None] + span * on, on


def wasserstein1_cost(mu: NodeMeasure, nu: NodeMeasure, hop: HopDistanceMatrix) -> float:
    """Exact W1 between two measures: `_w1_rows` on one pair of rows."""
    rows = np.zeros((2, len(hop.nodes)))
    rows[0, hop.positions(mu.support)] = mu.masses
    rows[1, hop.positions(nu.support)] = nu.masses
    return float(_w1_rows(rows, hop.matrix[None], np.array([0]), np.array([1]))[0])


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
    across calls on the same graph. Without one, edges mode computes hop
    counts clipped at 3 (`_clipped_hops`): the measures of an edge (a, b)
    sit on N(a) and N(b), so no distance it reads exceeds d(u, a) +
    d(a, b) + d(b, v) = 3. Every node needs a neighbour.
    """
    if mode not in AVERAGING_MODES:
        raise ConfigError(f"unknown averaging mode {mode!r}")
    if weighting not in WEIGHTINGS:
        raise ConfigError(f"unknown weighting {weighting!r}")
    adj, w = _dense(graph)
    if hop is None:
        hop = HopDistanceMatrix(nodes=graph.nodes,
                                matrix=(_clipped_hops if mode == "edges" else _hops)(adj))
    elif hop.nodes != graph.nodes:
        raise GraphError("hop matrix does not match the graph's node set")

    if mode == "edges" and not graph.edges:
        raise DataError("edges-mode average needs at least one edge")
    if mode == "pairs" and not hop.connected:
        raise DisconnectedGraphError("pairs-mode average needs a connected graph")
    isolated = np.flatnonzero(~adj.any(axis=1))
    if isolated.size:
        raise DataError(f"node {graph.nodes[isolated[0]]!r} is isolated; its measure is undefined")

    kappa = _curvatures(adj[None], w[None], hop.matrix[None], mode, weighting)[0]
    pairs = graph.edges if mode == "edges" else tuple(combinations(graph.nodes, 2))
    return CurvatureReport(per_pair=dict(zip(pairs, kappa.tolist())),
                           average=float(np.mean(kappa)), mode=mode)


def _curvatures(adj: np.ndarray, w: np.ndarray, hop: np.ndarray, mode: str,
                weighting: str) -> list:
    """kappa = 1 - W1 / d of each edge (``pairs`` mode: node pair) of each
    graph of a stack, given as ``(G, n, n)`` boolean adjacencies ``adj``,
    weights ``w`` (0 off the edges) and hop matrices ``hop``, which edges
    mode reads only up to 3, so they may be clipped there: one `_w1_rows`
    call for the whole stack, and one array per graph, in canonical order.
    Every node needs a neighbour."""
    size, n = adj.shape[:2]
    if mode == "edges":
        g, ia, ib = np.nonzero(np.triu(adj, 1))
    else:
        iu, ju = np.triu_indices(n, 1)
        g, ia, ib = np.repeat(np.arange(size), iu.size), np.tile(iu, size), np.tile(ju, size)
    kappa = 1.0 - _w1_rows(_measure_rows(adj, w, weighting).reshape(-1, n), hop, ia + g * n,
                           ib + g * n) / hop[g, ia, ib]
    ends = np.cumsum(np.bincount(g, minlength=size)).tolist()
    return [kappa[a:b] for a, b in zip([0] + ends, ends)]
