"""Extremal-curvature sub-sampling: search for an m-node induced subgraph
whose average curvature is minimal (default) or maximal, and run the
rolling indicator on the chosen subsets: the indicator's own rolling
driver runs the search as its per-window function.

The discrete "descent" is a steepest single-swap local search: starting
from a random connected m-subset grown from a random seed vertex, every
swap of one inside node for one outside node that keeps the induced
subgraph connected is scored, and the best strict improvement is taken
until none exists. Restarts draw fresh starting subsets; all randomness
is derived from the config seed, so results are reproducible.

In the rolling pipeline the host graph of each window is the complete
correlation-distance graph, so the induced subgraph on the chosen nodes
is itself complete: the high-value-link rule (add edges with rho >= xi)
cannot add anything new, and the reported value is exactly the search
objective at the optimum. There is deliberately no tree-extraction step
here — this pipeline is the alternative to the spanning-tree skeleton.

Every candidate of a complete host induces K_m, where all hop distances
are 1. W1 is then the total variation distance, so kappa(a, b) =
sum_v min(mu_a(v), mu_b(v)), and edges and node pairs coincide. On such
a host (``edge_count == n (n - 1) / 2``) the search scores each swap
scan's m (n - m) candidates in closed form with a few array operations;
under ``uniform`` weighting every K_m scores (m - 2) / (m - 1), the
equality case of the Jost-Liu triangle bound, so no swap or restart can
win and the search returns its first start unscanned. On any other host
a swap scan's candidates go through the exact W1 engine as one stack.
Either way a scan is one scorer call, the first one scoring the start
subset too. `extremal_subgraph` reports through the engine, and
`exhaustive_extremum` always uses the public `induced_subgraph` +
`average_curvature` route, so it stays an independent oracle. The search
runs on the host's dense arrays; the rolling pipeline hands it each
window's distance matrix and prices the chosen K_m subsets itself
(`_stack_extrema`) by the engine's arithmetic for a K_m pair's W1, its
moved mass.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .errors import ConfigError, GraphError
from .graphs import MarketGraph, _dense, _hops, induced_subgraph
from .indicator import WindowConfig, _rolling_series
from .ingestion import PriceMatrix
from .transport import (AVERAGING_MODES, WEIGHTINGS, _curvatures, _measure_rows, _peel,
                        average_curvature)

OBJECTIVES = ("minimize", "maximize")

#: Improvements smaller than this are treated as ties and do not move the
#: search; keeps swap sequences deterministic under float jitter.
IMPROVE_TOL = 1e-12

#: Restart index stride for per-restart RNG seeds (a prime, so distinct
#: restarts never collide for distinct base seeds in a suite).
RESTART_STRIDE = 7919

#: Upper bound on the cells of the (candidates, m, m) arrays the scorers
#: build at once, so memory stays flat for large m and n.
CLIQUE_BATCH = 1 << 20


@dataclass(frozen=True)
class SubsampleConfig:
    """Search parameters for extremal subgraph selection.

    ``restarts`` counts additional independent starts beyond the first,
    so ``restarts=0`` runs the local search exactly once.
    """

    m: int
    objective: str = "minimize"
    seed: int = 0
    max_iters: int = 100
    restarts: int = 20

    def __post_init__(self):
        if type(self.m) is not int or self.m < 2:
            raise ConfigError(f"m must be an integer >= 2, got {self.m!r}")
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if type(self.seed) is not int:
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if type(self.max_iters) is not int or self.max_iters < 1:
            raise ConfigError(f"max_iters must be a positive integer, got {self.max_iters!r}")
        if type(self.restarts) is not int or self.restarts < 0:
            raise ConfigError(f"restarts must be a nonnegative integer, got {self.restarts!r}")

    def to_dict(self) -> dict:
        return asdict(self)


def _is_better(candidate: float, incumbent: float, objective: str) -> bool:
    if objective == "minimize":
        return candidate < incumbent - IMPROVE_TOL
    return candidate > incumbent + IMPROVE_TOL


def _evaluate(graph: MarketGraph, subset: tuple, mode: str, weighting: str):
    """Average curvature of the induced subgraph, or None if the subset
    does not induce a usable connected graph."""
    sub = induced_subgraph(graph, subset)
    if not sub.is_connected():
        return None
    return average_curvature(sub, mode=mode, weighting=weighting)


def _generic_scorer(adj: np.ndarray, w: np.ndarray, mode: str, weighting: str):
    """Score a scan's candidates, rows of node positions of the dense host
    ``(adj, w)``, through the exact W1 engine: one `_hops` and one
    `_curvatures` call per `CLIQUE_BATCH` cells of their induced subgraphs;
    NaN marks a candidate whose induced subgraph is disconnected."""
    def score(candidates: np.ndarray) -> np.ndarray:
        subsets = np.sort(candidates, axis=1)
        m = subsets.shape[1]
        out = np.full(len(subsets), np.nan)
        step = max(1, CLIQUE_BATCH // (m * m))
        for s in range(0, len(subsets), step):
            block = (subsets[s:s + step, :, None], subsets[s:s + step, None, :])
            sub = adj[block]
            hop = _hops(sub)
            ok = np.isfinite(hop).all(axis=(1, 2))
            kappa = _curvatures(sub[ok], w[block][ok], hop[ok], mode, weighting)
            out[s:s + step][ok] = [np.mean(k) for k in kappa]
        return out
    return score


def _clique_scorer(adj: np.ndarray, w: np.ndarray, weighting: str):
    """Score candidates of a complete dense host ``(adj, w)`` in closed form.

    Every candidate induces K_m, whose edges and node pairs coincide and
    whose hop distances are all 1, so W1 is the total variation distance
    and kappa(a, b) = sum_v min(mu_a(v), mu_b(v)) in both averaging modes,
    with `_measure_rows`' measures as columns: ``w`` is symmetric, so a
    block of it over its row totals along the other axis is them transposed.
    """
    def score(candidates: np.ndarray) -> np.ndarray:
        m = candidates.shape[1]
        # sum_{a<b} min(x_a, x_b) over a row: its k-th smallest entry (from 0)
        # is the minimum of its pairs with the m - 1 - k above it. Each sum
        # runs along the contiguous last axis of one row, not by a BLAS
        # product, so a score does not depend on its position in the call.
        above = np.arange(m - 1, -1, -1, dtype=float)
        uniform = ~np.eye(m, dtype=bool) / (m - 1)
        out = []
        step = max(1, CLIQUE_BATCH // (m * m))
        for rows in np.split(candidates, np.arange(step, len(candidates), step)):
            block = w.take(rows[:, :, None] * len(w) + rows[:, None, :])
            total = block.sum(axis=-1)[:, None, :]
            mu = np.divide(block, total, out=np.broadcast_to(uniform, block.shape).copy(),
                           where=(total > 0.0) & (weighting != "uniform"))
            mu.sort(axis=-1)
            out.append((np.ascontiguousarray(mu.swapaxes(1, 2)).sum(axis=2) * above).sum(axis=1))
        return np.concatenate(out) / (m * (m - 1) / 2)
    return score


def _swap_candidates(inside: tuple, outside: np.ndarray) -> np.ndarray:
    """Node positions of every single-swap neighbour, one row each.

    Row ``i * len(outside) + j`` replaces ``inside[i]`` by ``outside[j]``.
    """
    m, k = len(inside), outside.size
    candidates = np.tile(np.asarray(inside, dtype=np.intp), (m * k, 1))
    candidates[np.arange(m * k), np.repeat(np.arange(m), k)] = np.tile(outside, m)
    return candidates


def _grow_connected_subset(adj: np.ndarray, m: int, rng: random.Random) -> tuple:
    """Node positions of a random connected m-subset of the adjacency
    ``adj``, grown from a random start vertex, in ascending order.

    Starts are tried in a shuffled order; growth from a start can only
    stall if its component is smaller than m, so the loop fails only
    when no component has m nodes.
    """
    starts = list(range(len(adj)))
    rng.shuffle(starts)
    for start in starts:
        chosen, reach = [start], adj[start].copy()
        while len(chosen) < m:
            reach[chosen] = False
            frontier = np.flatnonzero(reach)
            if not frontier.size:
                break
            nxt = int(frontier[rng.randrange(frontier.size)])
            chosen.append(nxt)
            reach |= adj[nxt]
        if len(chosen) == m:
            return tuple(sorted(chosen))
    raise GraphError(f"no connected subset of {m} nodes exists")


def _best_swap(scores: np.ndarray, value: float, objective: str):
    """First-come strict improvements on ``value`` in scan order; returns
    ``(index or None, best value)``. A winner beats ``value`` (NaN never
    does) and lies over `IMPROVE_TOL` past the best so far, where no earlier
    score lies: only running minima (of -scores to maximize) are walked."""
    beat = np.flatnonzero(_is_better(scores, value, objective))
    keys = scores[beat] if objective == "minimize" else -scores[beat]
    best, best_value = None, value
    for c in beat[keys == np.minimum.accumulate(keys)]:
        if _is_better(scores[c], best_value, objective):
            best, best_value = int(c), float(scores[c])
    return best, best_value


def _local_search(n: int, subset: tuple, config: SubsampleConfig, score):
    """Steepest single-swap descent from ``subset`` (ascending node
    positions) to a local optimum; returns the subset and its score. Each
    swap scan is one ``score`` call, and the first one scores the start
    too, as its row 0."""
    value = None
    for _ in range(config.max_iters):
        outside = np.delete(np.arange(n), subset)
        # Deterministic scan order: (inside position, outside position).
        candidates = _swap_candidates(subset, outside)
        if value is None:
            scores = score(np.concatenate(([subset], candidates)))
            value, scores = float(scores[0]), scores[1:]
            if np.isnan(value):
                raise GraphError("initial subset does not induce a connected subgraph")
        else:
            scores = score(candidates)
        best, best_value = _best_swap(scores, value, config.objective)
        if best is None:
            break
        i, j = divmod(best, outside.size)
        subset = tuple(sorted(subset[:i] + (int(outside[j]),) + subset[i + 1:]))
        value = best_value
    return subset, value


def _search(adj: np.ndarray, w: np.ndarray, config: SubsampleConfig, mode: str,
            weighting: str) -> tuple:
    """Node positions of the best m-subset of the dense host ``(adj, w)``
    found over all restarts: closed-form scores on a complete host, the
    engine per swap scan otherwise. Under ``uniform`` on a complete host
    every subset ties, so restart 0's start wins unscanned."""
    n = len(adj)
    if config.m == n:
        return tuple(range(n))
    if adj.sum() == n * (n - 1):
        if weighting == "uniform":
            return _grow_connected_subset(adj, config.m, random.Random(config.seed))
        score = _clique_scorer(adj, w, weighting)
    else:
        score = _generic_scorer(adj, w, mode, weighting)
    best_subset = None
    best_value = None
    for r in range(config.restarts + 1):
        rng = random.Random(config.seed + RESTART_STRIDE * r)
        start = _grow_connected_subset(adj, config.m, rng)
        subset, value = _local_search(n, start, config, score)
        if best_value is None or _is_better(value, best_value, config.objective):
            best_subset, best_value = subset, value
    return best_subset


def extremal_subgraph(graph: MarketGraph, config: SubsampleConfig,
                      mode: str = "edges", weighting: str = "edge_weight"):
    """Best m-subset found over all restarts.

    Returns ``(nodes, report)`` where ``nodes`` is the chosen subset in
    the host graph's node order and ``report`` is the curvature report
    of its induced subgraph, computed by the exact W1 engine. On a
    complete host the search scores candidates in closed form (see
    `_clique_scorer`); on any other host it scores each swap scan with
    one engine call.
    """
    if mode not in AVERAGING_MODES:
        raise ConfigError(f"mode must be one of {AVERAGING_MODES}, got {mode!r}")
    if weighting not in WEIGHTINGS:
        raise ConfigError(f"unknown weighting {weighting!r}")
    if config.m > graph.n:
        raise ConfigError(f"m={config.m} exceeds graph size n={graph.n}")
    nodes = tuple(graph.nodes[p] for p in _search(*_dense(graph), config, mode, weighting))
    report = _evaluate(graph, nodes, mode, weighting)
    if report is None:
        raise GraphError("graph is not connected")
    return nodes, report


def exhaustive_extremum(graph: MarketGraph, m: int, objective: str = "minimize",
                        mode: str = "edges", weighting: str = "edge_weight"):
    """Global optimum by enumerating every connected m-subset.

    Exponential in n; intended as the ground-truth oracle for small
    graphs when validating the local search.
    """
    if objective not in OBJECTIVES:
        raise ConfigError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    if m < 2 or m > graph.n:
        raise ConfigError(f"m={m} out of range for n={graph.n}")
    best_subset = None
    best_value = None
    for combo in itertools.combinations(graph.nodes, m):
        report = _evaluate(graph, combo, mode, weighting)
        if report is None:
            continue
        if best_value is None or _is_better(report.average, best_value, objective):
            best_subset, best_value = combo, report.average
    if best_subset is None:
        raise GraphError(f"no connected subset of {m} nodes exists")
    return best_subset, best_value


def _stack_extrema(high: np.ndarray, dist: np.ndarray, config: WindowConfig, sub_config) -> list:
    """The value and the chosen node positions of `extremal_subgraph` on the
    complete graph of each window of a ``(G, n, n)`` stack of distances:
    one `_search` per window, then every chosen K_m priced at once by the
    engine's own arithmetic, bit for bit, with no engine call. A K_m pair's
    W1 is its moved mass, so its kappa is 1 - `_peel`'s moved mass between
    its `_measure_rows` rows (the uniform fallback included), pairs in
    ``triu`` order over ascending nodes; each window's mean reduces one row
    of a C-ordered ``(G, pairs)`` array, as `np.mean` does a 1-D one."""
    subsets = [_search(~np.eye(dist.shape[1], dtype=bool), d, sub_config,
                       config.averaging_mode, config.weighting) for d in dist]
    pos = np.array(subsets)
    size, m = pos.shape
    w = dist[np.arange(size)[:, None, None], pos[:, :, None], pos[:, None, :]]
    rows = _measure_rows(np.broadcast_to(~np.eye(m, dtype=bool), w.shape), w,
                         config.weighting).reshape(-1, m)
    ia, ib = ((m * np.arange(size)[:, None] + i).ravel() for i in np.triu_indices(m, 1))
    moved = _peel(rows[ia], rows[ib])[1]
    return list(zip((1.0 - moved).reshape(size, -1).mean(axis=1).tolist(), subsets))


def subsample_indicator_series(prices: PriceMatrix, window_config: WindowConfig,
                               sub_config: SubsampleConfig):
    """Rolling indicator on per-window extremal subsets.

    Each window builds the complete correlation-distance graph, selects
    the extremal m-subset, and reports the average curvature of its
    induced (complete) subgraph. Returns ``(series, subsets)`` with one
    node tuple per window; windows skipped for data reasons carry an
    empty tuple and a NaN value with a dated note. Runs serially.
    """
    if sub_config.m > prices.n_tickers:
        raise ConfigError(
            f"m={sub_config.m} exceeds the number of assets {prices.n_tickers}")
    series, subsets = _rolling_series(prices, window_config,
                                      partial(_stack_extrema, sub_config=sub_config))
    return series, tuple(tuple(prices.tickers[p] for p in s) for s in subsets)
