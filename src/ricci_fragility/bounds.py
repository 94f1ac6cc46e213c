"""Single-edge perturbation lab: how much can curvature move when one
edge is added to a graph?

For an instance (G, G* = G + {x, y}) the suite evaluates five bounds:

* ``prop1_first``  — for any pair (a, b):
  kappa*(a,b) - kappa(a,b) <= (W^d(mu_a, mu_b) - W^{d*}(mu*_a, mu*_b)) / d*(a,b).
  Pure algebra from d* <= d, so it must hold on every instance.
* ``prop1_sup``    — the same left side against ||d - d*||_inf / d*(a,b),
  derived by re-costing one coupling; valid when neither endpoint is x
  or y (their measures change and the re-costing argument breaks).
* ``lemma_node``   — W^d(mu_x, mu*_x) <= 1/(n_x + 1) for an affected
  node of prior degree n_x. This inequality is *not* a theorem: moving
  the new mass from x's old neighbourhood to y costs d(a, y) per unit,
  which can exceed 1. The check reports honest violations; see the
  four-node counterexample in the tests.
* ``prop2_first``  — for the new pair itself:
  kappa*(x,y) - kappa(x,y) <= (||d - d*|| + 1/(n_x+1) + 1/(n_y+1)) / d*(x,y).
* ``prop2_sup``    — the relaxed form with the divisor dropped and an
  additive one: ||d - d*|| + 1/(n_x+1) + 1/(n_y+1) + 1. Always at least
  as large as ``prop2_first`` since d*(x,y) = 1.

All Wasserstein quantities use the exact solver, so a reported
violation is a property of the inequality, not of numerics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ConfigError, DataError, DisconnectedGraphError, GraphError
from .graphs import HopDistanceMatrix, MarketGraph, _dense, _hops, _hops_with_edge
from .transport import _STACK_BUDGET, WEIGHTINGS, _measure_rows, _w1_rows

#: A bound counts as satisfied when slack = rhs - lhs >= -SLACK_TOL.
SLACK_TOL = 1e-9

BOUND_NAMES = ("prop1_first", "prop1_sup", "lemma_node", "prop2_first", "prop2_sup")

#: Random node pairs per instance at which prop1 is checked, besides (x, y).
_PAIR_SAMPLES = 3


@dataclass(frozen=True)
class PerturbationInstance:
    """A connected weighted graph and the same graph with one extra edge."""

    graph: MarketGraph
    graph_star: MarketGraph
    x: object
    y: object
    hop: HopDistanceMatrix
    hop_star: HopDistanceMatrix
    label: str = ""


@dataclass(frozen=True, slots=True)
class BoundReport:
    """One evaluated inequality: lhs <= rhs, slack = rhs - lhs."""

    bound_name: str
    lhs: float
    rhs: float
    slack: float
    satisfied: bool
    pair: tuple = ()
    instance_label: str = ""


def add_edge_instance(graph: MarketGraph, x, y, weight: float = 1.0,
                      label: str = "") -> PerturbationInstance:
    """Materialise (G, G + {x, y}) with hop matrices for both graphs."""
    if x == y or x not in graph.index or y not in graph.index:
        raise GraphError(f"invalid endpoints ({x!r}, {y!r})")
    if graph.has_edge(x, y):
        raise GraphError(f"edge ({x!r}, {y!r}) already present")
    weight = float(weight)
    if not np.isfinite(weight) or weight <= 0.0:
        raise ConfigError("new edge weight must be positive and finite")
    hop = _hops(_dense(graph)[0])
    if not np.isfinite(hop).all():
        raise DisconnectedGraphError("perturbation instances need a connected base graph")
    return _instance(graph, hop, x, y, weight, label)


def _instance(graph: MarketGraph, hop: np.ndarray, x, y, weight: float,
              label: str) -> PerturbationInstance:
    """The instance of the connected ``graph`` with hop matrix ``hop`` plus
    the absent edge {x, y} of positive ``weight``; the perturbed hop matrix
    comes from ``hop`` by the one-edge rule."""
    key = graph.edge_key(x, y)
    weights = dict(graph.weights)
    weights[key] = weight
    corrs = None
    if graph.correlations is not None:
        corrs = dict(graph.correlations)
        corrs[key] = 1.0
    star = MarketGraph(nodes=graph.nodes, edges=graph.edges + (key,), weights=weights,
                       correlations=corrs)
    i, j = graph.index[x], graph.index[y]
    return PerturbationInstance(graph=graph, graph_star=star, x=x, y=y,
                                hop=HopDistanceMatrix(nodes=graph.nodes, matrix=hop),
                                hop_star=HopDistanceMatrix(nodes=graph.nodes,
                                                           matrix=_hops_with_edge(hop, i, j)),
                                label=label)


def sup_distance_change(instance: PerturbationInstance) -> float:
    """||d - d*||_inf over all node pairs.

    Adding an edge only shrinks hop distances, so the difference is
    nonnegative; both-infinite pairs cannot occur on connected input.
    """
    diff = instance.hop.matrix - instance.hop_star.matrix
    if np.min(diff) < -1e-9:
        raise DataError("hop distances grew after adding an edge")
    return float(np.max(diff))


def check_prop1(instance: PerturbationInstance, a, b,
                weighting: str = "edge_weight"):
    """Evaluate both forms of the curvature-change bound at pair (a, b).

    Returns ``(first, sup)`` where ``sup`` is None when the pair touches
    an endpoint of the new edge, since the sup-norm form is only derived
    for pairs whose measures are unchanged.
    """
    if a == b:
        raise ConfigError("pair must be two distinct nodes")
    first, sup = _checks(instance, weighting, [tuple(instance.hop.positions((a, b)).tolist())])[:2]
    return first, sup if sup.bound_name == "prop1_sup" else None


def check_lemma_affected(instance: PerturbationInstance, which: str = "x",
                         weighting: str = "edge_weight") -> BoundReport:
    """Measure shift at an affected node against 1/(n + 1).

    ``which`` selects the endpoint ("x" or "y"). The left side is the
    exact W1 distance, under the *old* metric, between the node's
    measure before and after the new edge arrives.
    """
    if which not in ("x", "y"):
        raise ConfigError(f"which must be 'x' or 'y', got {which!r}")
    return _checks(instance, weighting)[1 + "xy".index(which)]


def check_prop2(instance: PerturbationInstance, weighting: str = "edge_weight"):
    """Bounds on the curvature jump of the new pair (x, y) itself."""
    return tuple(_checks(instance, weighting)[-2:])


def _checks(instance: PerturbationInstance, weighting: str, pairs=()) -> list:
    """`_group_reports` of ``instance`` alone, on its arrays, at the node
    position pairs ``pairs`` and then (x, y) if it is not among them."""
    adj, w = _dense(instance.graph)
    x, y = instance.hop.positions((instance.x, instance.y)).tolist()
    arrays = adj, w, instance.hop.matrix, x, y, instance.graph_star.weight(instance.x, instance.y)
    return _group_reports([(arrays, list(dict.fromkeys([*pairs, (x, y)])), instance.graph.nodes,
                            instance.label)], weighting)


# ---------------------------------------------------------------------------
# Instance generation and suite running
# ---------------------------------------------------------------------------


def random_instance(seed: int, n_low: int = 4, n_high: int = 12,
                    weight_low: float = 0.05, weight_high: float = 2.0) -> PerturbationInstance:
    """Connected Erdos-Renyi graph with random positive weights plus a
    random absent edge to add. Deterministic in ``seed``.

    Sizes are drawn from ``n_low..n_high``; below three nodes every
    graph is either complete or disconnected, so ``n_low >= 3`` is
    required. Raises ``DataError`` if no usable graph turns up in 1000
    draws.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if n_low < 3 or n_low > n_high:
        raise ConfigError(f"need 3 <= n_low <= n_high, got n_low={n_low}, n_high={n_high}")
    if not (np.isfinite(weight_low) and np.isfinite(weight_high)
            and 0.0 <= weight_low <= weight_high):
        raise ConfigError(f"need finite 0 <= weight_low <= weight_high, "
                          f"got {weight_low!r}, {weight_high!r}")
    if weight_high <= 0.0:
        raise ConfigError(f"need weight_high > 0 for a positive new edge, got {weight_high!r}")
    adj, w, hop, x, y, w_new = _draw([seed], n_low, n_high, weight_low, weight_high)[0]
    i, j = np.nonzero(np.triu(adj, 1))
    edges = tuple(zip(i.tolist(), j.tolist()))
    graph = MarketGraph(nodes=tuple(range(len(adj))), edges=edges,
                        weights=dict(zip(edges, w[i, j].tolist())))
    return _instance(graph, hop, x, y, w_new, f"seed={seed}")


def _draw(seeds, n_low: int = 4, n_high: int = 12, weight_low: float = 0.05,
          weight_high: float = 2.0) -> list:
    """`random_instance`'s draw of each of ``seeds`` as arrays, from the same
    stream: ``(adj, w, hop, x, y, w_new)``, the boolean adjacency, the
    weights (0 off the edges), the hop matrix, the absent edge ``x < y`` and
    its weight; read-only views of their round's stacks.

    The draws run in rounds. In a round every pending seed draws its next
    candidate that has an absent edge (n, p, edges, weights) into one
    zero-padded adjacency and weight stack (an n-node graph's edge slots are
    those of ``_upper(size)`` with column below n, in order), one `_hops`
    call runs on it, and each connected candidate, whose block holds n * n +
    size - n finite hop counts (the padding's diagonal is 0), draws its new
    edge and weight; the rest go to the next round. A seed gets 1000
    candidates, complete graphs included.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    tries, draws, pending = [0] * len(rngs), [None] * len(rngs), range(len(rngs))
    while pending:
        round_ = []
        for k in pending:
            rng = rngs[k]
            while tries[k] < 1000:
                tries[k] += 1
                n = int(rng.integers(n_low, n_high + 1))
                p = float(rng.uniform(0.25, 0.75))
                drawn = rng.random(n * (n - 1) // 2) < p
                if not drawn.all():  # else no absent edge to add
                    break
            else:
                raise DataError(f"could not generate a connected instance for seed {seeds[k]}")
            round_.append((k, n, drawn, rng.uniform(weight_low, weight_high, drawn.sum())))
        ks, ns, drawn, weights = zip(*round_)
        ns, size = np.array(ns), max(ns)
        iu, ju = _upper(size)
        upper = np.zeros((len(ks), iu.size), dtype=bool)
        upper[ju < ns[:, None]] = np.concatenate(drawn)
        values = np.zeros(upper.shape)
        values[upper] = np.concatenate(weights)
        adj, w = np.zeros((len(ks), size, size), dtype=bool), np.zeros((len(ks), size, size))
        adj[:, iu, ju] = adj[:, ju, iu] = upper
        w[:, iu, ju] = w[:, ju, iu] = values
        hops = _hops(adj)
        adj.flags.writeable = w.flags.writeable = hops.flags.writeable = False
        connected = np.count_nonzero(np.isfinite(hops), axis=(1, 2)) == ns * ns + size - ns
        pending = [k for k, ok in zip(ks, connected.tolist()) if not ok]
        for r in np.flatnonzero(connected).tolist():
            k, n, drawn = round_[r][:3]
            m = np.flatnonzero(~drawn)[int(rngs[k].integers(drawn.size - drawn.sum()))]
            draws[k] = (adj[r, :n, :n], w[r, :n, :n], hops[r, :n, :n], int(_upper(n)[0][m]),
                        int(_upper(n)[1][m]), float(rngs[k].uniform(weight_low, weight_high)))
    return draws


def _padded(blocks: list) -> np.ndarray:
    """The square arrays ``blocks`` as one stack, zero-padded to the
    largest."""
    size = max(map(len, blocks))
    stack = np.zeros((len(blocks), size, size), dtype=blocks[0].dtype)
    for out, block in zip(stack, blocks):
        out[:len(block), :len(block)] = block
    return stack


@cache
def _upper(n: int) -> tuple:
    """``np.triu_indices(n, 1)``, read-only, built once per ``n``."""
    iu, ju = np.triu_indices(n, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _sample_pairs(n: int, x: int, y: int, rng: np.random.Generator) -> list:
    """(x, y) plus up to ``_PAIR_SAMPLES`` distinct position pairs ``a < b``
    of ``n`` nodes drawn from ``rng``, sorted. A pair is numpy's route for
    ``rng.choice(n, 2, replace=False)``: Floyd's a < n - 1 and b < n (n - 1
    if b == a), then the one-step shuffle's draw below 2, which the sorted
    pair ignores; pairs and ``rng``'s state are those ``choice`` gives."""
    pairs = {(x, y)}
    while len(pairs) < min(_PAIR_SAMPLES + 1, n * (n - 1) // 2):
        a, b = int(rng.integers(n - 1)), int(rng.integers(n))
        rng.integers(2)
        pairs.add((a, n - 1) if a == b else (min(a, b), max(a, b)))
    return sorted(pairs)


def _group_w1(group, weighting: str) -> tuple:
    """``(dist, values)`` of the ``(arrays, pairs, ...)`` items of
    ``group``: the stack ``dist`` of each item's d then d*, zero-padded to
    the largest, and each item's W1 values, in order, as (W^d(mu_a, mu_b)
    of the pairs, W^{d*}(mu*_a, mu*_b) of the pairs, the shifts
    W^d(mu_x, mu*_x) and W^d(mu_y, mu*_y)).

    Each item's arrays are padded once, repeated for before and after the
    edge, and the copies after it get the edge. The values come from one
    `_w1_rows` call over ``dist`` with measure rows from each item's
    adjacency and weights; a shift pair's first row is a row of d. The rows
    of the items of one node count are computed together, unpadded, since
    zero padding would change numpy's pairwise row sums. A pair's value is
    the one it has alone (see `_w1_rows`)."""
    if weighting not in WEIGHTINGS:
        raise ConfigError(f"unknown weighting {weighting!r}")
    items = [arrays for arrays, *_ in group]
    adj, w, dist = (np.repeat(_padded([a[v] for a in items]), 2, axis=0) for v in range(3))
    size, ia, ib = dist.shape[1], [], []
    for k, ((*_, x, y, _), pairs, *_) in enumerate(group):
        first, second = 2 * k * size, (2 * k + 1) * size
        a, b = zip(*pairs)
        ia += [first + v for v in a] + [second + v for v in a] + [first + x, first + y]
        ib += [first + v for v in b] + [second + v for v in (*b, x, y)]
    x, y, w_new = map(np.array, zip(*(a[3:] for a in items)))
    after = np.arange(1, len(dist), 2)
    adj[after, x, y] = adj[after, y, x] = True
    w[after, x, y] = w[after, y, x] = w_new
    dist[after] = _hops_with_edge(dist[after - 1], x, y)
    ns = np.repeat([len(a[0]) for a in items], 2)
    for n in sorted(set(ns.tolist())):  # the weights become the measure rows
        w[ns == n, :n, :n] = _measure_rows(adj[ns == n, :n, :n], w[ns == n, :n, :n], weighting)
    w1 = iter(_w1_rows(w.reshape(-1, size), dist, np.array(ia), np.array(ib)).tolist())
    return dist, [tuple([next(w1) for _ in range(count)] for count in (len(pairs), len(pairs), 2))
                  for _, pairs, *_ in group]


def _group_reports(group, weighting: str) -> list:
    """All five checks on each ``(arrays, pairs, nodes, label)`` of
    ``group``, in order, from the group's `_group_w1` stack and values:
    ``arrays`` as `_draw` gives them, ``pairs`` position pairs with (x, y)
    among them and ``nodes`` the node id at each position. Per item: prop1
    at each pair (first, then sup unless the pair touches x or y), lemma
    at x and y, then prop2. The suite passes a whole stack of instances,
    the public checks a group of one."""
    dist, values = _group_w1(group, weighting)
    deg = (dist[::2] == 1.0).sum(axis=2).tolist()  # neighbours are one hop away
    sups = (dist[::2] - dist[1::2]).max(axis=(1, 2)).tolist()  # padding adds zeros
    reports = []
    for k, (((_, _, _, x, y, _), pairs, nodes, label), (w_before, w_after, shifts)) in enumerate(
            zip(group, values)):
        d, ds = dist[2 * k:2 * k + 2, :len(nodes), :len(nodes)].tolist()
        sup = sups[k]
        for (a, b), before, after in zip(pairs, w_before, w_after):
            pair = (nodes[a], nodes[b])
            lhs = (1.0 - after / ds[a][b]) - (1.0 - before / d[a][b])
            reports.append(_report("prop1_first", lhs, (before - after) / ds[a][b], pair, label))
            if x not in (a, b) and y not in (a, b):
                reports.append(_report("prop1_sup", lhs, sup / ds[a][b], pair, label))
            if (a, b) == (x, y):
                jump = lhs
        inv = [1.0 / (deg[k][v] + 1.0) for v in (x, y)]
        reports += [_report("lemma_node", shift, rhs, (nodes[v],), label)
                    for v, shift, rhs in zip((x, y), shifts, inv)]
        rhs, pair = sup + (inv[0] + inv[1]), (nodes[x], nodes[y])
        reports += [_report("prop2_first", jump, rhs / ds[x][y], pair, label),
                    _report("prop2_sup", jump, rhs + 1.0, pair, label)]
    return reports


def _report(name: str, lhs: float, rhs: float, pair: tuple, label: str) -> BoundReport:
    """The report of ``lhs <= rhs``, satisfied within ``SLACK_TOL``."""
    return BoundReport(name, lhs, rhs, rhs - lhs, rhs - lhs >= -SLACK_TOL, pair, label)


def run_instance_checks(instance: PerturbationInstance, rng: np.random.Generator,
                        weighting: str = "edge_weight") -> list:
    """All five checks on one instance; prop1 at sampled pairs plus (x, y).

    The reports equal those of `check_prop1`, `check_lemma_affected` and
    `check_prop2`, and those `run_bounds_suite` gives the same instance:
    this is its group routine on a group of one.
    """
    x, y = instance.hop.positions((instance.x, instance.y)).tolist()
    return _checks(instance, weighting, _sample_pairs(instance.graph.n, x, y, rng))


@dataclass(frozen=True)
class BoundsSuiteResult:
    """All reports of a run plus per-bound aggregation."""

    reports: tuple
    trials: int
    seed: int
    weighting: str

    def summary(self) -> dict:
        out = {}
        for name in BOUND_NAMES:
            rows = [r for r in self.reports if r.bound_name == name]
            if not rows:
                continue
            out[name] = {
                "count": len(rows),
                "violations": sum(1 for r in rows if not r.satisfied),
                "min_slack": min(r.slack for r in rows),
            }
        return out

    def violations(self) -> tuple:
        return tuple(r for r in self.reports if not r.satisfied)


def run_bounds_suite(trials: int = 200, seed: int = 0,
                     weighting: str = "edge_weight") -> BoundsSuiteResult:
    """Random-instance sweep of all five bounds.

    Every instance is reproducible from ``seed`` and its trial index;
    violated reports carry the instance label so a failure can be
    replayed exactly. Instances are drawn as arrays in stacked rounds
    (`_draw`, nodes ``0..n-1``) and checked as stacks cut by the
    `_STACK_BUDGET` rule, each with one `_w1_rows` call (`_group_reports`),
    with the reports `run_instance_checks` gives each `random_instance`
    alone. A stack's instances are drawn when it is solved, so memory
    stays flat in ``trials``.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if weighting not in WEIGHTINGS:
        raise ConfigError(f"unknown weighting {weighting!r}")
    # An instance costs its W1 pairs (its pairs under d and d*, and two
    # shifts) plus n * n // 25, and a stack is solved before it would pass
    # `_STACK_BUDGET`. Instances are drawn in batches of as many as fit the
    # budget at the largest cost (`_draw`'s 12 nodes, _PAIR_SAMPLES + 1
    # pairs), so only one stack and one batch are held at a time.
    batch = _STACK_BUDGET // (2 * _PAIR_SAMPLES + 4 + 12 * 12 // 25)
    first = seed * 1_000_003
    reports, stack, load = [], [], 0
    for start in range(first, first + trials, batch):
        seeds = range(start, min(start + batch, first + trials))
        for instance_seed, arrays in zip(seeds, _draw(seeds)):
            n, x, y = len(arrays[0]), arrays[3], arrays[4]
            pairs = _sample_pairs(n, x, y, np.random.default_rng(instance_seed + 500_009))
            cost = 2 * len(pairs) + 2 + n * n // 25
            if stack and load + cost > _STACK_BUDGET:
                reports += _group_reports(stack, weighting)
                stack, load = [], 0
            stack.append((arrays, pairs, range(n), f"seed={instance_seed}"))
            load += cost
    reports += _group_reports(stack, weighting)
    return BoundsSuiteResult(reports=tuple(reports), trials=trials, seed=seed,
                             weighting=weighting)


# ---------------------------------------------------------------------------
# Sharpness family
# ---------------------------------------------------------------------------


def kn_minus_edge_instance(n: int) -> PerturbationInstance:
    """K_n with one edge removed, perturbed by restoring that edge.

    The family where the first-form bound is tight: restoring the edge
    leaves every pair's slack at exactly zero (the changed pair has
    identical measures before the edge returns, so both sides vanish;
    all other pairs keep d = d*).
    """
    if n < 4:
        raise ConfigError("sharpness family needs n >= 4")
    nodes = tuple(range(n))
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n) if (i, j) != (0, 1))
    g = MarketGraph(nodes=nodes, edges=edges, weights={e: 1.0 for e in edges})
    return add_edge_instance(g, 0, 1, 1.0, label=f"kn_minus_edge_{n}")


def sharpness_reports(n: int, weighting: str = "uniform") -> list:
    """prop1_first reports for every pair of the K_n sharpness instance."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [r for r in _checks(kn_minus_edge_instance(n), weighting, pairs)
            if r.bound_name == "prop1_first"]
