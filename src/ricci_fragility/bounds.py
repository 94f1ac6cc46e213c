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

import numpy as np

from .errors import ConfigError, DataError, DisconnectedGraphError, GraphError
from .graphs import HopDistanceMatrix, MarketGraph, hop_distances
from .transport import WEIGHTINGS, node_measure, wasserstein1_cost

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


@dataclass(frozen=True)
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
    if not graph.is_connected():
        raise DisconnectedGraphError("perturbation instances need a connected base graph")

    key = graph.edge_key(x, y)
    edges = graph.edges + (key,)
    weights = dict(graph.weights)
    weights[key] = weight
    corrs = None
    if graph.correlations is not None:
        corrs = dict(graph.correlations)
        corrs[key] = 1.0
    star = MarketGraph(nodes=graph.nodes, edges=edges, weights=weights, correlations=corrs)
    return PerturbationInstance(graph=graph, graph_star=star, x=x, y=y,
                                hop=hop_distances(graph), hop_star=hop_distances(star),
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
    if weighting not in WEIGHTINGS:
        raise ConfigError(f"unknown weighting {weighting!r}")
    if a == b:
        raise ConfigError("pair must be two distinct nodes")
    g, gs = instance.graph, instance.graph_star
    d_ab = instance.hop.dist(a, b)
    ds_ab = instance.hop_star.dist(a, b)

    w_before = wasserstein1_cost(node_measure(g, a, weighting),
                                 node_measure(g, b, weighting), instance.hop)
    w_after = wasserstein1_cost(node_measure(gs, a, weighting),
                                node_measure(gs, b, weighting), instance.hop_star)
    kappa_before = 1.0 - w_before / d_ab
    kappa_after = 1.0 - w_after / ds_ab
    lhs = kappa_after - kappa_before

    rhs_first = (w_before - w_after) / ds_ab
    first = BoundReport(bound_name="prop1_first", lhs=lhs, rhs=rhs_first,
                        slack=rhs_first - lhs, satisfied=rhs_first - lhs >= -SLACK_TOL,
                        pair=(a, b), instance_label=instance.label)

    if a in (instance.x, instance.y) or b in (instance.x, instance.y):
        return first, None
    rhs_sup = sup_distance_change(instance) / ds_ab
    sup = BoundReport(bound_name="prop1_sup", lhs=lhs, rhs=rhs_sup,
                      slack=rhs_sup - lhs, satisfied=rhs_sup - lhs >= -SLACK_TOL,
                      pair=(a, b), instance_label=instance.label)
    return first, sup


def check_lemma_affected(instance: PerturbationInstance, which: str = "x",
                         weighting: str = "edge_weight") -> BoundReport:
    """Measure shift at an affected node against 1/(n + 1).

    ``which`` selects the endpoint ("x" or "y"). The left side is the
    exact W1 distance, under the *old* metric, between the node's
    measure before and after the new edge arrives.
    """
    if which not in ("x", "y"):
        raise ConfigError(f"which must be 'x' or 'y', got {which!r}")
    node = instance.x if which == "x" else instance.y
    mu_before = node_measure(instance.graph, node, weighting)
    mu_after = node_measure(instance.graph_star, node, weighting)
    lhs = wasserstein1_cost(mu_before, mu_after, instance.hop)
    rhs = 1.0 / (instance.graph.degree(node) + 1.0)
    return BoundReport(bound_name="lemma_node", lhs=lhs, rhs=rhs,
                       slack=rhs - lhs, satisfied=rhs - lhs >= -SLACK_TOL,
                       pair=(node,), instance_label=instance.label)


def check_prop2(instance: PerturbationInstance, weighting: str = "edge_weight"):
    """Bounds on the curvature jump of the new pair (x, y) itself."""
    first, _ = check_prop1(instance, instance.x, instance.y, weighting)
    return _prop2_reports(instance, first.lhs)


def _prop2_reports(instance: PerturbationInstance, lhs: float):
    """prop2 reports for the curvature jump ``lhs`` of (x, y), which is
    the left side of prop1 at (x, y)."""
    x, y = instance.x, instance.y
    sup = sup_distance_change(instance)
    inv_deg = (1.0 / (instance.graph.degree(x) + 1.0)
               + 1.0 / (instance.graph.degree(y) + 1.0))
    ds_xy = instance.hop_star.dist(x, y)
    rhs_first = (sup + inv_deg) / ds_xy
    rhs_sup = sup + inv_deg + 1.0

    first = BoundReport(bound_name="prop2_first", lhs=lhs, rhs=rhs_first,
                        slack=rhs_first - lhs, satisfied=rhs_first - lhs >= -SLACK_TOL,
                        pair=(x, y), instance_label=instance.label)
    relaxed = BoundReport(bound_name="prop2_sup", lhs=lhs, rhs=rhs_sup,
                          slack=rhs_sup - lhs, satisfied=rhs_sup - lhs >= -SLACK_TOL,
                          pair=(x, y), instance_label=instance.label)
    return first, relaxed


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
    if n_low < 3 or n_low > n_high:
        raise ConfigError(f"need 3 <= n_low <= n_high, got n_low={n_low}, n_high={n_high}")
    if not (np.isfinite(weight_low) and np.isfinite(weight_high)
            and 0.0 <= weight_low <= weight_high):
        raise ConfigError(f"need finite 0 <= weight_low <= weight_high, "
                          f"got {weight_low!r}, {weight_high!r}")
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        n = int(rng.integers(n_low, n_high + 1))
        p = float(rng.uniform(0.25, 0.75))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        if len(edges) >= n * (n - 1) // 2:
            continue  # no absent edge to add
        weights = {e: float(rng.uniform(weight_low, weight_high)) for e in edges}
        g = MarketGraph(nodes=tuple(range(n)), edges=tuple(edges), weights=weights)
        if not g.is_connected():
            continue
        absent = [(i, j) for i in range(n) for j in range(i + 1, n)
                  if (i, j) not in g.weights]
        x, y = absent[int(rng.integers(len(absent)))]
        w_new = float(rng.uniform(weight_low, weight_high))
        return add_edge_instance(g, x, y, w_new, label=f"seed={seed}")
    raise DataError(f"could not generate a connected instance for seed {seed}")


def run_instance_checks(instance: PerturbationInstance, rng: np.random.Generator,
                        weighting: str = "edge_weight") -> list:
    """All five checks on one instance; prop1 at sampled pairs plus (x, y)."""
    g = instance.graph
    reports = []
    nodes = list(g.nodes)
    pairs = {(instance.x, instance.y)}
    while len(pairs) < _PAIR_SAMPLES + 1 and len(pairs) < len(nodes) * (len(nodes) - 1) // 2:
        a, b = rng.choice(len(nodes), size=2, replace=False)
        pairs.add(g.edge_key(nodes[int(a)], nodes[int(b)]))
    for a, b in sorted(pairs, key=lambda e: (g.index[e[0]], g.index[e[1]])):
        first, sup = check_prop1(instance, a, b, weighting)
        reports.append(first)
        if sup is not None:
            reports.append(sup)
        if (a, b) == (instance.x, instance.y):
            jump = first.lhs
    reports.append(check_lemma_affected(instance, "x", weighting))
    reports.append(check_lemma_affected(instance, "y", weighting))
    reports.extend(_prop2_reports(instance, jump))
    return reports


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
    replayed exactly.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if weighting not in WEIGHTINGS:
        raise ConfigError(f"unknown weighting {weighting!r}")
    reports = []
    for t in range(trials):
        instance_seed = seed * 1_000_003 + t
        instance = random_instance(instance_seed)
        rng = np.random.default_rng(instance_seed + 500_009)
        reports.extend(run_instance_checks(instance, rng, weighting))
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
    inst = kn_minus_edge_instance(n)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            first, _ = check_prop1(inst, i, j, weighting)
            out.append(first)
    return out
