"""Correctness gate behind ``failed``/``attempted``. Runs outside the
timed region and returns one pass/fail flag per item (window or trial).

* Rolling windows must match the recorded reference to 1e-12, and on
  every window a fixed sample of edges is re-solved with a plain
  full-support linear program written here; kappa must agree to 1e-9.
* Subsample windows must match the recorded subset exactly and its value
  to 1e-12, and the value must equal the closed form on K_m,
  kappa(a, b) = sum_v min(mu_a(v), mu_b(v)), to 1e-12.
* Bounds trials must show no violation of the four sound bounds.
  ``lemma_node`` violations are expected (the inequality is false) and
  are counted by the trace, not failed. At the reference seed every
  suite's summary must match the reference exactly, with ``min_slack``
  to 1e-12.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

import workloads as wl
from ricci_fragility import (
    correlation_matrix,
    distance_from_correlation,
    edge_curvature,
    hop_distances,
    node_measure,
    window_graph,
)

REFERENCE = Path(__file__).resolve().parent / "reference.json"

VALUE_TOL = 1e-12
LP_TOL = 1e-9
EDGES_PER_WINDOW = 2
EXPECTED_VIOLATIONS = ("lemma_node",)


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def lp_w1(mu, nu, hop) -> float:
    """W1 between two node measures: one dense transportation LP on the
    full supports, no shared-mass peel, no pooling, no special cases."""
    cost = hop.matrix[np.ix_(hop.positions(mu.support), hop.positions(nu.support))]
    m, n = cost.shape
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([mu.masses, nu.masses]),
                  bounds=(0, None), method="highs")
    return float(res.fun) if res.status == 0 else float("nan")


def sampled_edges_agree(window, k: int) -> bool:
    """Library kappa against ``lp_w1`` on a sample of the window's edges
    that is fixed by the window start ``k``."""
    graph = window_graph(window, wl.CONFIG)
    hop = hop_distances(graph)
    rng = np.random.default_rng(k)
    picks = rng.choice(graph.edge_count, size=min(EDGES_PER_WINDOW, graph.edge_count),
                       replace=False)
    for e in picks:
        a, b = graph.edges[int(e)]
        mu = node_measure(graph, a, wl.CONFIG.weighting)
        nu = node_measure(graph, b, wl.CONFIG.weighting)
        exact = 1.0 - lp_w1(mu, nu, hop) / hop.dist(a, b)
        if not abs(edge_curvature(graph, hop, a, b, wl.CONFIG.weighting) - exact) <= LP_TOL:
            return False
    return True


def complete_graph_value(window, subset) -> float:
    """Average edge_weight curvature of K_m on ``subset``, in closed form."""
    rho, _ = correlation_matrix(window, wl.CONFIG.input_mode)
    dist = distance_from_correlation(rho, wl.CONFIG.transform)
    pos = [window.tickers.index(t) for t in subset]
    w = dist[np.ix_(pos, pos)]
    mu = w / w.sum(axis=1, keepdims=True)
    a, b = np.triu_indices(len(pos), 1)
    return float(np.minimum(mu[a], mu[b]).sum(axis=1).mean())


def _close(x, y) -> bool:
    return abs(x - y) <= VALUE_TOL


def check_windows(spec, inputs, rows, reference) -> list:
    """Flags for rolling and subsample rows, in ``workloads.items`` order."""
    windows = [(p, j) for p in inputs for j in range(p.windows)]
    if len(rows) != len(windows):
        return [False] * len(windows)
    table = reference["windows"] if spec.kind == "rolling" else reference["subsample"]
    flags = []
    for (p, j), row in zip(windows, rows):
        if row is None:
            flags.append(False)
            continue
        k, date, value = row[:3]
        ref = table.get(str(k))
        ok = ref is not None and date == ref[0] and _close(value, ref[1])
        if ok:
            window = p.prices.window(j, j + wl.T)
            if spec.kind == "rolling":
                ok = sampled_edges_agree(window, k)
            else:
                ok = (list(row[3]) == ref[2]
                      and _close(value, complete_graph_value(window, row[3])))
        flags.append(ok)
    return flags


def check_trials(spec, inputs, outputs, rows, reference) -> list:
    """Flags for bounds trials, in ``workloads.items`` order."""
    if len(rows) != wl.item_count(spec, inputs):
        return [False] * wl.item_count(spec, inputs)
    ref = reference["bounds"]
    compare = ref["suites"] == [list(s) for s in inputs] and ref["trials"] == spec.trials
    flags = []
    for i, result in enumerate(outputs):
        rows_i = rows[i * spec.trials:(i + 1) * spec.trials]
        match = result is not None and (
            not compare or _summary_matches(result.summary(), ref["summaries"][i]))
        flags.extend(match and all(r.satisfied for r in row[2]
                                   if r.bound_name not in EXPECTED_VIOLATIONS)
                     for row in rows_i)
    return flags


def _summary_matches(got: dict, want: dict) -> bool:
    if sorted(got) != sorted(want):
        return False
    return all(got[k]["count"] == want[k]["count"]
               and got[k]["violations"] == want[k]["violations"]
               and _close(got[k]["min_slack"], want[k]["min_slack"]) for k in want)


def check(spec, inputs, outputs, reference) -> list:
    """One flag per item of one call's ``outputs``; True means correct."""
    rows = wl.items(spec, inputs, outputs)
    if spec.kind == "bounds":
        return check_trials(spec, inputs, outputs, rows, reference)
    return check_windows(spec, inputs, rows, reference)
