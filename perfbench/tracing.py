"""Traced pass: the workload's pipeline re-run one public library call at
a time, each call timed from here, plus exact counts of the work that
the inputs imply. The library itself is not instrumented.

Like the untraced calls, every group of items that one untraced call
covers (a panel, or one suite of trials) is timed between two samples of
the calibration kernel, and its durations are rescaled to nominal
machine speed.

Layers are the package modules. Every layer is called once per item
(window or trial), so each layer reports median, tail, count and total
over the same items. The tail is the highest whole percentile with at
least ten samples beyond it (``tail_pct``; the maximum when there are
ten samples or fewer).

The residual census is computed, not measured: for every pair whose W1
the workload needs, it removes the mass the two measures share and
counts the distinct hop distances between what is left, as the exact
solver's dispatch sees it (none left, one, two, three or more).
"""

from __future__ import annotations

import math
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import calibration
import workloads as wl
from ricci_fragility import (
    augment_high_value_edges,
    average_curvature,
    build_complete_graph,
    correlation_matrix,
    distance_from_correlation,
    extremal_subgraph,
    hop_distances,
    induced_subgraph,
    minimum_spanning_tree,
    node_measure,
    random_instance,
)
from ricci_fragility.bounds import BOUND_NAMES, run_instance_checks

LAYERS = (
    "ingestion.window",
    "indicator.correlation",
    "indicator.distance",
    "graphs.complete",
    "graphs.mst",
    "graphs.augment",
    "graphs.hop",
    "transport.curvature",
    "subsample.search",
    "bounds.instance",
    "bounds.checks",
)

RESIDUAL_CLASSES = ("none", "1d", "2d", "3plus")


class Recorder:
    """Per-layer call durations, kept in memory, in seconds at nominal
    machine speed; ``total_s`` is the whole traced pass on that scale."""

    def __init__(self, kernel: calibration.Kernel):
        self.kernel = kernel
        self.samples = {name: [] for name in LAYERS + ("item",)}
        self.total_s = 0.0

    @contextmanager
    def group(self):
        """Rescale the durations recorded inside the block by the machine
        speed measured around it."""
        marks = {name: len(xs) for name, xs in self.samples.items()}
        before = self.kernel.sample()
        t0 = perf_counter()
        yield
        elapsed = perf_counter() - t0
        factor = self.kernel.scale(before, self.kernel.sample())
        for name, xs in self.samples.items():
            xs[marks[name]:] = [x * factor for x in xs[marks[name]:]]
        self.total_s += elapsed * factor

    def call(self, layer: str, fn, *args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self.samples[layer].append(perf_counter() - t0)
        return out


def traced_items(spec, inputs, rec: Recorder):
    """Run the workload once, layer by layer.

    Returns ``(rows, sources)``: rows in ``workloads.items`` form, so they
    can be compared with the untraced outputs, and the graphs the census
    needs.
    """
    rows, sources = [], []
    if spec.kind == "bounds":
        for suite_seed, weighting in inputs:
            with rec.group():
                for t in range(spec.trials):
                    _traced_trial(suite_seed, t, weighting, rec, rows, sources)
    else:
        for p in inputs:
            with rec.group():
                for j in range(p.windows):
                    _traced_window(spec, p, j, rec, rows, sources)
    return rows, sources


def _traced_window(spec, p, j: int, rec: Recorder, rows: list, sources: list):
    cfg = wl.CONFIG
    t0 = perf_counter()
    win = rec.call("ingestion.window", p.prices.window, j, j + wl.T)
    rho, _ = rec.call("indicator.correlation", correlation_matrix, win, cfg.input_mode)
    dist = rec.call("indicator.distance", distance_from_correlation, rho, cfg.transform)
    base = rec.call("graphs.complete", build_complete_graph, dist, rho, nodes=win.tickers)
    if spec.kind == "rolling":
        tree = rec.call("graphs.mst", minimum_spanning_tree, base)
        graph = rec.call("graphs.augment", augment_high_value_edges, tree, base, cfg.xi)
        hop = rec.call("graphs.hop", hop_distances, graph)
        report = rec.call("transport.curvature", average_curvature, graph,
                          mode=cfg.averaging_mode, weighting=cfg.weighting, hop=hop)
        extra, source = (), graph
    else:
        subset, report = rec.call("subsample.search", extremal_subgraph, base, wl.SUB_CONFIG,
                                  mode=cfg.averaging_mode, weighting=cfg.weighting)
        extra, source = (tuple(subset),), (base, subset)
    rec.samples["item"].append(perf_counter() - t0)
    rows.append((p.start + j, p.prices.dates[j + wl.T - 1], report.average) + extra)
    sources.append(source)


def _traced_trial(seed: int, t: int, weighting: str, rec: Recorder, rows: list,
                  sources: list):
    t0 = perf_counter()
    # The instance and pair-sampling seeds run_bounds_suite derives.
    instance_seed = seed * 1_000_003 + t
    instance = rec.call("bounds.instance", random_instance, instance_seed)
    reports = rec.call("bounds.checks", run_instance_checks, instance,
                       np.random.default_rng(instance_seed + 500_009), weighting)
    rec.samples["item"].append(perf_counter() - t0)
    rows.append((weighting, instance.label, tuple(reports)))
    sources.append((instance, reports, weighting))


def residual_class(mu, nu, hop) -> int:
    """0 if no mass is left once shared mass is removed, else the number
    of distinct hop distances between the residual supports, capped at 3."""
    pa, pb = hop.positions(mu.support), hop.positions(nu.support)
    ra, rb = mu.masses.copy(), nu.masses.copy()
    _, ia, ib = np.intersect1d(pa, pb, return_indices=True)
    shared = np.minimum(ra[ia], rb[ib])
    ra[ia] -= shared
    rb[ib] -= shared
    src, snk = pa[ra > 0.0], pb[rb > 0.0]
    if src.size == 0 or snk.size == 0:
        return 0
    return min(3, np.unique(hop.matrix[np.ix_(src, snk)]).size)


def counts(spec, rows, sources) -> dict:
    """Exact counts: graph sizes, W1 pairs by residual class, gaps, reports."""
    census = [0, 0, 0, 0]
    edges = diameter = gaps = 0
    violations = dict.fromkeys(BOUND_NAMES, 0)
    reports_total = 0
    if spec.kind == "bounds":
        for instance, reports, w in sources:
            graphs = ((instance.graph, instance.hop), (instance.graph_star, instance.hop_star))
            for g, hop in graphs:
                edges += g.edge_count
                diameter = max(diameter, int(hop.matrix.max()))
            for r in reports:
                reports_total += 1
                violations[r.bound_name] += not r.satisfied
                if r.bound_name in ("prop1_first", "prop2_first"):
                    for g, hop in graphs:
                        census[residual_class(node_measure(g, r.pair[0], w),
                                              node_measure(g, r.pair[1], w), hop)] += 1
                elif r.bound_name == "lemma_node":
                    node = r.pair[0]
                    census[residual_class(node_measure(instance.graph, node, w),
                                          node_measure(instance.graph_star, node, w),
                                          instance.hop)] += 1
    else:
        gaps = sum(1 for row in rows if math.isnan(row[2]))
        for source in sources:
            graph = source if spec.kind == "rolling" else induced_subgraph(*source)
            hop = hop_distances(graph)
            edges += graph.edge_count
            diameter = max(diameter, int(hop.matrix.max()))
            measures = {v: node_measure(graph, v, wl.CONFIG.weighting) for v in graph.nodes}
            for a, b in graph.edges:
                census[residual_class(measures[a], measures[b], hop)] += 1
    pairs = sum(census)
    out = {
        "graphs.edges": edges,
        "graphs.diameter_max": diameter,
        "transport.pairs": pairs,
        "indicator.gaps": gaps,
        "bounds.reports": reports_total,
    }
    out.update({f"bounds.violations.{name}": n for name, n in violations.items()})
    for cls, n in zip(RESIDUAL_CLASSES, census):
        out[f"transport.residual_{cls}"] = n
        out[f"transport.residual_{cls}_share"] = n / pairs if pairs else 0.0
    return out


def tail_level(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples above it."""
    return 100 if n <= 10 else (100 * (n - 10)) // n


def _quantile(xs: list, level: int) -> float:
    if not xs:
        return 0.0
    return xs[max(0, math.ceil(level * len(xs) / 100) - 1)]


def layer_metrics(rec: Recorder, wall_s: float) -> dict:
    """Per-layer timings in ms, layer shares of the item total, the tail
    level, and the tracing overhead against the untraced ``wall_s``."""
    level = tail_level(len(rec.samples["item"]))
    item_total = sum(rec.samples["item"])
    out = {"tail_pct": (level, "%")}
    for name in LAYERS + ("item",):
        xs = sorted(1e3 * x for x in rec.samples[name])
        key = f"{name}_ms"
        out[f"{key}.median"] = (statistics.median(xs) if xs else 0.0, "ms")
        out[f"{key}.tail"] = (_quantile(xs, level), "ms")
        out[f"{key}.count"] = (len(xs), "count")
        out[f"{key}.total"] = (sum(xs), "ms")
        if name != "item":
            out[f"{key}.share"] = (sum(rec.samples[name]) / item_total, "fraction")
    out["trace_overhead_frac"] = (rec.total_s / wall_s - 1.0, "fraction")
    return out
