"""Rolling curvature indicator: windows -> correlations -> distances ->
filtered graph -> average curvature series.

Correlations are pairwise-complete Pearson: each pair is correlated
over the window rows where both series are present, computed with
masked matrix products so a 132 x 50 window costs a handful of matmuls.
Each window's correlation matrix becomes a distance matrix through a
decreasing transform, the complete distance graph is pruned to its MST
plus all edges above the correlation threshold, and the average
Ollivier-Ricci curvature of that filtered graph is one point of the
series, labelled by the window's last date so nothing looks ahead. The
series reads the graphs of a stack of windows as arrays, with one Prim,
one BFS and one W1 call per stack; `window_graph` builds one window's
graph from a stack of one.

Windows that fail validation (insufficient overlap, disconnection)
yield NaN gaps rather than aborting the series; the reasons are kept on
the series so runs remain auditable. The same rolling driver also runs
the sub-sampled indicator of `subsample`, with its own stack step.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, InsufficientOverlapError
from .graphs import MarketGraph, _from_edge_mask, _hops, _prim
from .ingestion import PriceMatrix
from .transport import AVERAGING_MODES, WEIGHTINGS, _curvatures

#: Minimum overlapping observations for a pairwise correlation.
MIN_OVERLAP = 3

#: Memory estimate per stack of windows in the rolling driver: a window
#: costs its bounded pairs (`_pair_bound`) plus ``n * n // 25`` for its
#: ``(n, n)`` arrays; a window over it is a stack of one. On
#: `regime_switch()` (n = 50, edges) 13-17 calm windows share a stack and
#: crisis windows pair up: calm windows took 1.32 ms each against 2.57 ms
#: alone, crisis windows 34.2 against 35.2 ms. Under `tracemalloc` the
#: largest calm stack peaks at 2.3 MB and a crisis pair at 3.7 MB (xi
#: 0.9). Past the 4 MB window budget: two pairs-mode windows (1,325 each)
#: at k = 360, 361 at 4.1 MB, crisis windows in threes at 4.4 MB.
_STACK_BUDGET = 2600

TRANSFORM_KINDS = ("sqrt_ultrametric", "power", "log1p_scaled")

INPUT_MODES = ("raw_price", "log_return")


@dataclass(frozen=True)
class DistanceTransform:
    """Decreasing map from correlation to distance, zero at rho = 1.

    ``sqrt_ultrametric``: d = sqrt(2 (1 - rho)), the classical choice;
    ``power``: d = (2 (1 - rho))^p for a positive exponent ``p``;
    ``log1p_scaled``: d = log(1 + 2 (1 - rho)).
    """

    kind: str = "sqrt_ultrametric"
    p: float | None = None

    def __post_init__(self):
        if self.kind not in TRANSFORM_KINDS:
            raise ConfigError(f"unknown transform {self.kind!r}")
        if self.kind == "power":
            if self.p is None or not (self.p > 0.0) or not np.isfinite(self.p):
                raise ConfigError("power transform needs a positive exponent p")
        elif self.p is not None:
            raise ConfigError(f"transform {self.kind!r} takes no exponent")

    @classmethod
    def parse(cls, text: str) -> "DistanceTransform":
        """Parse CLI syntax: ``sqrt``, ``power:<p>``, or ``log1p``."""
        text = text.strip()
        if text == "sqrt":
            return cls("sqrt_ultrametric")
        if text == "log1p":
            return cls("log1p_scaled")
        if text.startswith("power:"):
            try:
                return cls("power", p=float(text.split(":", 1)[1]))
            except ValueError as exc:
                raise ConfigError(f"bad power exponent in {text!r}") from exc
        raise ConfigError(f"unknown distance transform {text!r}")

    def label(self) -> str:
        if self.kind == "power":
            return f"power:{self.p:g}"
        return {"sqrt_ultrametric": "sqrt", "log1p_scaled": "log1p"}[self.kind]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        spread = 2.0 * (1.0 - rho)
        spread[spread < 0.0] = 0.0  # guards rho = 1 + float dust
        if self.kind == "sqrt_ultrametric":
            d = np.sqrt(spread)
        elif self.kind == "power":
            d = spread ** self.p
        else:
            d = np.log1p(spread)
        np.fill_diagonal(d, 0.0)
        return d


@dataclass(frozen=True)
class WindowConfig:
    """Everything a rolling run needs besides the data itself."""

    T: int = 132
    xi: float = 0.85
    transform: DistanceTransform = field(default_factory=DistanceTransform)
    averaging_mode: str = "edges"
    weighting: str = "edge_weight"
    input_mode: str = "raw_price"

    def __post_init__(self):
        if not isinstance(self.T, int) or self.T < MIN_OVERLAP:
            raise ConfigError(f"window length T={self.T!r} must be an int >= {MIN_OVERLAP}")
        if not -1.0 <= self.xi <= 1.0:
            raise ConfigError(f"threshold xi={self.xi} outside [-1, 1]")
        if self.averaging_mode not in AVERAGING_MODES:
            raise ConfigError(f"unknown averaging mode {self.averaging_mode!r}")
        if self.weighting not in WEIGHTINGS:
            raise ConfigError(f"unknown weighting {self.weighting!r}")
        if self.input_mode not in INPUT_MODES:
            raise ConfigError(f"unknown input mode {self.input_mode!r}")

    def to_dict(self) -> dict:
        return {
            "T": self.T,
            "xi": self.xi,
            "distance": self.transform.label(),
            "averaging_mode": self.averaging_mode,
            "weighting": self.weighting,
            "input_mode": self.input_mode,
        }


@dataclass(frozen=True)
class IndicatorSeries:
    """Dated indicator values; NaN marks windows that failed validation.

    ``notes`` records one human-readable reason per gap. Values never
    exceed one (curvature is bounded above by one).
    """

    dates: tuple
    values: tuple
    config: WindowConfig
    notes: tuple = ()

    def __post_init__(self):
        dates = tuple(self.dates)
        values = tuple(float(v) for v in self.values)
        if len(dates) != len(values):
            raise DataError("dates and values have different lengths")
        if any(dates[i] >= dates[i + 1] for i in range(len(dates) - 1)):
            raise DataError("series dates must be strictly increasing")
        for v in values:
            if not np.isnan(v) and v > 1.0 + 1e-9:
                raise DataError(f"indicator value {v} exceeds 1")
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "notes", tuple(self.notes))

    def gap_count(self) -> int:
        return int(sum(1 for v in self.values if np.isnan(v)))


def correlation_matrix(window: PriceMatrix, input_mode: str = "raw_price"):
    """Pairwise-complete Pearson correlations for one window.

    Returns ``(rho, flagged)`` where ``flagged`` lists ticker pairs with
    zero variance on their overlap (their rho is set to 0). Raises
    ``InsufficientOverlapError`` if any pair overlaps on fewer than
    ``MIN_OVERLAP`` rows.
    """
    if input_mode not in INPUT_MODES:
        raise ConfigError(f"unknown input mode {input_mode!r}")
    x = window.values
    if input_mode == "log_return":
        logp = np.log(x)
        x = logp[1:] - logp[:-1]  # NaN whenever either endpoint is missing
    rows, n = x.shape
    if rows < MIN_OVERLAP:
        raise InsufficientOverlapError(
            f"window provides {rows} usable rows; need >= {MIN_OVERLAP}")

    mask = (~np.isnan(x)).astype(float)
    # Column-centred values stabilise the cross moments; pairwise means
    # are restored inside the correlation identity below, which is exact
    # under any constant shift per column.
    centred = np.where(mask > 0.0, x - np.nanmean(x, axis=0), 0.0)

    overlap = mask.T @ mask                  # co-present row counts
    s1 = centred.T @ mask                    # sum of x over co-present rows
    s2 = (centred * centred).T @ mask        # sum of x^2 over co-present rows
    cross = centred.T @ centred              # sum of x*y over co-present rows

    off = ~np.eye(n, dtype=bool)
    if np.any(overlap[off] < MIN_OVERLAP):
        i, j = np.argwhere((overlap < MIN_OVERLAP) & off)[0]
        raise InsufficientOverlapError(
            f"{window.tickers[i]}/{window.tickers[j]} overlap on "
            f"{int(overlap[i, j])} rows; need >= {MIN_OVERLAP}")

    cov = overlap * cross - s1 * s1.T
    var_x = overlap * s2 - s1 * s1
    var_y = var_x.T
    scale = np.maximum(overlap * s2, 1.0)
    degenerate = (var_x <= 1e-14 * scale) | (var_y <= 1e-14 * scale.T)

    denom2 = np.maximum(var_x, 0.0) * np.maximum(var_y, 0.0)
    denom = np.sqrt(denom2)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.where(degenerate, 0.0, cov / np.where(denom > 0.0, denom, 1.0))
    # Cauchy-Schwarz holds with equality exactly when the overlapping
    # observations are affinely related. Neither the square root above
    # nor the two moment products (computed by separate matrix products
    # with their own summation orders) are reliable to the last bit, so
    # treat |rho| within 5e-13 of 1 as the affine case and snap it; any
    # non-degenerate sample lies far below that.
    affine = ~degenerate & (denom2 > 0.0) & (cov * cov >= denom2 * (1.0 - 1e-12))
    rho = np.where(affine, np.sign(cov), rho)
    rho = np.clip(rho, -1.0, 1.0)
    rho = (rho + rho.T) / 2.0
    np.fill_diagonal(rho, 1.0)

    flagged = tuple((window.tickers[i], window.tickers[j])
                    for i, j in np.argwhere(np.triu(degenerate, 1)))
    return rho, flagged


def distance_from_correlation(rho: np.ndarray, transform: DistanceTransform) -> np.ndarray:
    """Apply a distance transform, validating the correlation matrix."""
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DataError("correlation matrix must be square")
    if np.max(np.abs(rho - rho.T)) > 1e-9:
        raise DataError("correlation matrix must be symmetric")
    if np.max(np.abs(rho)) > 1.0 + 1e-9:
        raise DataError("correlations outside [-1, 1]")
    if np.max(np.abs(np.diag(rho) - 1.0)) > 1e-9:
        raise DataError("correlation diagonal must be 1")
    return transform.apply(np.clip(rho, -1.0, 1.0))


def window_graph(window: PriceMatrix, config: WindowConfig) -> MarketGraph:
    """Filtered correlation network for one window: MST + high-rho edges."""
    rho, dist = _window_arrays(window, config)
    adj = _stack_adjacency((rho >= config.xi)[None], dist[None])[0]
    return _from_edge_mask(window.tickers, adj, dist, rho)


def _window_arrays(window: PriceMatrix, config: WindowConfig):
    """``(rho, dist)`` of one window: its correlations and distances."""
    rho, _ = correlation_matrix(window, config.input_mode)
    return rho, distance_from_correlation(rho, config.transform)


def _stack_adjacency(high: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Symmetric adjacencies of the filtered graphs of a ``(G, n, n)`` stack
    of windows, from their ``rho >= xi`` masks ``high`` and distances: a
    ``high`` pair or a pair of the window's Prim tree, by one stacked
    `_prim`."""
    adj = high.copy()
    adj[:, np.arange(adj.shape[1]), np.arange(adj.shape[1])] = False
    tree = _prim(dist)
    adj[np.arange(len(adj))[:, None, None], tree, tree[..., ::-1]] = True  # (i, j) and (j, i)
    return adj


def _stack_kappa(high: np.ndarray, dist: np.ndarray, config: WindowConfig) -> list:
    """Curvature of each edge (or node pair) of each window's filtered
    graph in a ``(G, n, n)`` stack (see `_stack_adjacency`), in canonical
    order, one array per window: one `_prim`, one `_hops` and one
    `_curvatures` call."""
    adj = _stack_adjacency(high, dist)
    return _curvatures(adj, np.where(adj, dist, 0.0), _hops(adj), config.averaging_mode,
                       config.weighting)


def _stack_curvature(high: np.ndarray, dist: np.ndarray, config: WindowConfig) -> list:
    return [(float(np.mean(kappa)), ()) for kappa in _stack_kappa(high, dist, config)]


def _pair_bound(high: np.ndarray, config: WindowConfig) -> int:
    """Most pairs a window's graph can score, known before its tree: its
    ``rho >= xi`` pairs (``high``, diagonal included) plus ``n - 1`` tree
    edges, or all pairs."""
    n = len(high)
    if config.averaging_mode == "pairs":
        return n * (n - 1) // 2
    return (int(np.count_nonzero(high)) - n) // 2 + n - 1


def _points_for_starts(prices: PriceMatrix, config: WindowConfig, stack_values,
                       starts: range):
    """(label, value, extra, note) per window start in ``starts``.

    Slicing, correlation and distance run per window inside the error
    boundary: a window where some ticker has no observation at all, or a
    pair too few, is a data problem scoped to that window, so it gaps the
    point instead of aborting the series. The windows that pass are cut,
    in order, into stacks whose memory estimate (bounded pairs plus a term
    for the ``(n, n)`` arrays, see `_STACK_BUDGET`) fits the budget, a
    larger window alone, and `_stack_points` solves each stack.
    """
    points, stack, load = {}, [], 0
    for k in starts:
        label = prices.dates[k + config.T - 1]
        try:
            rho, dist = _window_arrays(prices.window(k, k + config.T), config)
        except DataError as exc:
            points[k] = (label, float("nan"), (), f"{label}: {exc}")
            continue
        high = rho >= config.xi
        cost = _pair_bound(high, config) + high.size // 25
        if stack and load + cost > _STACK_BUDGET:
            points.update(_stack_points(stack, config, stack_values))
            stack, load = [], 0
        stack.append((k, label, high, dist))
        load += cost
    if stack:
        points.update(_stack_points(stack, config, stack_values))
    return [points[k] for k in starts]


def _stack_points(stack: list, config: WindowConfig, stack_values) -> dict:
    """Start -> (label, value, extra, note) of each window of ``stack``, a
    list of ``(start, label, high, dist)``, from one ``stack_values`` call
    on the stacked arrays. A ``DataError`` there re-runs the windows as
    stacks of one, so only a failing window gaps, with a dated note."""
    try:
        values = stack_values(np.stack([s[2] for s in stack]), np.stack([s[3] for s in stack]),
                              config)
    except DataError as exc:
        if len(stack) == 1:
            k, label = stack[0][:2]
            return {k: (label, float("nan"), (), f"{label}: {exc}")}
        points = {}
        for s in stack:
            points.update(_stack_points([s], config, stack_values))
        return points
    return {k: (label, value, extra, None)
            for (k, label, _, _), (value, extra) in zip(stack, values)}


def _rolling_series(prices: PriceMatrix, config: WindowConfig, stack_values,
                    jobs: int = 1):
    """Roll ``stack_values(high, dist, config)``, a ``(value, extra)`` per
    window of a ``(G, n, n)`` stack of ``rho >= xi`` masks and distances,
    over the panel's windows (see `_points_for_starts`).

    Returns ``(series, extras)``, one point per window-end date and one
    extra per window (``()`` for a gap, which a ``DataError`` makes, with
    a dated note). ``jobs > 1`` needs a picklable ``stack_values``.
    """
    if prices.n_dates < config.T + 1:
        raise ConfigError(
            f"panel has {prices.n_dates} rows; need at least T + 1 = {config.T + 1}")
    if prices.n_tickers < 2:
        raise DataError("need at least two tickers")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")

    count = prices.n_dates - config.T + 1
    if jobs == 1 or count < 4:
        points = _points_for_starts(prices, config, stack_values, range(count))
    else:
        # Strided starts: cost varies by regime along the panel, so each
        # worker gets a share of every stretch instead of one block.
        jobs = min(jobs, count)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_points_for_starts, prices, config, stack_values,
                                   range(j, count, jobs)) for j in range(jobs)]
            parts = [f.result() for f in futures]
        points = [parts[k % jobs][k // jobs] for k in range(count)]

    series = IndicatorSeries(dates=tuple(p[0] for p in points),
                             values=tuple(p[1] for p in points), config=config,
                             notes=tuple(p[3] for p in points if p[3] is not None))
    return series, tuple(p[2] for p in points)


def indicator_series(prices: PriceMatrix, config: WindowConfig,
                     jobs: int = 1) -> IndicatorSeries:
    """Roll the window over the panel, one value per window-end date.

    Requires at least ``T + 1`` rows so the series has two or more
    points. ``jobs > 1`` deals the windows out across processes; the
    result is identical to the serial run.
    """
    series, _ = _rolling_series(prices, config, _stack_curvature, jobs)
    return series


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------


def write_series_csv(series: IndicatorSeries, path) -> None:
    """Two columns, ``date,value``; gaps are written as ``nan``."""
    with open(path, "w", newline="") as fh:
        fh.write("date,value\n")
        for d, v in zip(series.dates, series.values):
            fh.write(f"{d},{'nan' if np.isnan(v) else repr(v)}\n")


def write_series_json(series: IndicatorSeries, path) -> None:
    """Config plus dated records; gaps serialise as JSON null."""
    payload = {
        "config": series.config.to_dict(),
        "series": [
            {"date": d, "value": (None if np.isnan(v) else v)}
            for d, v in zip(series.dates, series.values)
        ],
        "notes": list(series.notes),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _sweep_label(parameter: str, value) -> str:
    """Column label of one sweep value in `write_sweep_csv`."""
    return f"{parameter}={value:g}"


def write_sweep_csv(series_by_value: dict, path, parameter: str) -> None:
    """Column-aligned sweep table: ``date`` plus one column per value."""
    items = list(series_by_value.items())
    if not items:
        raise ConfigError("empty sweep")
    dates = items[0][1].dates
    for _, s in items:
        if s.dates != dates:
            raise DataError("sweep series are not column-aligned")
    with open(path, "w", newline="") as fh:
        fh.write("date," + ",".join(_sweep_label(parameter, v) for v, _ in items) + "\n")
        for i, d in enumerate(dates):
            cells = [d]
            for _, s in items:
                v = s.values[i]
                cells.append("nan" if np.isnan(v) else repr(v))
            fh.write(",".join(cells) + "\n")
