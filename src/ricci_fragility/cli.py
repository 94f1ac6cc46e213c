"""Command-line front end.

Four subcommands cover the library surface:

* ``indicator``  — rolling average-curvature series for one config;
* ``sweep``      — the same series across a xi or T grid, written as one
  aligned multi-column CSV (T sweeps also emit per-T ACF files);
* ``bounds``     — the random perturbation-bound suite, or the sharpness
  family via ``--family kn-minus-edge``;
* ``subsample``  — the extremal-subgraph variant of the indicator.

Every run writes a ``<output stem>.config.json`` artifact capturing the
fully resolved configuration, so a run can be reproduced bit-for-bit.

Exit codes are stable: 0 success; 2 configuration/usage error; 3 I/O
error; 4 data-quality error; 5 bound violation (``bounds`` only).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .bounds import run_bounds_suite, sharpness_reports
from .diagnostics import autocorrelation, t_sweep, write_acf_csv, xi_sweep
from .errors import ConfigError, DataError
from .indicator import (
    DistanceTransform,
    WindowConfig,
    indicator_series,
    write_series_csv,
    write_series_json,
    write_sweep_csv,
)
from .ingestion import load_price_csv
from .subsample import SubsampleConfig, subsample_indicator_series
from .synthetic import SCENARIOS, make
from .transport import AVERAGING_MODES, WEIGHTINGS

EXIT_OK = 0
EXIT_CONFIG = 2  # argparse exits with 2 on usage errors as well
EXIT_IO = 3
EXIT_DATA = 4
EXIT_BOUND_VIOLATION = 5

#: Environment variable supplying the default for --jobs.
JOBS_ENV = "RICCI_FRAGILITY_JOBS"

#: Tolerance for "slack is zero" in the sharpness family report.
SHARPNESS_TOL = 1e-9

_RETURNS_TO_MODE = {"raw": "raw_price", "log": "log_return"}


def _default_jobs() -> int:
    raw = os.environ.get(JOBS_ENV, "1")
    try:
        jobs = int(raw)
    except ValueError:
        raise ConfigError(f"{JOBS_ENV}={raw!r} is not an integer") from None
    return jobs


def _load_panel(args):
    if (args.input is None) == (args.synthetic is None):
        raise ConfigError("provide exactly one of --input or --synthetic")
    if args.synthetic is not None:
        return make(args.synthetic)
    return load_price_csv(args.input)


def _window_config(args) -> WindowConfig:
    return WindowConfig(
        T=args.T,
        xi=args.xi,
        transform=DistanceTransform.parse(args.distance),
        averaging_mode=args.mode,
        weighting=args.weighting,
        input_mode=_RETURNS_TO_MODE[args.returns],
    )


def _stem(path: str) -> str:
    return os.path.splitext(path)[0]


def _write_json(payload: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_config_artifact(args, extra: dict) -> None:
    payload = {
        "version": __version__,
        "command": args.command,
        "input": args.input if getattr(args, "input", None) else None,
        "synthetic": getattr(args, "synthetic", None),
        "output": args.output,
    }
    payload.update(extra)
    _write_json(payload, _stem(args.output) + ".config.json")


def _write_series(series, path: str) -> None:
    ext = os.path.splitext(path)[1].lower()
    if ext == ".json":
        write_series_json(series, path)
    elif ext == ".csv":
        write_series_csv(series, path)
    else:
        raise ConfigError(f"output must end in .csv or .json, got {path!r}")


def _parse_grid(text: str, kind):
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"empty grid {text!r}")
    try:
        return [kind(part) for part in items]
    except ValueError:
        raise ConfigError(f"bad grid value in {text!r}") from None


def _parse_n_range(text: str):
    text = text.strip()
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise ConfigError(f"bad range {text!r}; expected like 4..10") from None
        if lo > hi:
            raise ConfigError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return _parse_grid(text, int)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_indicator(args) -> int:
    prices = _load_panel(args)
    config = _window_config(args)
    series = indicator_series(prices, config, jobs=args.jobs)
    _write_series(series, args.output)
    _write_config_artifact(args, {"window": config.to_dict(), "jobs": args.jobs})
    print(f"indicator: {len(series.values)} windows, {series.gap_count()} gaps "
          f"-> {args.output}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if os.path.splitext(args.output)[1].lower() != ".csv":
        raise ConfigError("sweep output must be a .csv path")
    prices = _load_panel(args)
    config = _window_config(args)
    if args.sweep == "xi":
        grid = _parse_grid(args.grid, float)
        swept = xi_sweep(prices, config, grid, jobs=args.jobs)
        write_sweep_csv(swept, args.output, parameter="xi")
    else:
        grid = _parse_grid(args.grid, int)
        swept = t_sweep(prices, config, grid, jobs=args.jobs)
        write_sweep_csv(swept, args.output, parameter="T")
        for T, series in sorted(swept.items()):
            max_lag = min(40, len(series.values) - 1)
            if max_lag < 1:
                print(f"sweep: series for T={T} too short for ACF", file=sys.stderr)
                continue
            try:
                acf = autocorrelation(series, max_lag=max_lag)
            except DataError as exc:
                print(f"sweep: no ACF for T={T}: {exc}", file=sys.stderr)
                continue
            write_acf_csv(acf, f"{_stem(args.output)}.acf_T{T}.csv")
    _write_config_artifact(args, {
        "window": config.to_dict(),
        "sweep": args.sweep,
        "grid": grid,
        "jobs": args.jobs,
    })
    print(f"sweep: {args.sweep} over {grid} -> {args.output}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    if os.path.splitext(args.output)[1].lower() != ".json":
        raise ConfigError("bounds output must be a .json path")
    if args.family is not None:
        n_values = _parse_n_range(args.n)
        rows = []
        worst = 0.0
        for n in n_values:
            reports = sharpness_reports(n)
            max_abs = max(abs(r.slack) for r in reports)
            worst = max(worst, max_abs)
            rows.append({"n": n, "pairs": len(reports), "max_abs_slack": max_abs})
        ok = worst <= SHARPNESS_TOL
        _write_json({
            "family": args.family,
            "n_values": n_values,
            "rows": rows,
            "max_abs_slack": worst,
            "all_within_tolerance": ok,
        }, args.output)
        _write_config_artifact(args, {"family": args.family, "n": args.n})
        print(f"bounds: sharpness family n={n_values}, max |slack| = {worst:.3e}")
        return EXIT_OK if ok else EXIT_BOUND_VIOLATION

    result = run_bounds_suite(trials=args.trials, seed=args.seed,
                              weighting=args.weighting)
    violations = result.violations()
    _write_json({
        "trials": result.trials,
        "seed": result.seed,
        "weighting": result.weighting,
        "summary": result.summary(),
        "violations": [
            {
                "bound": r.bound_name,
                "lhs": r.lhs,
                "rhs": r.rhs,
                "slack": r.slack,
                "pair": list(r.pair),
                "instance": r.instance_label,
            }
            for r in violations
        ],
    }, args.output)
    _write_config_artifact(args, {
        "trials": args.trials,
        "seed": args.seed,
        "weighting": args.weighting,
    })
    print(f"bounds: {result.trials} instances, {len(violations)} violations "
          f"-> {args.output}")
    return EXIT_OK if not violations else EXIT_BOUND_VIOLATION


def cmd_subsample(args) -> int:
    prices = _load_panel(args)
    config = _window_config(args)
    sub_config = SubsampleConfig(m=args.m, objective=args.objective,
                                 seed=args.seed, restarts=args.restarts)
    series, subsets = subsample_indicator_series(prices, config, sub_config)
    _write_series(series, args.output)
    _write_json({
        "subsets": [
            {"date": d, "nodes": list(s)}
            for d, s in zip(series.dates, subsets)
        ],
    }, _stem(args.output) + ".subsets.json")
    _write_config_artifact(args, {
        "window": config.to_dict(),
        "subsample": sub_config.to_dict(),
    })
    print(f"subsample: m={args.m} {args.objective}, {len(series.values)} windows, "
          f"{series.gap_count()} gaps -> {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ricci-fragility",
        description="Average Ollivier-Ricci curvature of rolling correlation networks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--input", help="long-format price CSV (date,ticker,close)")
    data.add_argument("--synthetic", choices=sorted(SCENARIOS),
                      help="generate a fixed-seed synthetic panel instead of --input")

    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--T", type=int, default=132, help="window length in rows")
    window.add_argument("--xi", type=float, default=0.85,
                        help="correlation threshold for edge augmentation")
    window.add_argument("--distance", default="sqrt",
                        help="distance transform: sqrt, power:<p>, or log1p")
    window.add_argument("--mode", choices=AVERAGING_MODES, default="edges",
                        help="average curvature over edges or all node pairs")
    window.add_argument("--weighting", choices=WEIGHTINGS, default="edge_weight",
                        help="neighbor measure weighting")
    window.add_argument("--returns", choices=sorted(_RETURNS_TO_MODE), default="raw",
                        help="correlate raw prices or log returns")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", required=True, help="output file (.csv or .json)")

    # subsample runs serially, so only the rolling commands take --jobs.
    parallel = argparse.ArgumentParser(add_help=False)
    parallel.add_argument("--jobs", type=int, default=None,
                          help=f"parallel workers (default ${JOBS_ENV} or 1)")

    p_ind = sub.add_parser("indicator", parents=[data, window, common, parallel],
                           help="rolling indicator series")
    p_ind.set_defaults(func=cmd_indicator)

    p_sweep = sub.add_parser("sweep", parents=[data, window, common, parallel],
                             help="indicator series across a xi or T grid")
    p_sweep.add_argument("--sweep", choices=("xi", "T"), required=True,
                         help="parameter to sweep")
    p_sweep.add_argument("--grid", required=True,
                         help="comma-separated grid, e.g. 0.75,0.8,0.85,0.9")
    p_sweep.set_defaults(func=cmd_sweep)

    p_bounds = sub.add_parser("bounds", help="perturbation-bound suite")
    p_bounds.add_argument("--output", required=True, help="report file (.json)")
    p_bounds.add_argument("--trials", type=int, default=1000,
                          help="number of random instances")
    p_bounds.add_argument("--seed", type=int, default=0)
    p_bounds.add_argument("--weighting", choices=WEIGHTINGS, default="edge_weight")
    p_bounds.add_argument("--family", choices=("kn-minus-edge",),
                          help="run a closed-form sharpness family instead")
    p_bounds.add_argument("--n", default="4..10",
                          help="family sizes, e.g. 4..10 or 4,6,8")
    p_bounds.set_defaults(func=cmd_bounds)

    p_sub = sub.add_parser("subsample", parents=[data, window, common],
                           help="indicator on extremal m-node subgraphs")
    p_sub.add_argument("--m", type=int, required=True, help="subgraph size")
    p_sub.add_argument("--objective", choices=("minimize", "maximize"),
                       default="minimize")
    p_sub.add_argument("--seed", type=int, default=0)
    p_sub.add_argument("--restarts", type=int, default=20,
                       help="additional random restarts for the local search")
    p_sub.set_defaults(func=cmd_subsample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "jobs") and args.jobs is None:
            args.jobs = _default_jobs()
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
