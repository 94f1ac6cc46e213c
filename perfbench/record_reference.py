"""Record the outputs every workload is checked against.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: the indicator value of every window
the rolling workloads can draw, the subset and value of every window the
subsample workload can draw, and the bounds summary at the default seed.
Run it only on a commit whose outputs are known good; it takes about
seven minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from ricci_fragility import (  # noqa: E402
    indicator_series,
    regime_switch,
    run_bounds_suite,
    subsample_indicator_series,
)

REFERENCE = HERE / "reference.json"

#: The bounds reference is recorded at this workload seed only.
BOUNDS_SEED = 0


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _windows(corpus, first: int, last: int) -> dict:
    series = indicator_series(corpus.window(first, last + wl.T), wl.CONFIG)
    return {str(first + j): [d, v] for j, (d, v) in enumerate(zip(series.dates, series.values))}


def record_bounds() -> dict:
    spec = wl.WORKLOADS["bounds"]
    suites = wl.make_inputs(spec, BOUNDS_SEED)
    return {"suites": [list(s) for s in suites], "trials": spec.trials,
            "summaries": [run_bounds_suite(spec.trials, s, w).summary() for s, w in suites]}


def main() -> int:
    corpus = regime_switch()
    windows = {}
    for name in ("rolling-calm", "rolling-crisis"):
        spec = wl.WORKLOADS[name]
        windows.update(_windows(corpus, spec.first, spec.last))
        print(f"{name}: {len(windows)} windows recorded", flush=True)

    spec = wl.WORKLOADS["subsample"]
    series, subsets = subsample_indicator_series(
        corpus.window(spec.first, spec.last + wl.T), wl.CONFIG, wl.SUB_CONFIG)
    subsample = {str(spec.first + j): [d, v, list(s)]
                 for j, (d, v, s) in enumerate(zip(series.dates, series.values, subsets))}
    print(f"subsample: {len(subsample)} windows recorded", flush=True)

    bounds = record_bounds()

    payload = {
        "commit": _commit(),
        "window_config": wl.CONFIG.to_dict(),
        "subsample_config": wl.SUB_CONFIG.to_dict(),
        "windows": windows,
        "subsample": subsample,
        "bounds": bounds,
    }
    with open(REFERENCE, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
