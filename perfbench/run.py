"""Benchmark of the ricci_fragility library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory, so nothing needs installing. Each run sets up (import,
inputs from the seed, HiGHS warm-up), repeats the workload's top-level
library calls for ``--seconds`` seconds (at least once), serial and
untraced, then checks every output for correctness
outside the timed region. Every time is rescaled to nominal machine
speed with the calibration kernel timed around it (see calibration.py).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of five
set-ups, four of them in fresh interpreters), ``wall_s`` (one repetition
of the workload's calls, each call at its median over the repetitions)
and ``peak_rss_mb``. ``--trace 1`` also re-runs the workload once layer
by layer and reports the per-layer metrics instead. Items whose output
fails the check are counted in ``failed`` out of ``attempted``.

Every metric is printed by name and unit, after a line recording the
environment; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: The keys of ``workloads.WORKLOADS``, repeated here because importing
#: that module imports numpy, which must happen inside the timed set-up.
WORKLOAD_NAMES = ("rolling-calm", "rolling-crisis", "subsample", "bounds")

#: Set-ups timed in fresh interpreters, besides the run's own.
SETUP_PROBES = 4

EXIT_USAGE = 2

#: Serial means one thread too: these pin the BLAS pools numpy and scipy
#: load, for this process and the set-up probes it starts.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def probe_setup(name: str, seed: int) -> tuple:
    """(set-up seconds, kernel seconds right after) from a fresh interpreter."""
    out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
                         cwd=HERE.parent, capture_output=True, text=True, timeout=120,
                         check=True)
    setup_s, kernel_s = out.stdout.split()[-2:]
    return float(setup_s), float(kernel_s)


def environment(loadavg) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "loadavg_at_start": list(loadavg)}


def _timed_reps(fns, seconds: float, kernel):
    """Repeat the workload's calls until ``seconds`` have passed (at least
    once), timing the calibration kernel just before and after each call. A call that raises leaves ``None`` as its output.
    Returns per-repetition lists of raw call times, of call times at
    nominal speed and of outputs."""
    raw, times, outputs = [], [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        rep_raw, rep_times, rep_outputs = [], [], []
        for fn in fns:
            before = kernel.sample()
            t0 = time.perf_counter()
            try:
                out = fn()
            except Exception:
                traceback.print_exc()
                out = None
            elapsed = time.perf_counter() - t0
            rep_raw.append(elapsed)
            rep_times.append(elapsed * kernel.scale(before, kernel.sample()))
            rep_outputs.append(out)
        raw.append(rep_raw)
        times.append(rep_times)
        outputs.append(rep_outputs)
    return raw, times, outputs


def _failures(flags, first_rows, rows) -> int:
    """Items of ``rows`` that differ from a checked first repetition or
    whose counterpart there failed its check."""
    if rows is None or len(rows) != len(first_rows):
        return len(flags)
    return sum(1 for ok, a, b in zip(flags, first_rows, rows) if not (ok and a == b))


def measure(name: str, seed: int, seconds: float, trace: bool,
            probes: int = SETUP_PROBES) -> tuple:
    """One benchmark run; returns the result object and a log of details."""
    t0 = time.perf_counter()
    import workloads as wl

    spec, inputs = wl.setup(name, seed)
    setup_raw = time.perf_counter() - t0

    import calibration

    kernel = calibration.Kernel()
    setups = [(setup_raw, kernel.sample())]
    if not trace:
        setups += [probe_setup(name, seed) for _ in range(probes)]

    import checks
    import tracing

    raw, times, outputs = _timed_reps(wl.calls(spec, inputs), seconds, kernel)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Each call's median over the repetitions, summed: one repetition at
    # nominal machine speed.
    wall_s = sum(statistics.median(per_call) for per_call in zip(*times))

    n = wl.item_count(spec, inputs)
    flags = checks.check(spec, inputs, outputs[0], checks.load_reference())
    first_rows = wl.items(spec, inputs, outputs[0])
    failed = flags.count(False)
    for out in outputs[1:]:
        failed += _failures(flags, first_rows, wl.items(spec, inputs, out))
    attempted = n * len(outputs)
    log = {"items_per_rep": n, "reps": len(times), "raw_call_s": raw, "setups_raw_s": setups}

    if not trace:
        setup_s = statistics.median(s * kernel.scale(k, k) for s, k in setups)
        metrics = {"setup_s": (setup_s, "s"),
                   "wall_s": (wall_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        rec = tracing.Recorder(kernel)
        try:
            rows, sources = tracing.traced_items(spec, inputs, rec)
        except Exception:
            traceback.print_exc()
            rows, sources = None, []
        attempted += n
        failed += _failures(flags, first_rows, rows)
        metrics = tracing.layer_metrics(rec, wall_s)
        metrics.update({k: (v, "fraction" if k.endswith("_share") else "count")
                        for k, v in tracing.counts(spec, rows or [], sources).items()})
        log["traced_s"] = rec.total_s

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, log


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "ricci_fragility" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return EXIT_USAGE

    loadavg = os.getloadavg()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    result, log = measure(args.workload, args.seed, args.seconds, bool(args.trace))

    print("env " + json.dumps(environment(loadavg)))
    print(f"run {args.workload} seed={args.seed} trace={args.trace} " + json.dumps(log))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"attempted = {result['attempted']}, failed = {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
