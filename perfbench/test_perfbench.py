"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Every workload runs end to end at minimal size, traced and untraced; the
correctness gate must notice a 1e-9 shift in one window's value; and the
benchmark must refuse to run where there is no library source.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from ricci_fragility import MarketGraph, hop_distances, node_measure  # noqa: E402


def minimal(name):
    spec = wl.WORKLOADS[name]
    if spec.kind == "bounds":
        return dataclasses.replace(spec, calls=2, trials=3)
    return dataclasses.replace(spec, calls=1, panel=2)


@pytest.fixture(scope="module")
def declared():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_runs_at_minimal_size(monkeypatch, declared, name, trace):
    monkeypatch.setitem(wl.WORKLOADS, name, minimal(name))
    result, log = run.measure(name, seed=3, seconds=1e-6, trace=bool(trace), probes=0)
    assert result["correct"] and result["failed"] == 0
    assert log["reps"] == 1
    assert result["attempted"] == log["items_per_rep"] * (log["reps"] + trace) > 0
    assert set(result["metrics"]) == declared[trace]
    for m in result["metrics"].values():
        assert np.isfinite(m["value"]) and m["unit"]


def test_counts_repeat_exactly():
    spec = minimal("rolling-calm")
    inputs = wl.make_inputs(spec, 5)
    runs = [tracing.counts(spec, *tracing.traced_items(spec, inputs, tracing.Recorder(calibration.Kernel())))
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0]["transport.pairs"] == runs[0]["graphs.edges"] > 0


@pytest.mark.parametrize("name", ["rolling-calm", "subsample"])
def test_window_shifted_by_1e_9_fails(name):
    spec = minimal(name)
    inputs = wl.make_inputs(spec, 0)
    outputs = [fn() for fn in wl.calls(spec, inputs)]
    reference = checks.load_reference()
    assert checks.check(spec, inputs, outputs, reference) == [True, True]

    first = outputs[0] if spec.kind == "rolling" else outputs[0][0]
    values = list(first.values)
    values[1] += 1e-9
    shifted = dataclasses.replace(first, values=tuple(values))
    outputs[0] = shifted if spec.kind == "rolling" else (shifted, outputs[0][1])
    assert checks.check(spec, inputs, outputs, reference) == [True, False]


def test_raising_call_fails_all_its_items(monkeypatch):
    monkeypatch.setitem(wl.WORKLOADS, "rolling-calm", minimal("rolling-calm"))

    def solver_failure():
        raise RuntimeError("transport LP failed")

    monkeypatch.setattr(wl, "calls", lambda spec, inputs: [solver_failure])
    result, _ = run.measure("rolling-calm", seed=0, seconds=1e-6, trace=False, probes=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2


def test_bounds_gate_fails_sound_bounds_only():
    spec = minimal("bounds")
    inputs = wl.make_inputs(spec, 0)
    outputs = [fn() for fn in wl.calls(spec, inputs)]
    reference = checks.load_reference()
    assert all(checks.check(spec, inputs, outputs, reference))
    result = outputs[0]
    reports = list(result.reports)
    i = next(i for i, r in enumerate(reports) if r.bound_name == "prop1_first")
    reports[i] = dataclasses.replace(reports[i], satisfied=False)
    j = next(j for j, r in enumerate(reports) if r.bound_name == "lemma_node")
    reports[j] = dataclasses.replace(reports[j], satisfied=False)
    outputs[0] = dataclasses.replace(result, reports=tuple(reports))
    assert checks.check(spec, inputs, outputs, reference).count(False) == 1


def test_lp_matches_library_on_a_crisis_window():
    spec = wl.WORKLOADS["rolling-crisis"]
    panel = wl.make_inputs(dataclasses.replace(spec, calls=1), 0)[0]
    assert checks.sampled_edges_agree(panel.prices.window(0, wl.T), panel.start)


def _path(n):
    edges = tuple((i, i + 1) for i in range(n - 1))
    return MarketGraph(nodes=tuple(range(n)), edges=edges, weights=dict.fromkeys(edges, 1.0))


@pytest.mark.parametrize("graph,a,b,expected", [
    (_path(3), 0, 2, 0),   # both measures sit on node 1
    (_path(3), 0, 1, 1),   # residuals {1} -> {0, 2}: all at distance 1
    (_path(4), 1, 2, 2),   # {0, 2} -> {1, 3}: distances 1 and 3
    (_path(6), 1, 4, 3),   # {0, 2} -> {3, 5}: distances 1, 3, 5
])
def test_residual_class(graph, a, b, expected):
    hop = hop_distances(graph)
    mu, nu = (node_measure(graph, v, "uniform") for v in (a, b))
    assert tracing.residual_class(mu, nu, hop) == expected


@pytest.mark.parametrize("n,level", [(8, 100), (10, 100), (16, 37), (400, 97)])
def test_tail_level_leaves_ten_samples_beyond(n, level):
    assert tracing.tail_level(n) == level
    xs = list(range(n))
    if n > 10:
        assert sum(x > tracing._quantile(xs, level) for x in xs) >= 10


def test_workload_names_match():
    assert run.WORKLOAD_NAMES == tuple(wl.WORKLOADS)


def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bounds",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
