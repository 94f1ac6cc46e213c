"""Every name a library module imports is used in that module, every
private module-level function or constant is used somewhere in the
package, and SciPy is loaded only when a transport LP runs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ricci_fragility

PACKAGE = sorted(Path(ricci_fragility.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_detector_flags_an_unused_import():
    source = "import json\nfrom dataclasses import dataclass, field\n@dataclass\nclass A: pass\n"
    assert _unused_imports(source) == ["field", "json"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _dead_private_names(sources: dict) -> list:
    """Private module-level functions and constants of ``sources`` (name
    -> source) that no module reads, as ``module:name``."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted(f"{module}:{name}" for module, name in defined
                  if name.startswith("_") and not name.startswith("__") and name not in used)


def test_detector_flags_a_dead_private_name():
    sources = {
        "a": "_LIMIT = 3\n_SPARE: int = 4\n_IMPORTED = 5\n"
             "def _used(x):\n    return x < _LIMIT\n"
             "def _called():\n    pass\ndef _dead():\n    pass\n"
             "def public():\n    return _used(1)\n",
        "b": "from . import a\nfrom .a import _IMPORTED\n"
             "def _orphan():\n    return a._called(), _IMPORTED\n",
    }
    assert _dead_private_names(sources) == ["a:_SPARE", "a:_dead", "b:_orphan"]


def test_package_has_no_dead_private_names():
    assert _dead_private_names({p.stem: p.read_text() for p in PACKAGE}) == []


#: The exact W1 engine's block routine and pooling keys: every caller goes
#: through `transport._w1_rows`.
ENGINE_NAMES = ("_w1_block", "_code_planes", "_packed")


def _engine_names_outside(sources: dict, home: str = "transport") -> list:
    """``module:name`` for each `ENGINE_NAMES` entry that a module of
    ``sources`` (name -> source) other than ``home`` defines, imports or
    reads."""
    found = set()
    for module, source in sources.items():
        if module == home:
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            else:
                continue
            found.update(f"{module}:{name}" for name in names if name in ENGINE_NAMES)
    return sorted(found)


def test_detector_flags_engine_names_outside_transport():
    sources = {
        "transport": "def _w1_block():\n    return _packed(_code_planes())\n",
        "bounds": "from .transport import _w1_block as solve, _w1_rows\n",
        "graphs": "def _code_planes(stack):\n    return stack\n",
        "subsample": "from . import transport\nkeys = transport._packed\n",
        "indicator": "def _curvatures():\n    return _w1_rows()\n",
    }
    assert _engine_names_outside(sources) == ["bounds:_w1_block", "graphs:_code_planes",
                                              "subsample:_packed"]


def test_engine_names_live_only_in_transport():
    assert _engine_names_outside({p.stem: p.read_text() for p in PACKAGE}) == []


def _module_level_scipy_imports(source: str) -> list:
    """Line numbers of the ``import scipy...`` and ``from scipy... import``
    statements of ``source`` that run on import: those outside any
    function body."""
    found, todo = [], list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        if any(m.split(".")[0] == "scipy" for m in modules):
            found.append(node.lineno)
        todo.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_detector_flags_module_level_scipy_imports():
    source = ("import numpy as np\nimport scipy.sparse\nfrom scipy.optimize import linprog\n"
              "if np:\n    import scipy as sp\nclass A:\n    from scipy import stats\n"
              "def f():\n    from scipy.optimize import linprog\n    return linprog\n"
              "import scipyx\nfrom . import scipy\n")
    assert _module_level_scipy_imports(source) == [2, 3, 5, 7]


# SciPy serves only the rare transport LP, so importing the package or
# running the common paths must not pay for loading it.
@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_module_imports_no_scipy_at_module_level(path):
    assert _module_level_scipy_imports(path.read_text()) == []


RUNS_WITHOUT_SCIPY = """
import json, sys
from ricci_fragility import WindowConfig, indicator_series, regime_switch, run_bounds_suite

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {"import": scipy_modules()}
indicator_series(regime_switch().window(260, 410), WindowConfig())
loaded["indicator_series"] = scipy_modules()
run_bounds_suite(trials=20)
loaded["run_bounds_suite"] = scipy_modules()
print(json.dumps(loaded))
"""


def _fresh_run(source: str) -> str:
    """Standard output of ``source`` run in a fresh interpreter, as this
    pytest process has SciPy and ``numpy.ma`` loaded already."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(PACKAGE[0].parents[1]), os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", source], env=env, capture_output=True,
                          text=True, timeout=300, check=True).stdout


def test_package_runs_without_loading_scipy():
    assert json.loads(_fresh_run(RUNS_WITHOUT_SCIPY)) == {
        "import": [], "indicator_series": [], "run_bounds_suite": []}


# `np.unique` imports `numpy.ma` on its first call in a process, which
# `tracemalloc` charged (about 1.1 MB) to whichever memory test called the
# engine first, so the library must not call it on these paths.
RUNS_WITHOUT_NUMPY_MA = """
import sys
from ricci_fragility import (SubsampleConfig, WindowConfig, indicator_series, regime_switch,
                             run_bounds_suite, subsample_indicator_series)

panel = regime_switch().window(360, 500)
indicator_series(panel, WindowConfig())
run_bounds_suite(3)
subsample_indicator_series(panel, WindowConfig(), SubsampleConfig(m=5, restarts=0, max_iters=1))
print("numpy.ma" in sys.modules)
"""


def test_package_runs_without_loading_numpy_ma():
    assert _fresh_run(RUNS_WITHOUT_NUMPY_MA).split() == ["False"]
