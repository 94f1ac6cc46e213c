"""Every name a library module imports is used in that module, and every
private module-level function or constant is used somewhere in the
package."""

import ast
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
