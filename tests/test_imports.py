"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import ricci_fragility

MODULES = sorted(p for p in Path(ricci_fragility.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
