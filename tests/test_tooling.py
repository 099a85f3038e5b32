"""Repository hygiene: every import in the package is used, and the
committed script still runs."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# __init__.py is exempt: its imports are the package's re-exports.
MODULES = sorted(p for p in (ROOT / "src" / "scvm").glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names a module imports but never mentions again."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    src = "import os, sys\nfrom a.b import c as d, e\nfrom __future__ import annotations\nprint(sys, e)"
    assert unused_imports(src) == ["d", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_demo_aliasing_script_succeeds(capsys):
    path = ROOT / "scripts" / "demo_aliasing.py"
    spec = importlib.util.spec_from_file_location("demo_aliasing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main() == 0
    assert "checked twin: 0 warning(s); unchecked twin: 1 warning(s)" in capsys.readouterr().out
