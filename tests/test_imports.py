"""Every module imports only names it reads."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "rotdist").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))

# the benchmark's tracer wraps `fpt.rotate`, so fpt keeps the import
KEPT = {("fpt.py", "rotate")}


def unread_imports(path: Path) -> list[str]:
    """Names bound by an import in the module at path and never read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in bound - read if (path.name, name) not in KEPT)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unread_imports(path):
    assert unread_imports(path) == []


def test_the_scan_finds_an_unread_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import json\nimport os.path\nfrom a import b as c, d\n"
                    "from __future__ import annotations\nprint(os, d)\n")
    assert unread_imports(path) == ["c", "json"]
