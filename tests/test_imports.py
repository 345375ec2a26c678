"""Every module imports only names it reads, and every private helper of
the package is read somewhere in it."""

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


def private_defs(path: Path) -> set[str]:
    """Functions, methods and classes defined in the module at path whose
    name starts with one underscore."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def read_names(paths) -> set[str]:
    """Every name loaded, and every attribute read, in the modules at paths."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add(node.attr)
    return out


def unread_private_defs(package: Path) -> list[str]:
    """Private helpers defined in the package's modules and read nowhere
    in the package, as module:name."""
    paths = sorted(package.glob("*.py"))
    read = read_names(paths)
    return sorted(f"{path.name}:{name}" for path in paths
                  for name in private_defs(path) - read)


def test_every_private_helper_is_read():
    assert unread_private_defs(ROOT / "src" / "rotdist") == []


def test_the_scan_finds_an_unread_private_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    pass\n\n"
        "def _dead():\n    pass\n\n"
        "class _Gone:\n    def _method(self):\n        pass\n"
        "    def __repr__(self):\n        return ''\n\n"
        "def public():\n    return _used\n")
    (tmp_path / "b.py").write_text("from .c import _Imported\n\nx.y._method(_Imported)\n")
    (tmp_path / "c.py").write_text("class _Imported:\n    pass\n")
    assert unread_private_defs(tmp_path) == ["a.py:_Gone", "a.py:_dead"]
