"""Source hygiene: every name a module, test or demo imports is used or
re-exported."""

import ast
from pathlib import Path

import pytest

import veneroni

SRC = Path(veneroni.__file__).parent
TESTS = Path(__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(TESTS.glob("test_*.py"))
MODULES += sorted((TESTS.parent / "demos").glob("*.py"))


def unused_imports(tree):
    """Names bound by an import statement that the module never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c as d\n__all__ = ['b']\nos.sep\n")
    assert unused_imports(tree) == ["d"]
