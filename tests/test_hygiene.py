"""Source hygiene: every name a module, test or demo imports is used or
re-exported, and the package's modules import one another in layers."""

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


# each module may import only the modules before it, and the package
# `__init__` (for `__version__`), which itself imports only `scalar`
LAYERS = ("scalar", "mpoly", "exactla", "projgeo", "maps", "checks", "cli")


def package_imports(tree):
    """Modules of the package that a module imports by relative import;
    "__init__" stands for the package itself."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is not None:
                out.add(node.module)
            else:
                out.update(a.name if a.name in LAYERS else "__init__" for a in node.names)
    return out


def function_imports(tree):
    """Line numbers of import statements inside a function body."""
    return sorted(
        inner.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    )


@pytest.mark.parametrize("name", ("__init__",) + LAYERS)
def test_modules_import_in_layers(name):
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    if name == "__init__":
        allowed = {"scalar"}
    else:
        allowed = {"__init__", *LAYERS[: LAYERS.index(name)]}
    assert package_imports(tree) <= allowed
    assert function_imports(tree) == []


def test_layer_scan_sees_a_late_or_nested_import():
    tree = ast.parse(
        "from . import __version__, maps\n"
        "from .checks import run_suite\n"
        "def f():\n    from itertools import combinations\n"
    )
    assert package_imports(tree) == {"__init__", "maps", "checks"}
    assert function_imports(tree) == [4]
