"""Source hygiene: every name a module, test or demo imports is used or
re-exported, and the package's modules import one another in layers."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import veneroni
from veneroni import checks, cli, exactla, maps, projgeo
from veneroni.mpoly import Poly

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
    used.update(exported(tree))
    return sorted(imported - used)


def exported(tree):
    """The names a module lists in `__all__`, empty when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c as d\n__all__ = ['b']\nos.sep\n")
    assert unused_imports(tree) == ["d"]


def top_level_names(tree):
    """Names a module binds at its top level: functions, classes,
    assignments and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
    return names


@pytest.mark.parametrize("name", ["__init__", "maps", "projgeo"])
def test_every_export_names_a_definition(name):
    # a helper deleted from a module must leave its `__all__` entry with it
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    assert exported(tree)
    assert sorted(set(exported(tree)) - top_level_names(tree)) == []


def test_export_scan_sees_a_stale_name():
    tree = ast.parse(
        "from a import b\nc = 1\ndef d():\n    e = 2\nclass F:\n    pass\n"
        "__all__ = ['b', 'c', 'd', 'e', 'F', 'g']\n"
    )
    assert sorted(set(exported(tree)) - top_level_names(tree)) == ["e", "g"]


# each module may import only the modules before it, and the package
# `__init__` (for `__version__`), which itself imports only `scalar`
LAYERS = ("scalar", "mpoly", "exactla", "projgeo", "maps", "lattice", "checks", "cli")


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


# ---- every helper of the package has a caller in it ------------------------

DEMOS = TESTS.parent / "demos"
# kept for the benchmark's tracer, which patches them by name, and for the
# tests, which use them as oracles
UNCALLED = {
    "exactla.solve",
    "maps.vanishes_on_flat",
    "mpoly.Poly.exact_div",
}


def definitions(tree):
    """Module-level functions and classes, and the methods of those
    classes other than dunders, as (qualified name, bare name) pairs."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out.extend(
                (f"{node.name}.{m.name}", m.name)
                for m in node.body
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
            )
    return out


def references(tree):
    """Names a module reads outside the body of the module-level definition
    of the same name (so recursion is no use): those read bare, and those
    read as an attribute."""
    bare, attributes = set(), set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id != own:
                bare.add(node.id)
            elif isinstance(node, ast.Attribute) and node.attr != own:
                attributes.add(node.attr)
    return bare, attributes


def unreferenced(defining, readers):
    """Definitions of the `defining` modules ({module: tree}) that no reader
    tree names, as "module.qualified name".  A method is read only as an
    attribute: a local variable or a module of the same name is no use."""
    bare, attributes = set(), set()
    for tree in readers:
        b, a = references(tree)
        bare |= b
        attributes |= a
    return sorted(
        f"{module}.{qualified}"
        for module, tree in defining.items()
        for qualified, name in definitions(tree)
        if name not in attributes and ("." in qualified or name not in bare)
    )


def test_every_function_and_class_of_the_package_is_referenced():
    # a helper only the tests call proves nothing the package relies on
    package = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    demos = [ast.parse(p.read_text(encoding="utf-8")) for p in DEMOS.glob("*.py")]
    assert unreferenced(package, [*package.values(), *demos]) == sorted(UNCALLED)


def test_scan_sees_an_unreferenced_def():
    tree = ast.parse(
        "def used():\n    return 1\n"
        "def recursive(k):\n    return recursive(k - 1)\n"
        "def dead():\n    unread = 1\n    return used() + Box().read() + unread\n"
        "class Box:\n    def __init__(self):\n        self.v = 0\n"
        "    def read(self):\n        return self.v\n"
        "    def unread(self):\n        return self.v\n"
    )
    # the local variable `unread` is read bare, which no method counts
    assert unreferenced({"m": tree}, [tree]) == ["m.Box.unread", "m.dead", "m.recursive"]


# ---- each rng stream has its own scope --------------------------------------


def rng_scopes(tree):
    """The scope of each `seeded_rng` call, its second argument: the string
    when it is a literal, else None."""
    scopes = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "seeded_rng":
                arg = node.args[1] if len(node.args) > 1 else None
                literal = isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                scopes.append(arg.value if literal else None)
    return scopes


def test_each_rng_call_names_its_own_scope():
    # `scalar.seeded_rng` keeps streams independent only while no two call
    # sites share a scope, which a scope passed in as a variable would hide
    scopes = [s for p in SRC.glob("*.py") for s in rng_scopes(ast.parse(p.read_text("utf-8")))]
    assert scopes and None not in scopes
    assert sorted(s for s, count in Counter(scopes).items() if count > 1) == []


def test_scope_scan_sees_a_variable_or_missing_scope():
    tree = ast.parse("seeded_rng(1, 'a', 2)\nscalar.seeded_rng(2, scope)\nseeded_rng(3)\n")
    assert rng_scopes(tree) == ["a", None, None]


# ---- the names the benchmark's tracer patches ----------------------------

TRACER = TESTS.parent / "perfbench" / "tracer.py"


def literal_constants(tree):
    """Module-level NAME = <literal> assignments, evaluated."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            try:
                out[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                continue
    return out


def _loop_names(loop, constants):
    """The loop variable of a for statement over literal names, and the names:
    a literal tuple, a constant tuple, or `<constant dict>.items()`."""
    it, target = loop.iter, loop.target
    if isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute):
        if it.func.attr == "items" and isinstance(target, ast.Tuple):
            return target.elts[1].id, list(constants[it.func.value.id].values())
        return None, []
    if isinstance(it, ast.Name):
        return target.id, list(constants.get(it.id, ()))
    if isinstance(it, ast.Tuple):
        return target.id, [ast.literal_eval(e) for e in it.elts]
    return None, []


def patched_attributes(tree, owners):
    """(owner, attribute) pairs that `Tracer.install` reads to wrap them:
    getattr(owner, name) in a loop over literal names, owner.attribute, and
    the attribute string of `_patch_method(owner, "attribute", ...)`."""
    constants = literal_constants(tree)
    install = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "install"
    )
    found = set()
    for node in ast.walk(install):
        if isinstance(node, ast.For):
            var, names = _loop_names(node, constants)
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Name)
                    and inner.func.id == "getattr"
                    and isinstance(inner.args[1], ast.Name)
                    and inner.args[1].id == var
                ):
                    found.update((inner.args[0].id, name) for name in names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in owners:
                found.add((node.value.id, node.attr))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_patch_method"
        ):
            found.add((node.args[0].id, ast.literal_eval(node.args[1])))
    return found


def test_tracer_patches_only_names_that_exist():
    owners = {
        "checks": checks,
        "cli": cli,
        "exactla": exactla,
        "maps": maps,
        "projgeo": projgeo,
        "Poly": Poly,
    }
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    found = patched_attributes(tree, owners)
    assert {"maps", "checks", "exactla", "Poly"} <= {owner for owner, _ in found}
    assert ("maps", "compute_Q") in found and ("exactla", "rank_mod_p") in found
    missing = sorted(f"{o}.{a}" for o, a in found if not hasattr(owners[o], a))
    assert missing == []
    constants = literal_constants(tree)
    assert list(constants["CHECK_FUNCTIONS"]) == list(checks.CHECK_ORDER)
    m = [[Poly.var(0, 2, 1), Poly.const(1, 2)], [Poly.const(2, 2), Poly.var(1, 2, 1)]]
    expected = Poly.var(0, 2, 1) * Poly.var(1, 2, 1) - Poly.const(2, 2)
    for strategy in constants["DET_STRATEGIES"]:
        assert exactla.det_poly_matrix(m, strategy) == expected


def test_tracer_scan_sees_every_form_of_patch():
    tree = ast.parse(
        'NAMES = ("a", "b")\nBY = {"x": "c"}\n'
        "def install(self):\n"
        "    for n in NAMES:\n        getattr(maps, n)\n"
        "    for k, n in BY.items():\n        getattr(checks, n)\n"
        '    for n in ("d",):\n        getattr(exactla, n)\n'
        "    exactla.e\n"
        '    self._patch_method(Poly, "f", None)\n'
    )
    assert patched_attributes(tree, {"maps", "checks", "exactla", "Poly"}) == {
        ("maps", "a"),
        ("maps", "b"),
        ("checks", "c"),
        ("exactla", "d"),
        ("exactla", "e"),
        ("Poly", "f"),
    }


# ---- every artifact goes through cli.dump_json ------------------------------


def indented_json_calls(tree):
    """Line numbers of `json.dump` or `json.dumps` calls with `indent=`,
    through `import json [as j]` or `from json import dump[s] [as d]`."""
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "json")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            names = [a for a in node.names if a.name in ("dump", "dumps")]
            functions.update(a.asname or a.name for a in names)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        named = (
            isinstance(func, ast.Attribute)
            and func.attr in ("dump", "dumps")
            and isinstance(func.value, ast.Name)
            and func.value.id in modules
        ) or (isinstance(func, ast.Name) and func.id in functions)
        if named and any(k.arg == "indent" for k in node.keywords):
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_artifacts_are_written_only_by_dump_json(path):
    # `json.dump(indent=...)` runs the stdlib's slow generator encoder and
    # writes mostly indentation; `cli.dump_json` writes each artifact as the
    # one line of the C encoder
    assert indented_json_calls(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_json_scan_sees_every_form_of_indented_dump():
    tree = ast.parse(
        "import json\nimport json as j\nfrom json import dump, dumps as d\n"
        "json.dumps(x)\njson.dump(x, fh, indent=2)\nj.dumps(x, indent=None)\n"
        "dump(x, fh, indent=1)\nd(x, indent=4)\nd(x)\nother.dumps(x, indent=2)\n"
    )
    assert indented_json_calls(tree) == [5, 6, 7, 8]


# ---- no memo outlives a report --------------------------------------------

MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}


def _mutable(value):
    """Whether an expression builds a mutable container."""
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in MUTABLE_CALLS
    return False


def lasting_memos(tree):
    """Line numbers of state that could carry a memo from one report to the
    next: `functools.cache` or `lru_cache`, a mutable container bound at
    module or class level (other than `__all__`), and `global` rebinding."""
    found = []
    bodies = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
    for body in bodies:
        for node in body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                continue
            if node.value is not None and _mutable(node.value):
                found.append(node.lineno)
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(a.name in ("cache", "lru_cache") for a in node.names):
                found.append(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in ("cache", "lru_cache")
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_memo_outlives_a_report(path):
    # a proof is kept only in the `checks.ProofRecord` of one report: the
    # same instance verified twice in one process must be proved twice
    assert lasting_memos(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_memo_scan_sees_every_form_of_lasting_state():
    tree = ast.parse(
        "import functools\nfrom functools import lru_cache\n"
        "__all__ = ['f']\nLIMIT = 3\nNAMES = ('a',)\n_SEEN = {}\n"
        "class C:\n    memo = dict()\n    size = 2\n"
        "@functools.cache\ndef f():\n    global LIMIT\n    local = []\n"
    )
    assert lasting_memos(tree) == [2, 6, 8, 10, 12]


# ---- README lists every shared fact of a report ----------------------------

README = TESTS.parent / "README.md"


def listed_facts(text):
    """The `ProofRecord.<name>` methods a text names."""
    return set(re.findall(r"`ProofRecord\.(\w+)`", text))


def test_readme_lists_each_shared_fact_of_the_proof_record():
    # a fact deleted from the record must take its bullet with it
    methods = {
        name
        for name, value in vars(checks.ProofRecord).items()
        if callable(value) and not name.startswith("_")
    }
    assert listed_facts(README.read_text(encoding="utf-8")) == methods


def test_fact_scan_reads_only_quoted_method_names():
    text = "`ProofRecord.ties`, `ProofRecord.meet` and ProofRecord.dual; `checks.ProofRecord`"
    assert listed_facts(text) == {"ties", "meet"}
