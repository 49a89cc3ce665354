"""Source checks: no shadowed or unused definitions, no module-level caches,
no dangling console scripts, no numpy at run time, a package map that
names every module, one elimination driver, and no unimplemented branch."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _defined_names(body):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno


def _duplicates(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    scopes = [("<module>", tree.body)]
    scopes += [
        (node.name, node.body)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    ]
    out = []
    for scope, body in scopes:
        seen: dict[str, int] = {}
        for name, line in _defined_names(body):
            if name in seen:
                out.append(f"{path.name}:{line} {scope}.{name} (first at {seen[name]})")
            else:
                seen[name] = line
    return out


def test_no_name_is_defined_twice_in_one_body():
    found = [d for path in sorted(SRC.rglob("*.py")) for d in _duplicates(path)]
    assert not found, found


def _module_and_class_definitions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bodies = [tree.body] + [n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    for body in bodies:
        yield from _defined_names(body)


def test_every_definition_is_used():
    # a module- or class-level function or class whose name no other line
    # of the source, the tests or the benchmark mentions is dead weight;
    # dunder methods are called by the language itself
    files = [p for d in ("src", "tests", "khbench") for p in sorted((ROOT / d).rglob("*.py"))]
    words = Counter(w for p in files for w in re.findall(r"\w+", p.read_text()))
    defs = [
        (path, name, line)
        for path in sorted(SRC.rglob("*.py"))
        for name, line in _module_and_class_definitions(path)
        if not (name.startswith("__") and name.endswith("__"))
    ]
    times_defined = Counter(name for _, name, _ in defs)
    found = [
        f"{path.name}:{line} {name}"
        for path, name, line in defs
        if words[name] <= times_defined[name]
    ]
    assert not found, found


def test_package_map_names_every_module():
    # each bullet of the package docstring's map starts with the modules it
    # describes, comma-separated, up to the first colon
    doc = ast.get_docstring(ast.parse((SRC / "khovanov_cables" / "__init__.py").read_text()))
    _, _, bullets = doc.partition("Subpackage map:")
    mapped = [
        name.strip()
        for line in bullets.splitlines()
        if line.startswith("- ")
        for name in line[2:].partition(":")[0].split(",")
    ]
    modules = sorted(p.stem for p in (SRC / "khovanov_cables").glob("*.py") if p.stem != "__init__")
    assert sorted(mapped) == modules


def _imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_one_elimination_driver():
    # every Gaussian elimination runs on chain_algebra.eliminate_cheapest,
    # so no other module needs a heap
    users = [p.name for p in sorted(SRC.rglob("*.py")) if "heapq" in _imports(p)]
    assert users == ["chain_algebra.py"]


def _unimplemented(path):
    """Lines that name NotImplementedError: a raise, or a handler for one."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "NotImplementedError"
    )


def test_no_operation_is_left_unimplemented(tmp_path):
    # every operation either works or rejects bad input with ValueError
    found = [u for path in sorted(SRC.rglob("*.py")) for u in _unimplemented(path)]
    assert not found, found
    probe = tmp_path / "partial.py"
    probe.write_text(
        "def f(x):\n"
        "    if x:\n"
        "        raise NotImplementedError('curl')\n"
        "    raise NotImplementedError\n"
    )
    assert _unimplemented(probe) == ["partial.py:3", "partial.py:4"]


CACHE_DECORATORS = {"cache", "lru_cache"}
CONTAINERS = {"dict", "list", "set", "defaultdict", "OrderedDict", "WeakKeyDictionary", "WeakValueDictionary"}


def _callee(node):
    node = node.func if isinstance(node, ast.Call) else node
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _empty_container(node):
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    if isinstance(node, ast.Call) and _callee(node) in CONTAINERS:
        return _callee(node) == "defaultdict" or not (node.args or node.keywords)
    return False


def _module_caches(path):
    """functools caches anywhere, and module or class names bound to an empty container."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out += [
                f"{path.name}:{d.lineno} @{_callee(d)}"
                for d in node.decorator_list
                if not isinstance(d, ast.Call) and _callee(d) in CACHE_DECORATORS
            ]
        elif isinstance(node, ast.Call) and _callee(node) in CACHE_DECORATORS:
            out.append(f"{path.name}:{node.lineno} {_callee(node)}(...)")
    bodies = [tree.body] + [n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    for node in (stmt for body in bodies for stmt in body):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            if _empty_container(node.value):
                out.append(f"{path.name}:{node.lineno} empty container outliving its calls")
    return out


def test_no_module_level_cache():
    # A memo that outlives one scan step grows with the whole scan; the
    # scanning memo lives for one attach and is dropped with it.
    found = [c for path in sorted(SRC.rglob("*.py")) for c in _module_caches(path)]
    assert not found, found


def test_cache_check_flags_each_form(tmp_path):
    path = tmp_path / "cached.py"
    path.write_text(
        "import functools\n"
        "from collections import defaultdict\n"
        "MEMO = {}\n"
        "SEEN: set = set()\n"
        "BY_KEY = defaultdict(list)\n"
        "TABLE = {1: 2}\n"
        "class Holder:\n"
        "    shared = []\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def f(x):\n"
        "    local = {}\n"
        "    return x\n"
        "@functools.cache\n"
        "def g(x):\n"
        "    return x\n"
        "h = functools.lru_cache(g)\n"
    )
    flagged = {int(line.split()[0].split(":")[1]) for line in _module_caches(path)}
    assert flagged == {3, 4, 5, 8, 9, 13, 16}


def test_console_scripts_resolve_to_source_modules():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    scripts = meta.get("project", {}).get("scripts", {})
    for name, target in scripts.items():
        module, _, func = target.partition(":")
        rel = Path(*module.split("."))
        found = (SRC / rel).with_suffix(".py").is_file() or (
            SRC / rel / "__init__.py"
        ).is_file()
        assert found, f"script {name} names missing module {module}"
        assert func, f"script {name} names no function"


def test_the_package_runs_without_numpy():
    # numpy is a test dependency only: importing every module and running
    # the dense algebra (les_report) and a Lee scan must not load it
    script = "\n".join(
        [
            "import importlib, pkgutil, sys",
            "import khovanov_cables",
            "for m in pkgutil.iter_modules(khovanov_cables.__path__):",
            "    importlib.import_module('khovanov_cables.' + m.name)",
            "from khovanov_cables.braids import BraidWord, braid_closure",
            "from khovanov_cables.cobordism import cone_from_cube, les_report",
            "from khovanov_cables.frobenius import lee_deformation",
            "from khovanov_cables.lee import s_invariant",
            "D = braid_closure(BraidWord(2, (1, 1, 1)))",
            "rep = les_report(cone_from_cube(D, lee_deformation(3), max(D.crossings)))",
            "assert rep.ok and rep.checks, rep",
            "assert s_invariant(D) == 2",
            "loaded = sorted(n for n in sys.modules if n.split('.')[0] == 'numpy')",
            "raise SystemExit(f'numpy loaded: {loaded}' if loaded else 0)",
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
