"""Source checks: no shadowed definitions, no dangling console scripts."""

import ast
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
