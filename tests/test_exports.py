"""The public API carries no name that only the tests call."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import icdof

ROOT = Path(__file__).resolve().parents[1]


def _caller_lines() -> list[str]:
    """Every line of the package's modules but `__init__.py`, of the README
    and of the benchmark's scripts."""
    paths = [path for path in sorted((ROOT / "src" / "icdof").glob("*.py"))
             if path.name != "__init__.py"]
    paths += [ROOT / "README.md", *sorted((ROOT / "perfbench").glob("*.py"))]
    return [line for path in paths for line in path.read_text(encoding="utf-8").splitlines()]


def test_every_export_has_a_caller_outside_the_tests():
    lines = _caller_lines()
    unused = []
    for name in icdof.__all__:
        use = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"\s*(?:def|class)\s+{re.escape(name)}\b")
        if not any(use.search(line) and not definition.match(line) for line in lines):
            unused.append(name)
    assert unused == []


def _trees(paths) -> list[ast.Module]:
    return [ast.parse(path.read_text(encoding="utf-8")) for path in paths]


def test_every_public_definition_is_exported_or_used():
    # a public module-level function or class outside `icdof.__all__` is
    # there for the code: some module of the package or of the benchmark
    # names it (an ast Name, Attribute or import), not only the tests
    modules = sorted((ROOT / "src" / "icdof").glob("*.py"))
    trees = _trees(modules + sorted((ROOT / "perfbench").glob("*.py")))
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                referenced.update(alias.name.rpartition(".")[2] for alias in node.names)
    unused = [
        f"{path.stem}.{node.name}"
        for path, tree in zip(modules, trees)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in icdof.__all__
        and node.name not in referenced
    ]
    assert unused == []
