"""The public API carries no name that only the tests call."""

from __future__ import annotations

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
