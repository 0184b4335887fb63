"""The README's python examples run as written, and each `print(...)` whose
trailing comment is a Python literal prints that literal."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)
PRINT = re.compile(r"^print\(.*\)\s+#\s*(.+)$")


def blocks() -> list:
    text = README.read_text(encoding="utf-8")
    return [pytest.param(match.group(1), id=f"line{text.count(chr(10), 0, match.start()) + 1}")
            for match in BLOCK.finditer(text)]


def expected_prints(code: str) -> list:
    """Per print line, its comment as a literal, or None for prose."""
    expected = []
    for line in code.splitlines():
        match = PRINT.match(line)
        if match is None:
            continue
        try:
            expected.append(ast.literal_eval(match.group(1)))
        except (ValueError, SyntaxError):
            expected.append(None)
    return expected


@pytest.mark.parametrize("code", blocks())
def test_example_prints_its_comments(code):
    printed = []
    exec(code, {"__name__": "readme_example",
                "print": lambda *args: printed.append(" ".join(map(str, args)))})
    expected = expected_prints(code)
    assert len(printed) == len(expected)
    for text, literal in zip(printed, expected):
        if literal is None:
            continue
        if isinstance(literal, str):  # `# 'violated'` documents the text violated
            assert text == literal
        else:
            assert ast.literal_eval(text) == literal
