"""Checks on the package source itself."""

import ast
from pathlib import Path

import hookpair

PACKAGE = Path(hookpair.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips assert statements, so invariants must raise instead
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
