"""Checks on the library's source text."""

import ast
from pathlib import Path

import boxlab


def test_no_assert_statements():
    # ``python -O`` strips asserts, so certificate and invariant checks must
    # raise explicitly.
    package = Path(boxlab.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
