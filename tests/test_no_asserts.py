"""The library's checks must survive ``python -O``, which strips bare
``assert`` statements: verified witnesses and kernel invariants raise
explicit errors instead."""

import ast
import pathlib

import latdev

SRC = pathlib.Path(latdev.__file__).parent


def test_no_assert_statements_in_library():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"bare assert statements: {found}"
