"""Every ``functools`` cache of the library is a module-level function.

The benchmark empties the caches before each round by calling
``cache_clear`` on the module attributes of ``latdev``; a cache on a
nested function or a method is out of its reach, and would let rounds
reuse each other's work."""

import ast
import pathlib

import latdev

SRC = pathlib.Path(latdev.__file__).parent
CACHES = {"lru_cache", "cache"}


def _cache_names(tree: ast.Module) -> tuple:
    """The names bound to ``functools.lru_cache``/``cache`` by
    ``from functools import ...``, and those bound to ``functools``."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names
                      if a.name in CACHES}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names
                        if a.name == "functools"}
    return names, modules


def test_caches_decorate_module_level_functions():
    misplaced, found = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names, modules = _cache_names(tree)
        allowed = {id(n) for node in tree.body
                   if isinstance(node, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))
                   for d in node.decorator_list for n in ast.walk(d)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in names or \
                    isinstance(node, ast.Attribute) and \
                    node.attr in CACHES and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in modules:
                if id(node) in allowed:
                    found += 1
                else:
                    misplaced.append(f"{path.name}:{node.lineno}")
    assert not misplaced, f"caches outside module-level defs: {misplaced}"
    assert found >= 8
