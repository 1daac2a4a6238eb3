"""Every cache of the library is emptied by a module-level ``cache_clear``.

The benchmark empties the caches before each round by calling
``cache_clear`` on the module attributes of ``latdev``; a cache on a
nested function or a method is out of its reach, and would let rounds
reuse each other's work.  So is a module-level memo without a
``cache_clear`` beside it."""

import ast
import importlib
import pathlib
import pkgutil
from fractions import Fraction

import latdev
from latdev import semilinear, vlterms

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


def _modules() -> list:
    return [latdev] + [importlib.import_module(f"latdev.{m.name}")
                       for m in pkgutil.iter_modules(latdev.__path__)]


def _clear_as_the_benchmark_does():
    for mod in _modules():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _containers() -> dict:
    """The size of every dict, list and set held by a module attribute."""
    return {(mod.__name__, name): len(obj) for mod in _modules()
            for name, obj in vars(mod).items()
            if isinstance(obj, (dict, list, set))}


def test_benchmark_clear_empties_every_memo():
    """Membership, emptiness, complement and ``linearize`` fill the
    module-level memos; the benchmark's clear brings every module-level
    container back to its size before them, and empties the point
    memo."""
    _clear_as_the_benchmark_does()
    before = _containers()
    U = semilinear.parse_set([["x0 - x1 > 0", "x1 >= 1/2"], ["x0 = 2"]], 2)
    points = [(Fraction(1, 2), 1), (3, Fraction(2, 3)), (2, 5)]
    for T in (U, semilinear.complement(U),
              vlterms.zero_set(vlterms.parse_term("(g0 - g1)^+"), 2)):
        for p in points:
            T.contains(p)
    assert semilinear._POINTS
    _clear_as_the_benchmark_does()
    assert not semilinear._POINTS
    assert _containers() == before


def test_default_ceiling_is_one_cache_key():
    """``ceiling=None`` stands for ``DEFAULT_CELL_CEILING``: the ideal
    order and the zero meet key the set caches on the resolved ceiling,
    so the same question asked both ways builds its sets once."""
    g = vlterms.parse_term("(g0 - g1)^+")
    h = vlterms.parse_term("|g0| \\/ |g1|")
    caches = (vlterms._parts, vlterms.zero_set, vlterms.cozero_set)
    sizes = []
    _clear_as_the_benchmark_does()
    for ceiling in (None, semilinear.DEFAULT_CELL_CEILING, None):
        assert vlterms.ideal_leq(g, h, 2, ceiling=ceiling) == (True, None)
        assert not vlterms.ideal_meet_is_zero(g, h, 2, ceiling=ceiling)
        sizes.append([c.cache_info().currsize for c in caches])
    assert sizes[0] == sizes[1] == sizes[2]
    assert all(sizes[0])
