"""The Fourier-Motzkin kernel of ``latdev.semilinear`` runs on integers.

``_tidy``, ``_project`` and ``_holds`` name no ``Fraction`` at all, and
``witness_point`` names it only in its own return statements: the zeros
of the unconstrained cell and the one conversion of the point.  Its
back-substitution, nested helpers included, works on integer numerators
over one common denominator."""

import ast
import pathlib

import latdev

PATH = pathlib.Path(latdev.__file__).parent / "semilinear.py"
INTEGER_ONLY = ("_tidy", "_project", "_holds")


def _fraction_names(tree: ast.Module) -> tuple:
    """The names bound to ``fractions.Fraction`` by ``from fractions
    import ...``, and those bound to ``fractions``."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fractions":
            names |= {a.asname or a.name for a in node.names
                      if a.name == "Fraction"}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names
                        if a.name == "fractions"}
    return names, modules


def _mentions(node: ast.AST, names: set, modules: set) -> list:
    """The nodes under ``node`` that name ``Fraction``."""
    return [n for n in ast.walk(node)
            if isinstance(n, ast.Name) and n.id in names
            or isinstance(n, ast.Attribute) and n.attr == "Fraction"
            and isinstance(n.value, ast.Name) and n.value.id in modules]


def _own_returns(fn: ast.FunctionDef) -> list:
    """The return statements of ``fn`` itself, outside nested functions,
    lambdas and classes."""
    out, todo = [], list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Return):
            out.append(node)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return out


def test_kernel_does_no_fraction_arithmetic():
    tree = ast.parse(PATH.read_text(), filename=str(PATH))
    names, modules = _fraction_names(tree)
    assert names or modules
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    found = [f"{name}:{n.lineno}" for name in INTEGER_ONLY
             for n in _mentions(defs[name], names, modules)]
    witness = defs["witness_point"]
    allowed = {id(n) for r in _own_returns(witness)
               for n in _mentions(r, names, modules)}
    found += [f"witness_point:{n.lineno}"
              for n in _mentions(witness, names, modules)
              if id(n) not in allowed]
    assert not found, f"Fraction named in the integer kernel: {found}"
    # the zeros of the unconstrained cell and the returned point
    assert len(allowed) == 2
