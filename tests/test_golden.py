"""Golden corpus: the CLI reports must stay byte-identical.

Each case in ``golden/cases.json`` is an argv for ``latdev``; arguments
starting with ``fixtures/`` name files under ``golden/``.  The recorded
exit code, stdout and stderr live in ``golden/reports/<name>.json``.

To record a newly added case (existing ones are frozen and must not be
re-recorded to make a change pass)::

    PYTHONPATH=src python tests/test_golden.py <name> ...

``golden/argparse_surface.json`` freezes the command-line surface: every
parser of ``latdev`` with each of its actions.  It was recorded with
``PYTHONPATH=src python tests/test_golden.py --surface``.

``golden/api_surface.json`` freezes the Python surface in the same way:
the public names of ``latdev`` and, per module, its public functions and
classes with their signatures and its public constants.  It was recorded
with ``PYTHONPATH=src python tests/test_golden.py --api``; a change to it
is a change of the API and is recorded as one.
"""

import argparse
import ast
import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import sys

import jsonschema
import pytest

import latdev
from latdev.cli import SCHEMAS, _build_parser, config_from_args, main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

with open(os.path.join(GOLDEN, "cases.json")) as _fh:
    CASES = json.load(_fh)


def _report_path(name: str) -> str:
    return os.path.join(GOLDEN, "reports", name + ".json")


def run_case(argv) -> dict:
    argv = [os.path.join(GOLDEN, a) if a.startswith("fixtures/") else a
            for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    # error messages may quote the absolute fixture path
    return {"code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue().replace(GOLDEN + os.sep, "")}


def parser_surface() -> list:
    """Each parser of the command line (the subparsers depth first, in
    the order they were added) with its actions, as JSON data."""
    out = []

    def visit(path, parser):
        actions = []
        for a in parser._actions:
            actions.append({
                "class": type(a).__name__,
                "option_strings": a.option_strings, "dest": a.dest,
                "default": a.default, "required": a.required,
                "type": None if a.type is None else a.type.__name__,
                "choices": None if a.choices is None else list(a.choices),
                "nargs": a.nargs, "const": a.const, "help": a.help,
                "metavar": a.metavar})
        out.append({"parser": path, "prog": parser.prog,
                     "description": parser.description,
                     "actions": actions})
        for a in parser._actions:
            if isinstance(a, argparse._SubParsersAction):
                for name, sub in a.choices.items():
                    visit(f"{path} {name}", sub)

    visit("latdev", _build_parser())
    return out


def _signature(obj):
    try:
        return str(inspect.signature(obj))
    except ValueError:               # a class with a C-level __init__
        return None


def _class_surface(cls) -> dict:
    """The class's signature and its own public methods and properties
    (a record's or value class's fields are in its signature)."""
    members = {}
    for name, value in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(value, property):
            members[name] = "property"
        elif inspect.isfunction(value) or \
                isinstance(value, (classmethod, staticmethod)):
            members[name] = _signature(getattr(cls, name))
    return {"signature": _signature(cls), "members": members}


def _constant_names(module) -> list:
    """The public upper-case names that the module assigns at top level."""
    names = []
    for node in ast.parse(inspect.getsource(module)).body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            names += [n.id for n in ast.walk(target)
                      if isinstance(n, ast.Name) and n.id.isupper()
                      and not n.id.startswith("_")]
    return names


def api_surface() -> dict:
    """The public names of ``latdev``; per module, the functions and
    classes it defines (signatures, and a class's own public members)
    and its constants (the value of a scalar, else its type)."""
    modules = {}
    for info in pkgutil.iter_modules(latdev.__path__):
        module = importlib.import_module(f"latdev.{info.name}")
        functions, classes = {}, {}
        for name, value in vars(module).items():
            if name.startswith("_") or \
                    getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(value):
                classes[name] = _class_surface(value)
            elif callable(value):
                functions[name] = _signature(value)
        constants = {}
        for name in _constant_names(module):
            value = getattr(module, name)
            constants[name] = value if isinstance(
                value, (bool, int, float, str, type(None))) \
                else f"<{type(value).__name__}>"
        modules[info.name] = {"functions": functions, "classes": classes,
                              "constants": constants}
    return {"latdev": sorted(name for name, value in vars(latdev).items()
                             if not name.startswith("_")
                             and not inspect.ismodule(value)),
            "modules": modules}


def test_api_surface():
    with open(os.path.join(GOLDEN, "api_surface.json")) as fh:
        assert api_surface() == json.load(fh)


def test_argparse_surface():
    with open(os.path.join(GOLDEN, "argparse_surface.json")) as fh:
        assert parser_surface() == json.load(fh)


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_report(case):
    with open(_report_path(case["name"])) as fh:
        expected = json.load(fh)
    assert run_case(case["argv"]) == expected


def test_golden_reports_match_schemas():
    """Every recorded JSON report (exit code 0 or 1) validates against
    the schema of its subcommand."""
    validated = 0
    for case in CASES:
        with open(_report_path(case["name"])) as fh:
            expected = json.load(fh)
        cfg = config_from_args(_build_parser().parse_args(case["argv"]))
        if cfg.fmt == "json" and expected["code"] in (0, 1):
            jsonschema.validate(json.loads(expected["stdout"]),
                                SCHEMAS[cfg.subcommand])
            validated += 1
    assert validated > len(CASES) // 2


if __name__ == "__main__":
    wanted = set(sys.argv[1:])
    if "--surface" in wanted:
        with open(os.path.join(GOLDEN, "argparse_surface.json"), "w") as fh:
            json.dump(parser_surface(), fh, indent=1, sort_keys=True)
            fh.write("\n")
    if "--api" in wanted:
        with open(os.path.join(GOLDEN, "api_surface.json"), "w") as fh:
            json.dump(api_surface(), fh, indent=1, sort_keys=True)
            fh.write("\n")
    for case in CASES:
        if case["name"] in wanted:
            with open(_report_path(case["name"]), "w") as fh:
                json.dump(run_case(case["argv"]), fh, indent=1,
                          sort_keys=True)
                fh.write("\n")
                fh.write("\n")
