"""Report schemas: ``--schema`` output, the declared dialect, the keywords
the schemas may use, and a differential check that the draft-07 dialect
finds the same errors as 2020-12 on the golden reports and their seeded
mutations."""

import copy
import json
import random
import warnings

import pytest
from jsonschema import Draft7Validator, Draft202012Validator
from jsonschema.validators import validator_for

from latdev.cli import COMMANDS, SCHEMAS, _build_parser, config_from_args, main

from test_golden import CASES, _report_path

DRAFT_07 = "http://json-schema.org/draft-07/schema#"
# The keywords a report schema may use.  Each means the same in draft-07
# and 2020-12 (``items`` only with a single schema as its value), so the
# two dialects agree on every report; a keyword outside this set
# (array-valued ``items``, ``$defs``, ``dependentRequired``,
# ``unevaluated*``, ...) needs the differential below re-argued first.
KEYWORDS = {"type", "properties", "required", "additionalProperties", "items"}


def _keyword_faults(schema, path="#"):
    """The places in ``schema`` (a subschema, below the root) that use a
    keyword outside ``KEYWORDS`` or a value of an unexpected shape."""
    if not isinstance(schema, dict):
        return [f"{path}: not a schema object"]
    faults = [f"{path}: keyword {k!r}" for k in sorted(set(schema) - KEYWORDS)]
    for name, sub in schema.get("properties", {}).items():
        faults += _keyword_faults(sub, f"{path}/properties/{name}")
    if "items" in schema:
        faults += _keyword_faults(schema["items"], f"{path}/items")
    if isinstance(schema.get("additionalProperties"), dict):
        faults += _keyword_faults(schema["additionalProperties"],
                                  f"{path}/additionalProperties")
    return faults


def test_keyword_walk_catches_dialect_sensitive_keywords():
    root = {"type": "object", "properties": {
        "a": {"type": "array", "items": [{"type": "string"}]},
        "b": {"$defs": {}, "unevaluatedProperties": False},
        "c": {"dependentRequired": {}}}}
    assert _keyword_faults(root) == [
        "#/properties/a/items: not a schema object",
        "#/properties/b: keyword '$defs'",
        "#/properties/b: keyword 'unevaluatedProperties'",
        "#/properties/c: keyword 'dependentRequired'"]


@pytest.mark.parametrize("name", list(COMMANDS))
def test_schema_flag_prints_the_registered_schema(name, capsys):
    """``--schema group sub`` needs none of the subcommand's inputs and
    prints the same dict as ``SCHEMAS`` and ``COMMANDS``."""
    assert main(["--schema", *name.split()]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == SCHEMAS[name] == COMMANDS[name].schema
    assert SCHEMAS[name] is COMMANDS[name].schema


@pytest.mark.parametrize("name", list(COMMANDS))
def test_schema_is_draft_07(name):
    """The schema names draft-07, and ``jsonschema`` resolves it to
    ``Draft7Validator`` without a warning: a mistyped URI would fall back
    to 2020-12 with only a ``DeprecationWarning``."""
    schema = SCHEMAS[name]
    assert schema["$schema"] == DRAFT_07
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validator_for(schema) is Draft7Validator
    Draft7Validator.check_schema(schema)
    root = {k: v for k, v in schema.items() if k != "$schema"}
    assert _keyword_faults(root) == []


@pytest.mark.parametrize("argv", [
    ["--schema", "lattice", "bogus"], ["--schema", "bogus"],
    ["--schema", "lattice"], ["--schema"]],
    ids=["unknown-sub", "unknown-group", "no-sub", "no-group"])
def test_schema_flag_without_a_subcommand_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_schema_flag_still_checks_given_arguments(capsys):
    """Arguments that are given are parsed as before: a bad value is a
    usage error, and ``-h`` prints help, not the schema."""
    with pytest.raises(SystemExit) as info:
        main(["--schema", "vlat", "leq", "--n", "x"])
    assert info.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["--schema", "lattice", "check", "-h"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: latdev lattice check")


# ---------------------------------------------------------------------------
# Dialect differential
# ---------------------------------------------------------------------------

_KINDS = {"null": None, "boolean": True, "integer": 7, "number": 0.5,
          "string": "x", "array": [], "object": {}}


def _kind(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    return {int: "integer", float: "number", str: "string", list: "array",
            dict: "object"}[type(value)]


def _mutate(report, rng):
    """A copy of ``report`` with one seeded change: from the root, step
    into a random child with probability 1/2 per level, then drop the
    chosen key or give it a value of another JSON type."""
    out = copy.deepcopy(report)
    node = out
    while True:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = rng.choice(keys)
        child = node[key]
        if isinstance(child, (dict, list)) and child and rng.random() < 0.5:
            node = child
            continue
        if isinstance(node, dict) and rng.random() < 0.5:
            del node[key]
        else:
            kind = rng.choice(sorted(set(_KINDS) - {_kind(child)}))
            node[key] = copy.deepcopy(_KINDS[kind])
        return out


def _errors(validator, instance) -> set:
    return {(e.validator, tuple(e.absolute_path), e.message)
            for e in validator.iter_errors(instance)}


def _golden_reports():
    """(case name, subcommand, report) for every golden case with a JSON
    report."""
    for case in CASES:
        with open(_report_path(case["name"])) as fh:
            expected = json.load(fh)
        cfg = config_from_args(_build_parser().parse_args(case["argv"]))
        if cfg.fmt == "json" and expected["code"] in (0, 1):
            yield case["name"], cfg.subcommand, json.loads(expected["stdout"])


def test_draft_07_and_2020_12_find_the_same_errors():
    """Each golden JSON report and 40 seeded mutations of it (a dropped
    key, or a value of another JSON type) give the same errors (keyword,
    path and message) under draft-07 as under 2020-12."""
    instances = failing = 0
    for name, sub, report in _golden_reports():
        schema = SCHEMAS[sub]
        draft7 = Draft7Validator(schema)
        latest = Draft202012Validator(
            {k: v for k, v in schema.items() if k != "$schema"})
        rng = random.Random(f"dialect {name}")
        for instance in [report] + [_mutate(report, rng) for _ in range(40)]:
            errors = _errors(draft7, instance)
            assert errors == _errors(latest, instance), (name, instance)
            instances += 1
            failing += bool(errors)
        assert not _errors(draft7, report), name
    assert instances > 2500
    assert failing > instances // 2
