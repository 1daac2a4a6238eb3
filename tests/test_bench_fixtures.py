"""The benchmark's CLI invocations, replayed in the suite.

``perfbench/fixtures/cli.json`` pins, per invocation, the exit code and
the SHA-256 of the rendered report that the benchmark checks its ``cli``
items against.  Replaying them here reports a changed report before a
benchmark run does.  Paths under ``perfbench/`` resolve from the
repository root; the test only reads there.
"""

import hashlib
import json
import os

import jsonschema
import pytest

from latdev import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "perfbench", "fixtures", "cli.json")) as fh:
    INVOCATIONS = json.load(fh)


def _resolve(args: dict) -> dict:
    return {k: os.path.join(ROOT, v) if isinstance(v, str)
            and v.startswith("perfbench/") else v for k, v in args.items()}


@pytest.mark.parametrize("inv", INVOCATIONS,
                         ids=[f"{i:02d}-{inv['subcommand'].replace(' ', '-')}"
                              for i, inv in enumerate(INVOCATIONS)])
def test_report_matches_recorded_hash(inv):
    code, rendered = cli.run(cli.RunConfig(subcommand=inv["subcommand"],
                                           args=_resolve(inv["args"]),
                                           seed=inv["seed"]))
    assert code == inv["code"]
    jsonschema.validate(json.loads(rendered), cli.SCHEMAS[inv["subcommand"]])
    assert hashlib.sha256(rendered.encode()).hexdigest() == inv["sha256"]
