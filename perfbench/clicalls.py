"""The 14 CLI subcommands, run in-process through ``latdev.cli.run``.

Each invocation in ``fixtures/cli.json`` names a subcommand, its arguments
(paths relative to the repository root), the expected exit code and the
SHA-256 of the rendered report. A report must validate against
``latdev.cli.SCHEMAS`` and be byte-identical to the recorded one.
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import lru_cache

import jsonschema

from harness import Wrong, plain

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


@lru_cache(maxsize=1)
def invocations() -> tuple:
    with open(os.path.join(HERE, "fixtures", "cli.json")) as fh:
        return tuple(json.load(fh))


def layer(subcommand: str) -> str:
    return "cli." + subcommand.replace(" ", "-")


def _resolve(args: dict) -> dict:
    return {k: os.path.join(ROOT, v) if isinstance(v, str)
            and v.startswith("perfbench/") else v for k, v in args.items()}


def cli_items(subcommands):
    for inv in invocations():
        if inv["subcommand"] in subcommands:
            yield "cli", plain(_item(inv))


def _item(inv: dict):
    def fn(ctx):
        cli = ctx.L.cli
        cfg = cli.RunConfig(subcommand=inv["subcommand"],
                            args=_resolve(inv["args"]), seed=inv["seed"])
        code, rendered = ctx.call(layer(inv["subcommand"]), cli.run, cfg)
        if code != inv["code"]:
            raise Wrong(f"{inv['subcommand']}: exit {code}, "
                        f"expected {inv['code']}")
        try:
            jsonschema.validate(json.loads(rendered),
                                cli.SCHEMAS[inv["subcommand"]])
        except jsonschema.ValidationError as exc:
            raise Wrong(f"{inv['subcommand']}: {exc.message}") from None
        if hashlib.sha256(rendered.encode()).hexdigest() != inv["sha256"]:
            raise Wrong(f"{inv['subcommand']}: report bytes changed")
    return fn
