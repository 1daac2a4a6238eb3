"""Golden corpus: the CLI reports must stay byte-identical.

Each case in ``golden/cases.json`` is an argv for ``latdev``; arguments
starting with ``fixtures/`` name files under ``golden/``.  The recorded
exit code, stdout and stderr live in ``golden/reports/<name>.json``.

To record a newly added case (existing ones are frozen and must not be
re-recorded to make a change pass)::

    PYTHONPATH=src python tests/test_golden.py <name> ...
"""

import contextlib
import io
import json
import os
import sys

import pytest

from latdev.cli import main

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


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_report(case):
    with open(_report_path(case["name"])) as fh:
        expected = json.load(fh)
    assert run_case(case["argv"]) == expected


if __name__ == "__main__":
    wanted = set(sys.argv[1:])
    for case in CASES:
        if case["name"] in wanted:
            with open(_report_path(case["name"]), "w") as fh:
                json.dump(run_case(case["argv"]), fh, indent=1,
                          sort_keys=True)
                fh.write("\n")
