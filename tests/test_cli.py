"""CLI: subcommands, exit codes, schema validation, determinism."""

import contextlib
import inspect
import io
import json
import copy
import os
import random
import re
import shlex
import tempfile
import time
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import (currently_in_test_context, event, given, settings,
                        strategies as st)

import latdev
from latdev import cli, deviations
from latdev.cli import COMMANDS, SCHEMAS, _build_parser, config_from_args, main
from latdev.semilinear import form
from latdev.serialize import (deviation_from_json, deviation_to_json,
                              lattice_from_json, load_json, render_id)
from latdev.vlterms import MAX_NOISO_K, evaluate, parse_term

from conftest import time_limit, token_soup

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _fixture(name):
    return os.path.join(GOLDEN, "fixtures", name)


@pytest.fixture
def ncn_lattice(tmp_path):
    return write(tmp_path, "ncn.json", {
        "downsets_of": {"elements": ["c", "a", "b"],
                        "leq": [["c", "a"], ["c", "b"]]}})


@pytest.fixture
def chain4(tmp_path):
    return write(tmp_path, "chain4.json", {
        "elements": ["0", "a", "b", "1"],
        "leq": [["0", "a"], ["a", "b"], ["b", "1"]]})


@pytest.fixture
def chain4_dev(tmp_path, chain4):
    order = ["0", "a", "b", "1"]
    d = {}
    for i, x in enumerate(order):
        for j, y in enumerate(order):
            d[f"{x},{y}"] = "0" if i <= j else x
    d["b,a"] = "1"
    return write(tmp_path, "dev.json", {"d": d})


def schema_check(sub, out):
    jsonschema.validate(json.loads(out), SCHEMAS[sub])


def timed(capsys, limit, *argv):
    """Run the CLI, failing after ``limit`` seconds instead of hanging;
    returns the exit code, stdout, stderr and the wall time."""
    with time_limit(limit, "latdev"):
        t0 = time.perf_counter()
        code = main(list(argv))
        wall = time.perf_counter() - t0
    captured = capsys.readouterr()
    return code, captured.out, captured.err, wall


class TestLattice:
    def test_check_non_cn_exits_1(self, capsys, ncn_lattice):
        code, out = run_cli(capsys, "lattice", "check", ncn_lattice)
        assert code == 1
        rep = json.loads(out)
        assert rep["completely_normal"] is False
        assert set(rep["completely_normal_counterexample"]) == \
            {"{c,a}", "{c,b}"}
        schema_check("lattice check", out)

    def test_check_b6(self, capsys, tmp_path):
        b6 = write(tmp_path, "b6.json", {
            "downsets_of": {"elements": list("abcdef"), "leq": []}})
        code, out = run_cli(capsys, "lattice", "check", b6)
        assert code == 0
        rep = json.loads(out)
        assert rep["elements"] == 64 and rep["prime_ideal_count"] == 6

    def test_check_b10_under_five_seconds(self, capsys, tmp_path):
        """B10 has 1,024 elements and about 465,000 incomparable pairs,
        each decided by the pair x∖y, y∖x of Birkhoff masks."""
        b10 = write(tmp_path, "b10.json", {
            "downsets_of": {"elements": list("abcdefghij"), "leq": []}})
        code, out, _, _ = timed(capsys, 5, "lattice", "check", b10)
        assert code == 0
        rep = json.loads(out)
        assert rep["elements"] == 1024 and rep["completely_normal"] is True

    def test_downset_lattice_above_ceiling_exits_3(self, capsys, tmp_path):
        """A 13-id antichain has 8,192 down-sets: more than
        MAX_LATTICE_ELEMENTS, refused before any table is built."""
        p = write(tmp_path, "b13.json", {
            "downsets_of": {"elements": list("abcdefghijklm"), "leq": []}})
        for argv in (("lattice", "check", p),
                     ("deviation", "search", "--lattice", p)):
            code, out, err, _ = timed(capsys, 1, *argv)
            assert code == 3 and out == ""
            assert "more than 4096 elements" in err

    def test_check_chain_exits_0(self, capsys, chain4):
        code, out = run_cli(capsys, "lattice", "check", chain4)
        assert code == 0
        assert json.loads(out)["completely_normal"] is True
        schema_check("lattice check", out)

    def test_dot_output(self, capsys, chain4):
        code, out = run_cli(capsys, "--format", "dot",
                            "lattice", "check", chain4)
        assert code == 0 and out.startswith("digraph")
        assert '"0" -> "a"' in out

    def test_dot_prime_ideals(self, capsys, ncn_lattice):
        code, out = run_cli(capsys, "--format", "dot", "lattice", "check",
                            ncn_lattice, "--prime-ideals")
        assert code == 0 and out.startswith("digraph")

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "lattice", "check",
                          str(tmp_path / "absent.json"))
        assert code == 2

    def test_bad_lattice_exits_2(self, capsys, tmp_path):
        p = write(tmp_path, "bad.json",
                  {"elements": ["x", "y"], "leq": []})
        code, _ = run_cli(capsys, "lattice", "check", p)
        assert code == 2

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        p = tmp_path / "binary.json"
        p.write_bytes(b'{"elements": ["\xd0\xff"]}')
        code, out = run_cli(capsys, "lattice", "check", str(p))
        assert code == 2 and out == ""

    @pytest.mark.parametrize("target, reason", [
        ("absent/report.json", "No such file or directory"),
        ("", "Is a directory")], ids=["missing-directory", "directory"])
    def test_unwritable_output_exits_2(self, tmp_path, chain4, target,
                                       reason):
        """A report that cannot be written is an input error: exit 2,
        nothing on stdout, and the path and the reason on stderr."""
        path = os.path.join(tmp_path, target)
        code, out, err = _main_output(["--output", path,
                                       "lattice", "check", chain4])
        assert (code, out) == (2, "")
        assert err == f"input error: cannot write {path}: {reason}\n"


class TestDeviation:
    def test_check_reports_properties(self, capsys, chain4, chain4_dev):
        code, out = run_cli(capsys, "deviation", "check",
                            "--lattice", chain4, "--map", chain4_dev)
        assert code == 0
        rep = json.loads(out)
        assert rep["valid"] and not rep["properties"]["right_antitone"]
        schema_check("deviation check", out)

    def test_check_invalid_map(self, capsys, chain4, tmp_path):
        d = {f"{x},{y}": "0" for x in "0ab1" for y in "0ab1"}
        p = write(tmp_path, "zero.json", {"d": d})
        code, out = run_cli(capsys, "deviation", "check",
                            "--lattice", chain4, "--map", p)
        assert code == 1
        rep = json.loads(out)
        assert rep["violation"]["axiom"] == 1

    def test_search_and_enumerate(self, capsys, chain4, ncn_lattice):
        code, out = run_cli(capsys, "deviation", "search",
                            "--lattice", chain4, "--monotone")
        assert code == 0 and json.loads(out)["found"]
        schema_check("deviation search", out)
        code, out = run_cli(capsys, "deviation", "search",
                            "--lattice", ncn_lattice)
        assert code == 1 and not json.loads(out)["found"]
        code, out = run_cli(capsys, "deviation", "enumerate",
                            "--lattice", chain4, "--limit", "3")
        assert code == 0 and json.loads(out)["count"] == 3
        schema_check("deviation enumerate", out)

    def test_search_on_b5_exits_0(self, capsys, tmp_path):
        b5 = write(tmp_path, "b5.json", {
            "downsets_of": {"elements": list("abcde"), "leq": []}})
        code, out = run_cli(capsys, "deviation", "search", "--lattice", b5)
        assert code == 0 and json.loads(out)["found"]
        schema_check("deviation search", out)

    def test_search_report_reads_back_as_map(self, capsys, tmp_path):
        """A search report on a down-set lattice (tuple ids, written with
        str) is accepted by deviation check, as is its {a,b} rendering."""
        tree = os.path.join(GOLDEN, "fixtures", "tree.json")
        for flags in ((), ("--monotone", "--cevian")):
            code, out = run_cli(capsys, "deviation", "search",
                                "--lattice", tree, *flags)
            assert code == 0
            report = json.loads(out)
            assert "('x', 'w')" in "".join(report["deviation"]["d"])
            rendered = write(tmp_path, "search.json", report)
            code, out = run_cli(capsys, "deviation", "check",
                                "--lattice", tree, "--map", rendered)
            assert code == 0 and json.loads(out)["valid"]
            D = lattice_from_json(load_json(tree))
            d = deviation_from_json(report, D)
            assert deviation_to_json(d) == report["deviation"]
            braces = {"d": {f"{render_id(x)},{render_id(y)}": render_id(v)
                            for (x, y), v in d.items()}}
            assert deviation_from_json(braces, D) == d

    def test_search_report_without_deviation_exits_2(self, capsys, tmp_path,
                                                     ncn_lattice):
        code, out = run_cli(capsys, "deviation", "search",
                            "--lattice", ncn_lattice)
        assert code == 1
        p = write(tmp_path, "none.json", json.loads(out))
        code, out = run_cli(capsys, "deviation", "check",
                            "--lattice", ncn_lattice, "--map", p)
        assert code == 2 and out == ""

    def test_search_past_node_budget_exits_3(self, capsys, monkeypatch):
        """Search places no value, so it answers with no node budget at
        all.  The tree fixture's lattice has 7 elements: an enumeration
        places at least 49 values."""
        tree = os.path.join(GOLDEN, "fixtures", "tree.json")
        monkeypatch.setattr(deviations, "MAX_SEARCH_NODES", 0)
        for flags in ((), ("--monotone",), ("--cevian",),
                      ("--monotone", "--cevian")):
            code, out = run_cli(capsys, "deviation", "search",
                                "--lattice", tree, *flags)
            assert code == 0 and json.loads(out)["found"]
        monkeypatch.setattr(deviations, "MAX_SEARCH_NODES", 48)
        code, out = run_cli(capsys, "deviation", "enumerate",
                            "--lattice", tree, "--limit", "20")
        assert code == 3 and out == ""

    @pytest.mark.parametrize("limit", ["0", "-5"])
    def test_enumerate_non_positive_limit_exits_2(self, capsys, chain4,
                                                  limit):
        code, out = run_cli(capsys, "deviation", "enumerate",
                            "--lattice", chain4, "--limit", limit)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("ceiling, code", [(15, 3), (16, 0)])
    def test_search_report_ceiling(self, capsys, monkeypatch, chain4,
                                   ceiling, code):
        """chain4's report holds 4² = 16 pairs."""
        monkeypatch.setattr(cli, "MAX_REPORT_PAIRS", ceiling)
        got, out = run_cli(capsys, "deviation", "search",
                           "--lattice", chain4)
        assert got == code and (out == "") == (code == 3)

    @pytest.mark.parametrize("ceiling, limit, code", [
        (15, 1, 3), (16, 1, 0), (16, 20, 3), (191, 20, 3), (192, 20, 0)])
    def test_enumerate_report_ceiling(self, capsys, monkeypatch, chain4,
                                      ceiling, limit, code):
        """chain4 has 12 deviations of 16 pairs each.  The enumeration
        stops one deviation past the ceiling, and a --limit above the
        count does not count against it."""
        monkeypatch.setattr(cli, "MAX_REPORT_PAIRS", ceiling)
        asked = []
        enumerate_deviations = deviations.enumerate_deviations
        monkeypatch.setattr(deviations, "enumerate_deviations",
                            lambda D, k: asked.append(k)
                            or enumerate_deviations(D, k))
        got, out = run_cli(capsys, "deviation", "enumerate",
                           "--lattice", chain4, "--limit", str(limit))
        assert asked == [min(limit, ceiling // 16 + 1)]
        assert got == code
        if code == 0:
            assert json.loads(out)["count"] == min(limit, 12)
        else:
            assert out == ""


class TestAdjust:
    def test_adjust_restores_antitonicity(self, capsys, chain4, chain4_dev):
        code, out = run_cli(capsys, "adjust", "--lattice", chain4,
                            "--map", chain4_dev, "--order", "0,a,b,1")
        assert code == 0
        rep = json.loads(out)
        assert rep["d_prime"]["b,a"] == "b"
        assert rep["d_prime"]["b,0"] == "b"
        schema_check("adjust", out)

    def test_shadow_flag_same_result(self, capsys, chain4, chain4_dev):
        _, out1 = run_cli(capsys, "adjust", "--lattice", chain4,
                          "--map", chain4_dev, "--order", "0,a,b,1")
        _, out2 = run_cli(capsys, "adjust", "--lattice", chain4,
                          "--map", chain4_dev, "--order", "0,a,b,1",
                          "--use-shadows")
        assert json.loads(out1)["d_prime"] == json.loads(out2)["d_prime"]

    def test_bad_order_exits_2(self, capsys, chain4, chain4_dev):
        code, _ = run_cli(capsys, "adjust", "--lattice", chain4,
                          "--map", chain4_dev, "--order", "0,a")
        assert code == 2

    def test_search_check_adjust_on_tuple_ids(self, capsys, tmp_path):
        """Down-set lattice ids are tuples: the order is read in both
        renderings, cutting at the commas between elements only."""
        tree = os.path.join(GOLDEN, "fixtures", "tree.json")
        code, out = run_cli(capsys, "deviation", "search", "--lattice", tree)
        assert code == 0
        found = write(tmp_path, "search.json", json.loads(out))
        code, out = run_cli(capsys, "deviation", "check", "--lattice", tree,
                            "--map", found)
        assert code == 0 and json.loads(out)["valid"]
        elements = lattice_from_json(load_json(tree)).poset.elements[::-1]
        for render in (str, render_id):
            code, out = run_cli(capsys, "adjust", "--lattice", tree,
                                "--map", found, "--order",
                                ",".join(map(render, elements)))
            assert code == 0
            schema_check("adjust", out)
            rep = json.loads(out)
            assert rep["order"] == [render_id(e) for e in elements]
            adjusted = write(tmp_path, "adjusted.json", {"d": rep["d_prime"]})
            code, out = run_cli(capsys, "deviation", "check", "--lattice",
                                tree, "--map", adjusted)
            assert code == 0 and json.loads(out)["properties"]["monotone"]

    @pytest.mark.parametrize("order", ["{x},{w", "(),('x',)", "{},{x},q"])
    def test_order_not_naming_the_elements_exits_2(self, capsys, tmp_path,
                                                   order):
        tree = os.path.join(GOLDEN, "fixtures", "tree.json")
        _, out = run_cli(capsys, "deviation", "search", "--lattice", tree)
        found = write(tmp_path, "search.json", json.loads(out))
        code, out = run_cli(capsys, "adjust", "--lattice", tree,
                            "--map", found, "--order", order)
        assert code == 2 and out == ""

    def test_ambiguous_order_exits_2(self, capsys, tmp_path):
        """With ids a, b and "a,b", the text a,b,a,b reads as three
        different lists."""
        chain = write(tmp_path, "chain.json", {
            "elements": ["a", "a,b", "b"],
            "leq": [["a", "a,b"], ["a,b", "b"]]})
        dev = write(tmp_path, "dev.json", {"d": {
            "a,a": "a", "a,a,b": "a", "a,b": "a", "a,b,a": "a,b",
            "a,b,a,b": "a", "a,b,b": "a", "b,a": "b", "b,a,b": "b",
            "b,b": "a"}})
        code, _ = run_cli(capsys, "deviation", "check", "--lattice", chain,
                          "--map", dev)
        assert code == 0
        capsys.readouterr()
        code = main(["adjust", "--lattice", chain, "--map", dev,
                     "--order", "a,b,a,b"])
        captured = capsys.readouterr()
        assert code == 2 and "more than one" in captured.err

    @pytest.mark.parametrize("fixture", ["n5.json", "m3.json"])
    def test_non_distributive_lattice_exits_2(self, capsys, tmp_path,
                                              fixture):
        """Lattices admitted with check_distributive: false are refused
        by adjust as by deviation search."""
        lattice = os.path.join(GOLDEN, "fixtures", fixture)
        D = lattice_from_json(load_json(lattice))
        dev = write(tmp_path, "zero.json", {"d": {
            f"{x},{y}": str(D.bottom) for x in D.elements
            for y in D.elements}})
        for argv, what in (
                (["adjust", "--lattice", lattice, "--map", dev,
                  "--order", ",".join(map(str, D.elements))],
                 "monotone adjustment"),
                (["deviation", "search", "--lattice", lattice],
                 "deviation search")):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert f"{what} needs a distributive lattice" in captured.err

    @pytest.mark.parametrize("elements, leq, code", [
        (list("abcde"), [], 0),
        ([str(i) for i in range(12)],
         [[str(i), str((i - 1) // 2)] for i in range(1, 12)], 3)],
        ids=["b5", "tree"])
    def test_trace_pair_cap(self, capsys, tmp_path, elements, leq, code):
        """The naive trace of B5's first deviation, reversed enumeration,
        lists 57,814 pairs and is written; that of the 183-element
        down-set lattice of a 12-node binary tree lists 32.8 M, and adjust
        stops past MAX_TRACE_PAIRS instead of writing it."""
        obj = {"downsets_of": {"elements": elements, "leq": leq}}
        lattice = write(tmp_path, "lattice.json", obj)
        D = lattice_from_json(obj)
        dev = write(tmp_path, "dev.json",
                    deviation_to_json(deviations.search_deviation(D)))
        got, out, err, _ = timed(
            capsys, 20, "adjust", "--lattice", lattice, "--map", dev,
            "--order", ",".join(map(render_id, D.elements[::-1])))
        assert got == code
        if code == 0:
            trace = json.loads(out)["trace"].values()
            assert sum(len(e["meetands"]) + len(e["joinands"])
                       for e in trace) == 57_814
        else:
            assert out == "" and "meetand/joinand pairs" in err


def _main_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_run(argv):
    """Run the argv under the exit-code contract: exit 0-3; on exit 0 or
    1 a report in the chosen format (JSON valid against the
    subcommand's schema, text of one ``key: json`` line per key in key
    order that makes up such a report, or a DOT graph); on exit 2 or 3
    nothing on stdout and a message on stderr; and the same bytes again
    on the state the first run left.  Returns the exit code, stdout and
    stderr; under hypothesis, the exit code is also a test event."""
    cfg = config_from_args(_build_parser().parse_args(argv))
    code, out, err = _main_output(argv)
    if currently_in_test_context():
        event(f"{cfg.subcommand} --format {cfg.fmt} exit {code}")
    assert code in (0, 1, 2, 3)
    if code in (0, 1) and cfg.fmt == "dot":
        assert out.startswith("digraph")
    elif code in (0, 1):
        if cfg.fmt == "json":
            report = json.loads(out)
        else:
            assert out.endswith("\n")
            pairs = [line.partition(": ") for line in out[:-1].split("\n")]
            keys = [k for k, sep, _ in pairs if sep]
            assert len(keys) == len(pairs) and keys == sorted(set(keys))
            report = {k: json.loads(v) for k, _, v in pairs}
        jsonschema.validate(report, SCHEMAS[cfg.subcommand])
    else:
        assert out == "" and err
    assert _main_output(argv) == (code, out, err)
    return code, out, err


# Lattices for the adjust fuzz: string ids, tuple ids, not distributive.
FUZZ_FILES = [os.path.join(GOLDEN, "fixtures", name)
              for name in ("chain4.json", "tree.json", "n5.json")]
FUZZ_LATTICES = [lattice_from_json(load_json(f)) for f in FUZZ_FILES]


@st.composite
def adjust_inputs(draw):
    """A lattice file, a map with missing pairs, off-lattice values and
    ids rendered either way, and an --order text with duplicate, unknown
    or missing ids."""
    k = draw(st.integers(0, len(FUZZ_LATTICES) - 1))
    D = FUZZ_LATTICES[k]
    render = draw(st.sampled_from([str, render_id]))
    names = [render(e) for e in D.elements]
    n = len(names)
    values = draw(st.lists(st.sampled_from(names), min_size=n * n,
                           max_size=n * n))
    d = {f"{names[i // n]},{names[i % n]}": v for i, v in enumerate(values)}
    keys = list(d)
    # about half the inputs are left well formed
    edit = draw(st.sampled_from(["none"] * 5 + ["drop pairs", "bad values",
                                                "duplicate", "unknown",
                                                "missing"]))
    if edit == "drop pairs":
        for i in draw(st.lists(st.integers(0, n * n - 1), min_size=1,
                               max_size=2)):
            d.pop(keys[i], None)
    elif edit == "bad values":
        for i, bad in draw(st.lists(st.tuples(
                st.integers(0, n * n - 1),
                st.sampled_from(["q", "", "{x}"])), min_size=1, max_size=2)):
            d[keys[i]] = bad
    order = draw(st.permutations(names))
    if edit == "duplicate":
        order.insert(draw(st.integers(0, n)), draw(st.sampled_from(names)))
    elif edit == "unknown":
        order.insert(draw(st.integers(0, n)),
                     draw(st.sampled_from(["q", "", "{q}", "(1,)"])))
    elif edit == "missing":
        order.pop(draw(st.integers(0, n - 1)))
    return FUZZ_FILES[k], {"d": d}, ",".join(order)


@given(adjust_inputs(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_adjust_fuzz_exit_codes_and_schema(inputs, use_shadows):
    """The exit-code contract (``_check_run``); adjust has no false
    verdict, so it never exits 1."""
    lattice, dev, order = inputs
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "map.json")
        with open(path, "w") as fh:
            json.dump(dev, fh)
        code, _, _ = _check_run(
            ["adjust", "--lattice", lattice, "--map", path,
             f"--order={order}"] + (["--use-shadows"] if use_shadows else []))
    assert code != 1


# Lattice files of at most 12 elements (distributive or not, completely
# normal or not, a down-set lattice, a poset that is no lattice), files
# of other kinds and a missing path, and deviation maps for chain4 and
# for tree_lattice.
_LATTICE_FILES = [_fixture(f"{name}.json") for name in (
    "chain4", "b3", "grid", "tree", "tree_lattice", "ncn", "m3", "n5",
    "n5_strict", "nonlattice", "chain6_bottom_last")]
_OTHER_FILES = [_fixture(f"{name}.json") for name in (
    "poset9", "witness9", "sl_box", "amalgam", "absent")]
_MAP_FILES = [_fixture(f"{name}.json") for name in (
    "chain4_bumped", "chain4_bad", "tree_map")]


@st.composite
def order_argv(draw):
    """``lattice check`` (with or without --prime-ideals) or ``deviation
    check|search|enumerate`` argv on the files above: a map or another
    file for check (three maps in four on their own lattice), --monotone
    and --cevian for search, --limit from -2 to 25 for enumerate, each
    under --format json, text or dot."""
    sub = draw(st.sampled_from(["check", "search", "enumerate"]))
    lattice = draw(st.sampled_from(_LATTICE_FILES + _OTHER_FILES))
    fmt = ["--format", draw(st.sampled_from(["json", "text", "dot"]))]
    if draw(st.integers(0, 3)) == 0:
        return fmt + ["lattice", "check", lattice] + (
            ["--prime-ideals"] if draw(st.booleans()) else [])
    if sub == "check":
        deviation = draw(st.sampled_from(_MAP_FILES)
                         | st.sampled_from(_OTHER_FILES))
        if deviation in _MAP_FILES and draw(st.integers(0, 3)):
            lattice = _fixture("tree_lattice.json" if "tree" in deviation
                               else "chain4.json")
        return fmt + ["deviation", "check", "--lattice", lattice,
                      "--map", deviation]
    argv = fmt + ["deviation", sub, "--lattice", lattice]
    if sub == "search":
        return argv + [flag for flag in ("--monotone", "--cevian")
                       if draw(st.booleans())]
    return argv + ["--limit", str(draw(st.integers(-2, 25)))]


@given(order_argv())
@settings(max_examples=400, deadline=None)
def test_order_fuzz_exit_codes_schema_and_rerun(argv):
    """The exit-code contract (``_check_run``) for the lattice and
    deviation subcommands."""
    _check_run(argv)


def term_texts(n: int):
    """Term texts over g0..g{n-1}, one and rational constants, with
    nested bars, 0*(...), scaling, negation, ^+, sums, differences,
    joins and meets."""
    leaves = st.sampled_from([f"g{i}" for i in range(n)]
                             + ["one", "0", "2", "1/2"])

    def extend(inner):
        unary = st.tuples(st.sampled_from(
            ["|{}|", "0*({})", "3/2*({})", "-({})", "({})^+"]), inner).map(
            lambda p: p[0].format(p[1]))
        binary = st.tuples(inner, st.sampled_from(
            [" + ", " - ", " \\/ ", " /\\ "]), inner).map(
            lambda p: f"({p[0]}{p[1]}{p[2]})")
        return unary | binary
    return st.recursive(leaves, extend, max_leaves=8)


@st.composite
def vlat_argv(draw):
    """``vlat leq`` or ``vlat cevian`` argv: term texts in dimension
    1-3, with or without --omega, and --cell-ceiling from 1 up or absent;
    one text in ten drawn from the token soup of the parser's
    differential test (mostly malformed), one of the others in ten cut
    short, and one dimension in ten too small."""
    sub = draw(st.sampled_from(["leq", "cevian"]))
    names = ["--lhs", "--rhs"] if sub == "leq" else ["--g", "--h", "--k"]
    n = draw(st.integers(1, 3))
    argv = []
    for name in names:
        if draw(st.integers(0, 9)) == 0:
            text = token_soup(random.Random(draw(st.integers(0, 2 ** 32))))
        else:
            text = draw(term_texts(n))
            if draw(st.integers(0, 9)) == 0:
                text = text[:draw(st.integers(0, len(text)))]
        argv.append(f"{name}={text}")
    if draw(st.integers(0, 9)) == 0:
        n = draw(st.integers(-1, n - 1))
    argv += ["--n", str(n)]
    if draw(st.booleans()):
        argv.append("--omega")
    ceiling = draw(st.one_of(st.none(), st.integers(1, 8)))
    top = [] if ceiling is None else ["--cell-ceiling", str(ceiling)]
    return top + ["vlat", sub] + argv


@given(vlat_argv())
@settings(max_examples=200, deadline=None)
def test_vlat_fuzz_exit_codes_and_schema(argv):
    """The exit-code contract (``_check_run``).  The witness of a false
    verdict is found by a walk that builds no intersection, so an exit-1
    ``vlat leq`` prints what the run without --cell-ceiling prints."""
    code, out, _ = _check_run(argv)
    if code == 1 and "leq" in argv and argv[0] == "--cell-ceiling":
        assert _main_output(argv[2:])[:2] == (1, out)


@st.composite
def probe_argv(draw):
    """``vlat noiso-probe`` or ``vlat pscom-probe`` argv with small
    parameters: --k, --m and --n for the first; --n, --alpha, --c,
    --count up to 3 and --depth up to 2 for the second.  One argv in
    four puts one parameter out of range, or --c malformed;
    --cell-ceiling is from 1 to 8 or absent."""
    sub = draw(st.sampled_from(["noiso-probe", "pscom-probe"]))
    bad = draw(st.integers(0, 3)) == 0
    if sub == "noiso-probe":
        values = {"k": draw(st.integers(1, 8)), "m": draw(st.integers(1, 4)),
                  "n": draw(st.integers(1, 4))}
        if bad:
            values[draw(st.sampled_from(sorted(values)))] = \
                draw(st.integers(-1, 0))
    else:
        n = draw(st.integers(2, 4))
        values = {"n": n, "alpha": draw(st.integers(1, n - 1)),
                  "c": draw(st.sampled_from(["1", "1/2", "3/2", "2"])),
                  "count": draw(st.integers(0, 3)),
                  "depth": draw(st.integers(0, 2))}
        if bad:
            name = draw(st.sampled_from(["n", "alpha", "c"]))
            values[name] = draw(st.sampled_from({
                "n": [0, 1], "alpha": [0, n],
                "c": ["0", "-1", "1/0", "half", "", "1/2/3"]}[name]))
    ceiling = draw(st.one_of(st.none(), st.integers(1, 8)))
    top = [] if ceiling is None else ["--cell-ceiling", str(ceiling)]
    return top + ["vlat", sub] + [f"--{k}={v}" for k, v in values.items()]


@given(probe_argv())
@settings(max_examples=150, deadline=None)
def test_probe_fuzz_exit_codes_schema_and_rerun(argv):
    _check_run(argv)


_SETS = sorted(name for name in os.listdir(os.path.join(GOLDEN, "fixtures"))
               if name.startswith("sl_") and name.endswith(".json"))


@st.composite
def semilinear_argv(draw):
    """``semilinear includes`` or ``semilinear shadow`` argv on the
    ``sl_*`` fixtures (dimensions 2-4, so some pairs disagree), with
    --cell-ceiling from 1 to 8 or absent.  Shadow --vars texts are
    index lists in range, out of range or negative, or malformed."""
    sub = draw(st.sampled_from(["includes", "shadow"]))
    sets = st.sampled_from(_SETS).map(_fixture)
    if sub == "includes":
        argv = ["--outer", draw(sets), "--inner", draw(sets)]
    else:
        indices = st.lists(st.integers(-1, 4), max_size=4).map(
            lambda vs: ",".join(map(str, vs)))
        malformed = st.sampled_from(["x", "0,,1", "1;2", " ", "0,", "1.5"])
        argv = ["--set", draw(sets),
                "--vars=" + draw(st.one_of(indices, malformed))]
        kind = draw(st.sampled_from([None, "upper", "lower"]))
        if kind is not None:
            argv += ["--kind", kind]
    ceiling = draw(st.one_of(st.none(), st.integers(1, 8)))
    top = [] if ceiling is None else ["--cell-ceiling", str(ceiling)]
    return top, ["semilinear", sub] + argv


def _clear_caches():
    """Empty every ``functools`` cache in the modules of ``latdev``."""
    for module in vars(latdev).values():
        if inspect.ismodule(module):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@given(semilinear_argv())
@settings(max_examples=200, deadline=None)
def test_semilinear_fuzz_exit_codes_schema_and_warm_caches(drawn):
    """The exit-code contract (``_check_run``) from empty caches.  The
    argv then runs again after a run without --cell-ceiling has cached
    its results at the default ceiling: same exit code, same bytes, so a
    result cached at one ceiling never answers for another."""
    top, cmd = drawn
    _clear_caches()
    first = _check_run(top + cmd)
    _main_output(cmd)
    assert _main_output(top + cmd) == first


# A poset whose ids hold commas, so that "a,b" names one id or two, and
# a witness for it; the fuzz below writes both into its own directory.
_COMMA_POSET = {"elements": ["a", "b", "a,b", "{a}", "c"],
                "leq": [["a", "a,b"], ["b", "a,b"], ["{a}", "c"]]}
_COMMA_WITNESS = {"A": {x: [x] for x in _COMMA_POSET["elements"]},
                  "B": {"a": ["a"], "b": ["b"], "a,b": ["a", "a,b", "b"],
                        "{a}": ["{a}"], "c": ["c", "{a}"]}}
# Documents of every kind (and a path that does not exist) for each
# file option, so that a poset may be given a witness file and so on.
_POSET_FILES = [_fixture("poset9.json"), "comma.json",
                _fixture("amalgam.json"), _fixture("absent.json")]
_WITNESS_FILES = [_fixture("witness9.json"), _fixture("witness9_bad.json"),
                  "comma_witness.json", _fixture("poset9.json"),
                  _fixture("amalgam_blocks.json"), _fixture("absent.json")]
_SPEC_FILES = [_fixture("amalgam.json"), _fixture("amalgam_bad.json"),
               _fixture("poset9.json"), _fixture("absent.json")]


@st.composite
def poset_argv(draw):
    """``poset witness|order|amalgam`` argv over the files above.  A
    witness --order is a permutation of the ids of poset9 or of the comma
    poset, with one id repeated, dropped or replaced by an unknown text
    (the empty string among them), or the empty text itself."""
    sub = draw(st.sampled_from(["order", "amalgam", "witness"]))
    if sub == "order":
        return ["poset", "order", "--poset", draw(st.sampled_from(
            _POSET_FILES)), "--witness", draw(st.sampled_from(
                _WITNESS_FILES))]
    if sub == "amalgam":
        argv = ["poset", "amalgam", "--spec",
                draw(st.sampled_from(_SPEC_FILES))]
        blocks = draw(st.sampled_from([None] + _WITNESS_FILES))
        return argv + ([] if blocks is None else
                       ["--block-witnesses", blocks])
    poset = draw(st.sampled_from(_POSET_FILES))
    ids = _COMMA_POSET["elements"] if poset == "comma.json" else \
        [str(i) for i in range(9)]
    order = draw(st.permutations(ids))
    edit = draw(st.sampled_from(["none", "duplicate", "missing", "unknown",
                                 "empty"]))
    if edit == "duplicate":
        order.insert(draw(st.integers(0, len(order))),
                     draw(st.sampled_from(ids)))
    elif edit == "missing":
        order.pop(draw(st.integers(0, len(order) - 1)))
    elif edit == "unknown":
        order[draw(st.integers(0, len(order) - 1))] = draw(
            st.sampled_from(["", "q", "9", "{a,b}", "a,"]))
    elif edit == "empty":
        order = []
    argv = ["poset", "witness", "--poset", poset]
    return argv + ([] if draw(st.integers(0, 9)) == 0
                   else [f"--order={','.join(order)}"])


@given(poset_argv())
@settings(max_examples=300, deadline=None)
def test_poset_fuzz_exit_codes_schema_and_rerun(argv):
    """The exit-code contract (``_check_run``), reruns included."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in (("comma.json", _COMMA_POSET),
                          ("comma_witness.json", _COMMA_WITNESS)):
            with open(os.path.join(tmp, name), "w") as fh:
                json.dump(doc, fh)
        argv = [os.path.join(tmp, a) if a.startswith("comma") else a
                for a in argv]
        _check_run(argv)


# A fixture document per input format and the argv that reads it ("{}"
# marks the document's file); the amalgam spec gets a nu for its blocks.
_AMALGAM = {**load_json(_fixture("amalgam.json")),
            "nu": {x: "r" for x in "abcde"}}
DOCUMENT_RUNS = [
    (name if isinstance(name, dict) else load_json(_fixture(name)),
     [_fixture(a) if a.endswith(".json") else a for a in argv])
    for name, argv in [
        ("poset9.json", ["poset", "witness", "--poset", "{}"]),
        ("poset9.json", ["poset", "order", "--poset", "{}",
                         "--witness", "witness9.json"]),
        ("witness9.json", ["poset", "order", "--poset", "poset9.json",
                           "--witness", "{}"]),
        ("chain4.json", ["lattice", "check", "{}"]),
        ("chain4.json", ["deviation", "check", "--lattice", "{}",
                         "--map", "chain4_bumped.json"]),
        ("tree.json", ["deviation", "search", "--lattice", "{}"]),
        ("chain4_bumped.json", ["deviation", "check", "--lattice",
                                "chain4.json", "--map", "{}"]),
        (_AMALGAM, ["poset", "amalgam", "--spec", "{}",
                    "--block-witnesses", "amalgam_blocks.json"]),
        ("amalgam_blocks.json", ["poset", "amalgam", "--spec",
                                 "amalgam.json", "--block-witnesses", "{}"]),
        ("sl_inner.json", ["semilinear", "includes", "--outer",
                           "sl_outer.json", "--inner", "{}"]),
        ("sl_outer.json", ["semilinear", "includes", "--outer", "{}",
                           "--inner", "sl_inner.json"]),
        ("sl_shadow.json", ["semilinear", "shadow", "--set", "{}",
                            "--vars", "0,2"]),
    ]]


def _paths(doc, path=()):
    """The path of the document and of every value nested in it."""
    yield path
    if isinstance(doc, (list, dict)):
        for k in (range(len(doc)) if isinstance(doc, list) else doc):
            yield from _paths(doc[k], path + (k,))


def _at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


# Any JSON value: null, booleans, integers, finite floats, short texts
# (ids and atoms of the fixtures among them), lists and objects.  At most
# 6 leaves, so a replaced poset under "downsets_of" has at most 2^6
# down-sets (that lattice grows exponentially: its ceiling of 4,096
# elements takes seconds to build).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3) | st.sampled_from(["0", "1", "a", "r", "x0 > 0"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2) | st.sampled_from(["0", "a"]),
                      inner, max_size=3),
    max_leaves=6)


@st.composite
def hostile_documents(draw):
    """A fixture run with the whole document, or one value at any depth
    in it, replaced by an arbitrary JSON value or, one time in three, by
    a text the document holds elsewhere (an id or an atom)."""
    doc, argv = draw(st.sampled_from(DOCUMENT_RUNS))
    paths = list(_paths(doc))
    path = draw(st.sampled_from(paths))
    values = [_at(doc, p) for p in paths]
    texts = sorted({v for v in values if isinstance(v, str)})
    value = draw(st.sampled_from(texts)) if draw(st.integers(0, 2)) == 0 \
        else draw(JSON_VALUES)
    if not path:
        return value, argv
    doc = copy.deepcopy(doc)
    _at(doc, path[:-1])[path[-1]] = value
    return doc, argv


@given(hostile_documents())
@settings(max_examples=500, deadline=None)
def test_document_fuzz_exit_codes_and_schema(run):
    """The exit-code contract (``_check_run``) on a hostile document."""
    doc, argv = run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        _check_run([path if a == "{}" else a for a in argv])


class TestPoset:
    def test_witness_and_order_roundtrip(self, capsys, tmp_path):
        p = write(tmp_path, "v.json", {
            "elements": ["a", "b", "c"], "leq": [["a", "c"], ["b", "c"]]})
        code, out = run_cli(capsys, "poset", "witness", "--poset", p,
                            "--order", "a,b,c")
        assert code == 0
        rep = json.loads(out)
        assert rep["valid"] and rep["B"]["c"] == ["a", "b", "c"]
        schema_check("poset witness", out)
        w = write(tmp_path, "w.json", {"A": rep["A"], "B": rep["B"]})
        code, out = run_cli(capsys, "poset", "order", "--poset", p,
                            "--witness", w)
        assert code == 0
        schema_check("poset order", out)

    @pytest.mark.parametrize("order, A, B", [
        ("a,b,c", {"a,b": ["a,b"], "c": ["c"]},
         {"a,b": ["a,b"], "c": ["a,b", "c"]}),
        ("c,a,b", {"a,b": ["a,b", "c"], "c": ["c"]},
         {"a,b": ["a,b"], "c": ["c"]}),
    ])
    def test_witness_order_ids_with_commas(self, capsys, tmp_path, order,
                                           A, B):
        """--order cuts the text only where both sides name elements, as
        adjust --order does."""
        p = write(tmp_path, "comma.json", {
            "elements": ["a,b", "c"], "leq": [["a,b", "c"]]})
        code, out = run_cli(capsys, "poset", "witness", "--poset", p,
                            "--order", order)
        assert code == 0
        assert json.loads(out) == {"A": A, "B": B, "valid": True}

    @pytest.mark.parametrize("elements", [["a,b", "c"], []])
    def test_witness_order_unknown_id_exits_2(self, capsys, tmp_path,
                                              elements):
        p = write(tmp_path, "p.json", {"elements": elements, "leq": []})
        code, out = run_cli(capsys, "poset", "witness", "--poset", p,
                            "--order", "a,b,z")
        assert code == 2 and out == ""

    def test_witness_empty_order_exits_2(self, capsys):
        """An empty --order names no element, as for adjust --order=; it
        is not the absent option."""
        code = main(["poset", "witness", "--poset", _fixture("poset9.json"),
                     "--order="])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "'' is not a list of elements" in err

    def test_order_invalid_witness_exits_2(self, capsys, tmp_path):
        p = write(tmp_path, "c2.json",
                  {"elements": ["0", "1"], "leq": [["0", "1"]]})
        w = write(tmp_path, "bad_w.json", {
            "A": {"0": [], "1": ["1"]}, "B": {"0": ["0"], "1": ["1"]}})
        code, _ = run_cli(capsys, "poset", "order", "--poset", p,
                          "--witness", w)
        assert code == 2

    def test_amalgam_check_and_witness(self, capsys, tmp_path):
        sq = {"elements": ["e", "p", "q", "pq"],
              "leq": [["e", "p"], ["e", "q"], ["p", "pq"], ["q", "pq"]]}
        spec = write(tmp_path, "am.json", {
            "carrier": sq,
            "index": {"elements": ["lo", "hi"], "leq": [["lo", "hi"]]},
            "family": {"lo": ["e", "p"],
                       "hi": ["e", "p", "q", "pq"]},
            "nu": {"e": "lo", "p": "lo", "q": "hi", "pq": "hi"}})
        code, out = run_cli(capsys, "poset", "amalgam", "--spec", spec)
        assert code == 0 and json.loads(out)["ok"]
        schema_check("poset amalgam", out)
        blocks = write(tmp_path, "blocks.json", {
            "lo": {"A": {"e": ["e", "p"], "p": ["p"]},
                   "B": {"e": ["e"], "p": ["e", "p"]}},
            "hi": {"A": {"e": ["e", "p", "q", "pq"], "p": ["p", "pq"],
                         "q": ["q", "pq"], "pq": ["pq"]},
                   "B": {"e": ["e"], "p": ["e", "p"], "q": ["e", "q"],
                         "pq": ["e", "p", "q", "pq"]}}})
        code, out = run_cli(capsys, "poset", "amalgam", "--spec", spec,
                            "--block-witnesses", blocks)
        assert code == 0 and json.loads(out)["witness_valid"]

    def test_amalgam_union_violation_exits_1(self, capsys, tmp_path):
        spec = write(tmp_path, "bad_am.json", {
            "carrier": {"elements": ["x", "y"], "leq": []},
            "index": {"elements": ["p"], "leq": []},
            "family": {"p": ["x"]}})
        code, out = run_cli(capsys, "poset", "amalgam", "--spec", spec)
        assert code == 1
        assert json.loads(out)["violation"]["clause"] == "union"


class TestSemilinear:
    def test_includes_true_false(self, capsys, tmp_path):
        outer = write(tmp_path, "outer.json",
                      {"dimension": 2, "cells": [["x0 > 0"]]})
        inner = write(tmp_path, "inner.json",
                      {"dimension": 2, "cells": [["x0 > 0", "x1 > 0"]]})
        code, out = run_cli(capsys, "semilinear", "includes",
                            "--outer", outer, "--inner", inner)
        assert code == 0 and json.loads(out)["includes"]
        schema_check("semilinear includes", out)
        code, out = run_cli(capsys, "semilinear", "includes",
                            "--outer", inner, "--inner", outer)
        rep = json.loads(out)
        assert code == 1 and not rep["includes"] and rep["witness"]

    def test_shadow(self, capsys, tmp_path):
        U = write(tmp_path, "u.json",
                  {"dimension": 2, "cells": [["x0 > 0", "x1 > 0"]]})
        code, out = run_cli(capsys, "semilinear", "shadow", "--set", U,
                            "--vars", "0", "--kind", "upper")
        assert code == 0
        rep = json.loads(out)
        assert rep["cells"] == [["x0 > 0"]]
        schema_check("semilinear shadow", out)

    @pytest.mark.parametrize("kind", ["upper", "lower"])
    @pytest.mark.parametrize("kept", ["x", "0,,1", "9", "-1", "0,3"])
    def test_shadow_bad_vars_exit_2(self, capsys, kind, kept):
        """Kept variables must be indices 0..2 of the 3-dimensional set:
        an index out of range would project every variable away."""
        U = os.path.join(GOLDEN, "fixtures", "sl_shadow.json")
        code = main(["semilinear", "shadow", "--set", U, "--vars", kept,
                     "--kind", kind])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("input error")

    def test_zero_denominator_exits_2(self, capsys, tmp_path):
        bad = write(tmp_path, "bad.json",
                    {"dimension": 1, "cells": [["x0 > 1/0"]]})
        good = write(tmp_path, "good.json",
                     {"dimension": 1, "cells": [["x0 > 0"]]})
        code, out = run_cli(capsys, "semilinear", "includes",
                            "--outer", good, "--inner", bad)
        assert code == 2 and out == ""
        code, out = run_cli(capsys, "semilinear", "shadow", "--set", bad,
                            "--vars", "0")
        assert code == 2 and out == ""

    def test_ceiling_exit_3(self, capsys, tmp_path):
        cells = [[f"x{i} = 0"] for i in range(6)]
        U = write(tmp_path, "big.json", {"dimension": 6, "cells": cells})
        T = write(tmp_path, "whole.json", {"dimension": 6, "cells": [[]]})
        code, _ = run_cli(capsys, "--cell-ceiling", "8",
                          "semilinear", "includes", "--outer", U,
                          "--inner", T)
        assert code == 3

    def test_elimination_row_ceiling_exits_3(self, capsys, tmp_path):
        """One cell of 40 strict atoms, 20 lower and 20 upper bounds on
        x0: eliminating x2 would build 12,964,734 rows, so ``includes``
        stops at MAX_FM_ROWS instead of running for minutes."""
        rng = random.Random(1)
        atoms = []
        for _ in range(20):
            for s in (1, -1):
                a, b = rng.randint(-5, 5), rng.randint(-5, 5)
                c = rng.randint(1, 9)
                atoms.append(f"{form([s, a, b], c)} > 0")
        E = write(tmp_path, "empty.json", {"dimension": 3, "cells": []})
        T = write(tmp_path, "cell.json", {"dimension": 3, "cells": [atoms]})
        code, out, err, _ = timed(capsys, 10, "semilinear", "includes",
                                  "--outer", E, "--inner", T)
        assert code == 3 and out == ""
        assert "eliminating x2 would build 12964734 rows" in err


class TestHostileJson:
    """A document of the wrong shape is an input error (exit 2), not a
    traceback (exit 1, which means "false with a witness")."""

    @pytest.mark.parametrize("argv, doc", [
        (["lattice", "check", "{}"], {"elements": 5}),
        (["lattice", "check", "{}"], None),
        (["lattice", "check", "{}"], {"elements": ["a", "b"],
                                      "leq": [["a"]]}),
        (["lattice", "check", "{}"], {"elements": ["a", "b"], "leq": "ab"}),
        (["lattice", "check", "{}"], {"elements": ["a", "b"],
                                      "leq": [["a", "b", "b"]]}),
        (["lattice", "check", "{}"], {"downsets_of": [1]}),
        (["lattice", "check", "{}"], {"elements": ["a"],
                                      "check_distributive": "no"}),
        (["poset", "witness", "--poset", "{}"], {"elements": [["a"]]}),
        (["semilinear", "includes", "--outer", "{}", "--inner",
          _fixture("sl_inner.json")], {"dimension": 1, "cells": [[3]]}),
        (["semilinear", "includes", "--outer", "{}", "--inner",
          _fixture("sl_inner.json")], {"dimension": 1, "cells": 3}),
        (["semilinear", "shadow", "--set", "{}", "--vars", "0"],
         {"dimension": 1, "cells": [[3]]}),
        (["semilinear", "shadow", "--set", "{}", "--vars", "0"],
         {"dimension": 1, "cells": 3}),
        (["semilinear", "shadow", "--set", "{}", "--vars", "0"],
         {"dimension": True, "cells": []}),
        (["semilinear", "shadow", "--set", "{}", "--vars", "0"],
         {"dimension": -1, "cells": []}),
        (["poset", "amalgam", "--spec", "{}"],
         {**load_json(_fixture("amalgam.json")), "nu": [1]}),
        (["poset", "amalgam", "--spec", _fixture("amalgam.json"),
          "--block-witnesses", "{}"], [1]),
        (["poset", "order", "--poset", _fixture("poset9.json"),
          "--witness", "{}"], {"A": {"0": "0"}, "B": {}}),
    ], ids=["elements-int", "null", "leq-single", "leq-text", "leq-triple",
            "downsets-of-list", "check-distributive-text", "id-list",
            "includes-atom-int", "includes-cells-int", "shadow-atom-int",
            "shadow-cells-int", "dimension-bool", "dimension-negative",
            "nu-list", "block-witnesses-list", "witness-text"])
    def test_malformed_document_exits_2(self, capsys, tmp_path, argv, doc):
        path = write(tmp_path, "doc.json", doc)
        code = main([path if a == "{}" else a for a in argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("input error")

    @pytest.mark.parametrize("argv, text, message", [
        (["lattice", "check", "{}"], '{"elements": [', "invalid JSON in "),
        (["deviation", "check", "--lattice", "chain2", "--map", "{}"],
         json.dumps({"d": {"01": "0"}}), "bad pair key '01'"),
        (["deviation", "check", "--lattice", "chain2", "--map", "{}"],
         json.dumps({"d": {"0,1,1": "0"}}), "bad pair key '0,1,1'"),
        (["poset", "amalgam", "--spec", _fixture("amalgam.json"),
          "--block-witnesses", "{}"],
         json.dumps({p: w for p, w in load_json(
             _fixture("amalgam_blocks.json")).items() if p != "q"}),
         "missing block witness for 'q'"),
    ], ids=["invalid-json", "pair-key-no-comma", "pair-key-two-commas",
            "missing-block-witness"])
    def test_unreadable_input_exits_2_with_message(self, tmp_path, argv,
                                                   text, message):
        files = {"{}": tmp_path / "doc.json", "chain2": tmp_path / "c2.json"}
        files["{}"].write_text(text)
        files["chain2"].write_text(json.dumps(
            {"elements": ["0", "1"], "leq": [["0", "1"]]}))
        code, _, err = _check_run([str(files.get(a, a)) for a in argv])
        assert code == 2 and err.startswith(f"input error: {message}")

    def test_dimension_above_ceiling_exits_3(self, capsys, tmp_path):
        path = write(tmp_path, "doc.json",
                     {"dimension": 10 ** 12, "cells": [["x0 > 0"]]})
        code = main(["semilinear", "shadow", "--set", path, "--vars", "0"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""


class TestVlat:
    def test_leq(self, capsys):
        code, out = run_cli(capsys, "vlat", "leq", "--n", "2",
                            "--lhs", "|g0|", "--rhs", "|g0| \\/ |g1|")
        assert code == 0 and json.loads(out)["leq"]
        schema_check("vlat leq", out)
        code, out = run_cli(capsys, "vlat", "leq", "--n", "2",
                            "--lhs", "|g0| \\/ |g1|", "--rhs", "|g0|")
        assert code == 1 and json.loads(out)["witness"]

    def test_zero_denominator_exits_2(self, capsys):
        code, out = run_cli(capsys, "vlat", "leq", "--lhs", "1/0*g0",
                            "--rhs", "g0", "--n", "1")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("argv, message", [
        (["vlat", "leq", "--n", "2", "--lhs", "g\u0661", "--rhs", "g0"],
         "cannot tokenize term"),
        (["vlat", "cevian", "--n", "1", "--g", "\u0661/2*g0", "--h", "g0",
          "--k", "g0"], "cannot tokenize term"),
        (["vlat", "pscom-probe", "--n", "2", "--alpha", "1", "--c",
          "\u0661", "--count", "1"], "not a rational number"),
        (["semilinear", "shadow", "--set", "{}", "--vars", "0"],
         "cannot parse linear form"),
    ], ids=["generator", "scalar", "probe-c", "set-document"])
    def test_non_ascii_digit_exits_2(self, tmp_path, argv, message):
        path = write(tmp_path, "doc.json", {"dimension": 2,
                                            "cells": [["x\u0661 > 0"]]})
        code, _, err = _check_run([path if a == "{}" else a for a in argv])
        assert code == 2 and err.startswith(f"input error: {message}")

    @pytest.mark.parametrize("term", [
        "(" * 2000 + "g0" + ")" * 2000,
        "-" * 2000 + "g0",
        "g0" + "^+" * 2000,
        " + ".join(["g0"] * 2000),
    ], ids=["parens", "minus", "postfix", "sum"])
    def test_deep_term_exits_2(self, capsys, term):
        code, out = run_cli(capsys, "vlat", "leq", f"--lhs={term}",
                            "--rhs", "g0", "--n", "1")
        assert code == 2 and out == ""
        code, out = run_cli(capsys, "vlat", "cevian", "--n", "1",
                            "--g", "g0", f"--h={term}", "--k", "g0")
        assert code == 2 and out == ""

    def test_nested_bars_true_under_a_second(self, capsys):
        """|t| holds t twice: 30 nested bars are 2^30 paths, 60 nodes."""
        lhs = "|" * 30 + "g0" + "|" * 30
        code, out, _, wall = timed(capsys, 10, "vlat", "leq", "--n", "1",
                                   "--lhs", lhs, "--rhs", "g0")
        assert code == 0 and json.loads(out) == {"leq": True, "witness": None}
        assert wall < 1

    def test_nested_bars_false_under_a_second(self, capsys):
        lhs = "|" * 30 + "g0 - g1" + "|" * 30
        code, out, _, wall = timed(capsys, 10, "vlat", "leq", "--n", "2",
                                   "--lhs", lhs, "--rhs", "g0")
        rep = json.loads(out)
        assert code == 1 and not rep["leq"]
        w = [Fraction(v) for v in rep["witness"]]
        assert evaluate(parse_term("g0"), w) == 0
        assert evaluate(parse_term(lhs), w) != 0
        assert wall < 1

    def test_leq_witness_past_the_cell_ceiling(self, capsys):
        """The witness of a false verdict is found by a walk that builds
        no intersection, so --cell-ceiling does not bound it: the report
        is the one at the default ceiling."""
        argv = ["vlat", "leq", "--n", "2", "--lhs", "|g0|",
                "--rhs", "(2*g0 - g1)^+"]
        code, out = run_cli(capsys, "--cell-ceiling", "2", *argv)
        assert (code, out) == run_cli(capsys, *argv)
        assert code == 1 and json.loads(out)["witness"] == ["1/2", "1"]

    def test_cevian(self, capsys):
        code, out = run_cli(capsys, "vlat", "cevian", "--n", "3",
                            "--g", "g0", "--h", "g1", "--k", "g2")
        assert code == 0 and json.loads(out)["cevian"]
        schema_check("vlat cevian", out)

    def test_noiso_probe_anchor(self, capsys):
        code, out = run_cli(capsys, "vlat", "noiso-probe",
                            "--k", "3", "--m", "1", "--n", "2")
        assert code == 0
        rep = json.loads(out)
        assert rep["reproduced"]
        assert rep["primary"]["anchor"] == ["1/2", "1"]
        schema_check("vlat noiso-probe", out)

    def test_noiso_probe_guard_exit_2(self, capsys):
        code, _ = run_cli(capsys, "vlat", "noiso-probe",
                          "--k", "1", "--m", "1", "--n", "1")
        assert code == 2

    def test_noiso_probe_k_above_cap_exits_2(self, capsys):
        """2^(k-1) with k = 20000 has more digits than Python prints."""
        for k in ("20000", str(MAX_NOISO_K + 1)):
            code, out = run_cli(capsys, "vlat", "noiso-probe",
                                "--k", k, "--m", "1", "--n", "1")
            assert code == 2 and out == ""
        code, out = run_cli(capsys, "vlat", "noiso-probe",
                            "--k", str(MAX_NOISO_K), "--m", "1", "--n", "1")
        assert code == 0 and json.loads(out)["reproduced"]

    @pytest.mark.parametrize("c", ["1/0", "half"])
    def test_pscom_probe_bad_c_exits_2(self, capsys, c):
        code, out = run_cli(capsys, "vlat", "pscom-probe", "--n", "3",
                            "--alpha", "1", "--c", c, "--count", "2")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("argv", [
        ("--n", "0", "--count", "2"), ("--n", "1", "--count", "2"),
        ("--count", "-3"), ("--depth", "-1"),
    ], ids=["n0", "n1", "count", "depth"])
    def test_pscom_probe_bad_parameters_exit_2(self, capsys, argv):
        """n and alpha are checked before a random probe is drawn (with
        n = 0 there is no generator to draw)."""
        code, out = run_cli(capsys, "vlat", "pscom-probe", *argv)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("depth", ["17", "100000"])
    def test_pscom_probe_depth_above_cap_exits_2(self, capsys, depth):
        """Random probe terms double at each binary operator: a depth
        above MAX_PROBE_DEPTH is refused before any term is drawn."""
        code, out, err, _ = timed(capsys, 1, "vlat", "pscom-probe",
                                  "--depth", depth)
        assert code == 2 and out == ""
        assert "--depth must be at most 16" in err

    def test_pscom_probe_long_term_text_exits_3(self, capsys, tmp_path):
        """30 nested bars are 60 nodes but a text of ~14e9 characters:
        the report refuses to write it instead of building it."""
        probes = tmp_path / "bars.txt"
        probes.write_text("g0\n" + "|" * 30 + "g0" + "|" * 30 + "\n")
        code, out, err, _ = timed(capsys, 1, "vlat", "pscom-probe",
                                  "--probes", str(probes))
        assert code == 3 and out == ""
        assert "13958643701 characters" in err

    def test_pscom_probe_names_the_bad_line(self, tmp_path):
        probes = tmp_path / "probes.txt"
        probes.write_text("g0\n\n|g1| \\/ x\n-g0\n")
        code, _, err = _check_run(["vlat", "pscom-probe",
                                   "--probes", str(probes)])
        assert code == 2
        assert err == "input error: probes line 3: cannot tokenize term " \
                      "at: ' x'\n"

    def test_pscom_probe_unreadable_file_exits_2(self, capsys, tmp_path):
        binary = tmp_path / "binary.txt"
        binary.write_bytes(b"g0 \xd0\xff\n")
        for path in (tmp_path / "absent.txt", binary):
            code, out = run_cli(capsys, "vlat", "pscom-probe",
                                "--probes", str(path))
            assert code == 2 and out == ""

    @pytest.mark.parametrize("argv", [
        ("leq", "--n", "10001", "--lhs", "g0", "--rhs", "g1"),
        ("leq", "--omega", "--n", "101", "--lhs", "g0", "--rhs", "g1"),
        ("pscom-probe", "--n", "101"),
    ], ids=["leq", "leq-omega", "pscom-probe"])
    def test_dimension_above_ceiling_exits_3(self, capsys, argv):
        """Terms live in dimension at most semilinear.MAX_DIMENSION and
        the region in at most vlterms.MAX_REGION_DIMENSION."""
        code, out, err, _ = timed(capsys, 1, "vlat", *argv)
        assert code == 3 and out == "" and "exceeds ceiling" in err

    @pytest.mark.parametrize("argv", [
        ("leq", "--n", "-1", "--lhs", "one", "--rhs", "one"),
        ("cevian", "--n", "-1", "--g", "one", "--h", "one", "--k", "one"),
    ], ids=["leq", "cevian"])
    def test_negative_dimension_exits_2(self, capsys, argv):
        code = main(["vlat", *argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "dimension must be non-negative" in err

    def test_pscom_probe_seeded(self, capsys):
        code, out = run_cli(capsys, "--seed", "5", "vlat", "pscom-probe",
                            "--n", "3", "--alpha", "1", "--c", "1/2",
                            "--count", "6")
        assert code == 0
        rep = json.loads(out)
        assert rep["counterexample_count"] == 0 and rep["probes"] == 6
        schema_check("vlat pscom-probe", out)


class TestInfrastructure:
    def test_unknown_subcommand_is_input_error(self):
        with pytest.raises(latdev.InputError,
                           match="unknown subcommand 'lattice frob'"):
            cli.run(cli.RunConfig(subcommand="lattice frob"))

    @pytest.mark.parametrize("ceiling", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["semilinear", "includes",
         "--outer", os.path.join(GOLDEN, "fixtures", "sl_box.json"),
         "--inner", os.path.join(GOLDEN, "fixtures", "sl_triangle.json")],
        ["vlat", "leq", "--n", "1", "--lhs", "g0", "--rhs", "g0"]],
        ids=["semilinear-includes", "vlat-leq"])
    def test_cell_ceiling_below_1_exits_2(self, capsys, ceiling, argv):
        code = main(["--cell-ceiling", ceiling, *argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--cell-ceiling must be at least 1" in captured.err

    def test_byte_identical_reports(self, capsys, ncn_lattice):
        _, out1 = run_cli(capsys, "lattice", "check", ncn_lattice)
        _, out2 = run_cli(capsys, "lattice", "check", ncn_lattice)
        assert out1 == out2

    def test_seeded_probe_deterministic(self, capsys):
        args = ("--seed", "9", "vlat", "pscom-probe", "--n", "2",
                "--alpha", "1", "--count", "4")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_output_file(self, capsys, tmp_path, chain4):
        target = tmp_path / "report.json"
        code = main(["--output", str(target), "lattice", "check", chain4])
        assert code == 0 and json.loads(target.read_text())

    def test_schema_flag(self, capsys):
        code, out = run_cli(capsys, "--schema", "vlat", "noiso-probe",
                            "--k", "3", "--m", "1", "--n", "2")
        assert code == 0
        schema = json.loads(out)
        assert schema["type"] == "object"

    def test_text_format(self, capsys, chain4):
        code, out = run_cli(capsys, "--format", "text",
                            "lattice", "check", chain4)
        assert code == 0 and "completely_normal: true" in out

    @pytest.mark.parametrize("argv", [
        ("deviation", "search", "--lattice", "grid.json"),
        ("poset", "witness", "--poset", "poset9.json"),
        ("semilinear", "includes", "--outer", "sl_box.json",
         "--inner", "sl_triangle.json"),
    ], ids=["deviation-search", "poset-witness", "semilinear-includes"])
    def test_dot_without_rendering_is_input_error(self, capsys, argv):
        """Only ``lattice check`` draws DOT; asking another subcommand
        for it exits 2 and prints nothing on stdout."""
        argv = [_fixture(a) if a.endswith(".json") else a for a in argv]
        code = main(["--format", "dot", *argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "no --format dot rendering" in err

    def test_dot_is_refused_before_the_handler_runs(self, capsys,
                                                    monkeypatch):
        """The refusal comes from the registry, before dispatch: the
        handler of a subcommand without DOT rendering is never called."""
        def spy(cfg):
            raise AssertionError("handler called for --format dot")
        name = "deviation search"
        monkeypatch.setitem(COMMANDS, name,
                            COMMANDS[name]._replace(handler=spy))
        code = main(["--format", "dot", *name.split(),
                     "--lattice", _fixture("grid.json"),
                     "--monotone", "--cevian"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "no --format dot rendering" in err
        assert [n for n, c in COMMANDS.items() if c.dot] == ["lattice check"]

    def test_registry_defaults_match_parser(self):
        """Each registered subcommand parses, and ``run`` fills in the
        same defaults for missing optional arguments as the parser."""
        ap = _build_parser()
        for name, command in COMMANDS.items():
            argv = name.split()
            for flags, options in command.arguments:
                if not flags[0].startswith("-"):
                    argv.append("1")
                elif options.get("required"):
                    argv += [flags[0], "1"]
            cfg = config_from_args(ap.parse_args(argv))
            assert cfg.subcommand == name
            assert {k: cfg.args[k] for k in command.defaults} == \
                command.defaults
        assert list(SCHEMAS) == list(COMMANDS)

    def test_readme_command_lines_parse(self):
        """Every ``latdev`` line of README's command-line block parses,
        with its optional ``[...]`` parts dropped and kept, and together
        they name every subcommand."""
        with open(os.path.join(ROOT, "README.md")) as fh:
            block = fh.read().split("## Command line")[1].split("```")[1]
        lines = [line for line in block.splitlines()
                 if line.startswith("latdev ")]
        named = set()
        for line in lines:
            for text in (re.sub(r"\[[^]]*\]", "", line),
                         re.sub(r"\[([^]]*)\]", r"\1", line)):
                try:
                    ns = _build_parser().parse_args(
                        shlex.split(text, comments=True)[1:])
                except SystemExit:
                    pytest.fail(f"README line does not parse: {text}")
                named.add(config_from_args(ns).subcommand)
        assert named == set(COMMANDS)
