"""Command-line front end.

Exit codes: 0 success / property true; 1 property false (with witness in
the report); 2 input error; 3 resource ceiling exceeded.

Reports are JSON with sorted keys, so identical configuration (and seed,
for randomized probes) yields byte-identical output.  Each subcommand
accepts ``--schema`` to print the JSON schema of its report.  A
subcommand is declared once, by ``@command`` on its handler (arguments
and report schema); the parser, ``SCHEMAS`` and ``run`` read that table.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import adjustment, deviations, lattices, posets, semilinear, vlterms
from .errors import InputError, ResourceLimitError, _Frozen
from .serialize import (_by_pair, amalgam_from_json, deviation_from_json,
                        deviation_to_json, dot_lattice, dot_poset,
                        elements_from_text, lattice_from_json, load_json,
                        poset_from_json, read_text, render_id,
                        semilinear_from_json, semilinear_to_json,
                        witness_from_json, witness_to_json)

# Longest term text a pscom-probe report writes: ``str`` of a term walks
# every path of its DAG, so ``|g0|`` nested 30 deep would be ~14 GB.
MAX_TERM_TEXT = 10 ** 6
# Deepest random probe term: ``random_term`` recurses once per level and
# doubles at each binary operator, so depth 16 is at most 2^17 nodes.
MAX_PROBE_DEPTH = 16
# Most meetand and joinand pairs an ``adjust`` report writes: the naive
# trace lists every earlier pair above or below (a, b), so it grows
# with the square of the pair count, not with d′ (32,828,250 pairs on
# the 183-element down-set lattice of a 12-node binary tree).
MAX_TRACE_PAIRS = 10 ** 6
# Most (x, y) pairs a ``deviation search`` or ``deviation enumerate``
# report writes: n² per deviation, so B10's 1,048,576 pairs (a 95 MB
# report) pass, and a 4,096-element lattice would ask for ~1.5 GB.
MAX_REPORT_PAIRS = 2 ** 20


def _report_ceiling(pairs: int) -> None:
    if pairs > MAX_REPORT_PAIRS:
        raise ResourceLimitError(f"the report would hold {pairs} pairs, "
                                 f"more than {MAX_REPORT_PAIRS}")


class RunConfig:
    """One run of a subcommand: its arguments by destination name (a new
    empty dict when not given) and the global options."""
    __slots__ = _fields = ("subcommand", "args", "output", "fmt", "seed",
                           "cell_ceiling")

    def __init__(self, subcommand: str, args: Optional[dict] = None,
                 output: Optional[str] = None, fmt: str = "json",
                 seed: int = 0,
                 cell_ceiling: int = semilinear.DEFAULT_CELL_CEILING):
        self.subcommand = subcommand
        self.args = {} if args is None else args
        self.output = output
        self.fmt = fmt
        self.seed = seed
        self.cell_ceiling = cell_ceiling

    __repr__ = _Frozen.__repr__
    _values = _Frozen._values
    __eq__ = _Frozen.__eq__
    __hash__ = None


class Command(NamedTuple):
    """A subcommand: its handler, which returns (exit_code, report dict or
    rendered text); its argparse arguments as ``(flags, options)`` pairs;
    its report schema; the defaults of its optional arguments; and
    whether its handler renders ``--format dot`` itself."""
    handler: Callable
    arguments: tuple
    schema: dict
    defaults: dict
    dot: bool


COMMANDS: dict = {}


def _arg(*flags, **options) -> tuple:
    return flags, options


def _dest(flags) -> str:
    return flags[0].lstrip("-").replace("-", "_")


def command(name: str, *arguments, schema: dict, dot: bool = False):
    """Register the decorated handler as subcommand ``name`` ("group sub",
    or one word for a subcommand without group); ``dot`` marks a handler
    that renders ``--format dot`` itself."""
    defaults = {_dest(flags): options.get(
                    "default",
                    False if options.get("action") == "store_true" else None)
                for flags, options in arguments
                if flags[0].startswith("-") and not options.get("required")}

    def register(handler):
        COMMANDS[name] = Command(handler, arguments, schema, defaults, dot)
        return handler
    return register


_GLOBAL_OPTIONS = (
    _arg("--output", help="write the report to this file"),
    _arg("--format", choices=["json", "dot", "text"], default="json"),
    _arg("--seed", type=int, default=0),
    _arg("--cell-ceiling", type=int,
         default=semilinear.DEFAULT_CELL_CEILING),
    _arg("--schema", action="store_true",
         help="print the JSON schema of this subcommand's report"),
)


def _obj(props, required=None):
    return {"type": "object", "properties": props,
            "required": sorted(required or props), "additionalProperties": True}


def _type(*types):
    return {"type": types[0] if len(types) == 1 else list(types)}


_INT, _BOOL = _type("integer"), _type("boolean")
_OBJECT, _ARRAY = _type("object"), _type("array")
_STR_ARRAY = {"type": "array", "items": {"type": "string"}}
_NULL_OR_STR_ARRAY = {"type": ["array", "null"], "items": {"type": "string"}}


def _ids(xs):
    return None if xs is None else [render_id(x) for x in xs]


def _pointstr(point):
    return None if point is None else [str(Fraction(v)) for v in point]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

@command("lattice check",
         _arg("input"),
         _arg("--prime-ideals", action="store_true",
              help="with --format dot, draw the prime-ideal poset"),
         dot=True,
         schema=_obj({
             "elements": _INT, "distributive": _BOOL,
             "completely_normal": _BOOL,
             "completely_normal_counterexample": _NULL_OR_STR_ARRAY,
             "zero_distributive": _BOOL,
             "zero_distributive_counterexample": _NULL_OR_STR_ARRAY,
             "prime_ideal_count": _INT, "root_system": _BOOL,
             "root_system_counterexample": _type("string", "null")}))
def _run_lattice_check(cfg: RunConfig):
    D = lattice_from_json(load_json(cfg.args["input"]))
    if cfg.fmt == "dot":
        if cfg.args["prime_ideals"]:
            # the labels write the members of an ideal (down-sets) by str
            P = lattices.prime_ideal_poset(D).poset
            return 0, dot_poset(P, "prime_ideals", {
                I: render_id(tuple(map(str, I))) for I in P.elements})
        return 0, dot_lattice(D)
    cn, cn_ce = lattices.is_completely_normal(D)
    zd, zd_ce = lattices.is_zero_distributive(D)
    pip = lattices.prime_ideal_poset(D)
    rs, rs_ce = lattices.is_root_system(pip)
    report = {
        "elements": len(D),
        "distributive": D.is_distributive,
        "completely_normal": cn,
        "completely_normal_counterexample": _ids(cn_ce),
        "zero_distributive": zd,
        "zero_distributive_counterexample": _ids(zd_ce),
        "prime_ideal_count": len(pip.ideals),
        "root_system": rs,
        "root_system_counterexample":
            None if rs_ce is None else render_id(rs_ce),
    }
    return (0 if (cn and zd and rs) else 1), report


@command("deviation check",
         _arg("--lattice", required=True), _arg("--map", required=True),
         schema=_obj({"valid": _BOOL, "violation": _type("object", "null")},
                     required=["valid", "violation"]))
def _run_deviation_check(cfg: RunConfig):
    D = lattice_from_json(load_json(cfg.args["lattice"]))
    d = deviation_from_json(load_json(cfg.args["map"]), D)
    v = deviations.check_deviation(D, d)
    report = {"valid": v is None,
              "violation": None if v is None else
              {"axiom": v.axiom, "pair": _ids(v.pair)}}
    if v is None:
        rep = deviations.deviation_properties(D, d)
        report["properties"] = {
            "left_isotone": rep.left_isotone,
            "right_antitone": rep.right_antitone,
            "monotone": rep.monotone,
            "cevian": rep.cevian,
            "left_isotone_counterexample": _ids(rep.left_isotone_ce),
            "right_antitone_counterexample": _ids(rep.right_antitone_ce),
            "cevian_counterexample": _ids(rep.cevian_ce),
        }
    return (0 if v is None else 1), report


@command("deviation search",
         _arg("--lattice", required=True),
         _arg("--monotone", action="store_true"),
         _arg("--cevian", action="store_true"),
         schema=_obj({"found": _BOOL, "required": _OBJECT,
                      "deviation": _type("object", "null")}))
def _run_deviation_search(cfg: RunConfig):
    D = lattice_from_json(load_json(cfg.args["lattice"]))
    _report_ceiling(len(D) ** 2)
    monotone, cevian = cfg.args["monotone"], cfg.args["cevian"]
    d = deviations.search_deviation(D, require_monotone=monotone,
                                    require_cevian=cevian)
    report = {"found": d is not None,
              "required": {"monotone": monotone, "cevian": cevian},
              "deviation": None if d is None else deviation_to_json(d)}
    return (0 if d is not None else 1), report


@command("deviation enumerate",
         _arg("--lattice", required=True),
         _arg("--limit", type=int, default=10),
         schema=_obj({"count": _INT, "deviations": _ARRAY}))
def _run_deviation_enumerate(cfg: RunConfig):
    D = lattice_from_json(load_json(cfg.args["lattice"]))
    # one deviation past the ceiling is enough to know it is passed
    limit = min(cfg.args["limit"], MAX_REPORT_PAIRS // len(D) ** 2 + 1)
    ds = deviations.enumerate_deviations(D, limit)
    _report_ceiling(len(ds) * len(D) ** 2)
    return 0, {"count": len(ds), "deviations": [deviation_to_json(d) for d in ds]}


@command("adjust",
         _arg("--lattice", required=True), _arg("--map", required=True),
         _arg("--order", required=True,
              help="comma-separated enumeration, e.g. 0,a,b,1"),
         _arg("--use-shadows", action="store_true"),
         schema=_obj({"order": _STR_ARRAY, "d_prime": _OBJECT,
                      "trace": _OBJECT}))
def _run_adjust(cfg: RunConfig):
    D = lattice_from_json(load_json(cfg.args["lattice"]))
    d = deviation_from_json(load_json(cfg.args["map"]), D)
    order = elements_from_text(cfg.args["order"], D.poset)
    res = adjustment.monotone_adjustment(
        D.poset, D, d, order, use_shadows=cfg.args["use_shadows"])
    trace, pairs = {}, 0
    for key, e in res.trace.items():     # decoded once, in decision order
        pairs += len(e.meetands) + len(e.joinands)
        if pairs > MAX_TRACE_PAIRS:
            raise ResourceLimitError(
                f"adjustment trace exceeds {MAX_TRACE_PAIRS} "
                f"meetand/joinand pairs")
        trace[key] = e
    report = {
        "order": _ids(order),
        "d_prime": {f"{render_id(x)},{render_id(y)}": render_id(v)
                    for (x, y), v in _by_pair(res.d_prime)},
        "trace": {f"{render_id(x)},{render_id(y)}": {
            "base": render_id(e.base_value),
            "meetands": [_ids(pair) for pair in e.meetands],
            "joinands": [_ids(pair) for pair in e.joinands]}
            for (x, y), e in _by_pair(trace)},
    }
    return 0, report


@command("poset witness",
         _arg("--poset", required=True), _arg("--order"),
         schema=_obj({"A": _OBJECT, "B": _OBJECT, "valid": _BOOL}))
def _run_poset_witness(cfg: RunConfig):
    P = poset_from_json(load_json(cfg.args["poset"]))
    order = list(P.elements) if cfg.args["order"] is None \
        else elements_from_text(cfg.args["order"], P)
    W = posets.witness_from_order(P, order)
    report = witness_to_json(P, W)
    report["valid"] = posets.is_separability_witness(P, W)
    return 0, report


@command("poset order",
         _arg("--poset", required=True), _arg("--witness", required=True),
         schema=_obj({"enumeration": _STR_ARRAY, "blocks": _ARRAY,
                      "prefix_shadows": _OBJECT}))
def _run_poset_order(cfg: RunConfig):
    P = poset_from_json(load_json(cfg.args["poset"]))
    W = witness_from_json(load_json(cfg.args["witness"]))
    res = posets.order_from_witness(P, W)
    report = {
        "enumeration": _ids(res.enumeration),
        "blocks": [_ids(b) for b in res.blocks],
        "prefix_shadows": {
            render_id(x): {"upper": sorted(_ids(u)),
                           "lower": sorted(_ids(v))}
            for x, (u, v) in res.prefix_shadows.items()},
    }
    return 0, report


@command("poset amalgam",
         _arg("--spec", required=True), _arg("--block-witnesses"),
         schema=_obj({"ok": _BOOL, "violation": _type("object", "null")},
                     required=["ok", "violation"]))
def _run_poset_amalgam(cfg: RunConfig):
    spec, nu = amalgam_from_json(load_json(cfg.args["spec"]))
    v = posets.check_strong_amalgam(spec)
    report = {"ok": v is None,
              "violation": None if v is None else
              {"clause": v.clause, "data": _ids(v.data)}}
    if v is None and cfg.args["block_witnesses"]:
        raw = load_json(cfg.args["block_witnesses"])
        if not isinstance(raw, dict):
            raise InputError("malformed block witnesses JSON: expected an "
                             "object from index ids to witnesses")
        blocks = {p: witness_from_json(w) for p, w in raw.items()}
        if nu is None:
            nu = {x: next(p for p in spec.index.elements
                          if x in spec.family[p])
                  for x in spec.carrier.elements}
        W = posets.witness_from_amalgam(spec, blocks, nu)
        report["witness"] = witness_to_json(spec.carrier, W)
        report["witness_valid"] = posets.is_separability_witness(
            spec.carrier, W)
    return (0 if v is None else 1), report


@command("semilinear includes",
         _arg("--outer", required=True,
              help="decides: inner is a subset of outer"),
         _arg("--inner", required=True),
         schema=_obj({"includes": _BOOL, "witness": _NULL_OR_STR_ARRAY}))
def _run_semilinear_includes(cfg: RunConfig):
    outer = semilinear_from_json(load_json(cfg.args["outer"]))
    inner = semilinear_from_json(load_json(cfg.args["inner"]))
    ok, w = semilinear.includes(outer, inner, cfg.cell_ceiling)
    return (0 if ok else 1), {"includes": ok, "witness": _pointstr(w)}


@command("semilinear shadow",
         _arg("--set", required=True),
         _arg("--vars", required=True,
              help="comma-separated kept variable indices"),
         _arg("--kind", choices=["upper", "lower"], default="upper"),
         schema=_obj({"dimension": _INT, "cells": _ARRAY}))
def _run_semilinear_shadow(cfg: RunConfig):
    U = semilinear_from_json(load_json(cfg.args["set"]))
    text = cfg.args["vars"]
    try:
        X = [int(v) for v in text.split(",")] if text else []
    except ValueError:
        raise InputError(f"--vars {text!r} is not a comma-separated list "
                         f"of variable indices") from None
    fn = (semilinear.upper_shadow_set if cfg.args["kind"] == "upper"
          else semilinear.lower_shadow_set)
    return 0, semilinear_to_json(fn(U, X, cfg.cell_ceiling))


def _region(cfg, n):
    return vlterms.omega_region(n) if cfg.args["omega"] else None


@command("vlat leq",
         _arg("--n", type=int, required=True),
         _arg("--lhs", required=True), _arg("--rhs", required=True),
         _arg("--omega", action="store_true"),
         schema=_obj({"leq": _BOOL, "witness": _NULL_OR_STR_ARRAY}))
def _run_vlat_leq(cfg: RunConfig):
    n = cfg.args["n"]
    g = vlterms.parse_term(cfg.args["lhs"])
    h = vlterms.parse_term(cfg.args["rhs"])
    ok, w = vlterms.ideal_leq(g, h, n, _region(cfg, n), cfg.cell_ceiling)
    return (0 if ok else 1), {"leq": ok, "witness": _pointstr(w)}


@command("vlat cevian",
         _arg("--n", type=int, required=True),
         _arg("--g", required=True), _arg("--h", required=True),
         _arg("--k", required=True),
         _arg("--omega", action="store_true"),
         schema=_obj({"cevian": _BOOL}))
def _run_vlat_cevian(cfg: RunConfig):
    n = cfg.args["n"]
    g = vlterms.parse_term(cfg.args["g"])
    h = vlterms.parse_term(cfg.args["h"])
    k = vlterms.parse_term(cfg.args["k"])
    ok = vlterms.check_cevian_triple(g, h, k, n, _region(cfg, n),
                                     cfg.cell_ceiling)
    return (0 if ok else 1), {"cevian": ok}


def _term_text(t) -> str:
    length = vlterms.text_length(t)
    if length > MAX_TERM_TEXT:
        raise ResourceLimitError(f"a probe term's text has {length} "
                                 f"characters, more than {MAX_TERM_TEXT}")
    return str(t)


@command("vlat pscom-probe",
         _arg("--n", type=int, default=3),
         _arg("--alpha", type=int, default=1), _arg("--c", default="1"),
         _arg("--count", type=int, default=100),
         _arg("--depth", type=int, default=2),
         _arg("--probes", help="file with one term per line"),
         schema=_obj({"n": _INT, "alpha": _INT, "c": _type("string"),
                      "probes": _INT, "counterexample_count": _INT,
                      "entries": _ARRAY}))
def _run_vlat_pscom(cfg: RunConfig):
    n = cfg.args["n"]
    for name in ("count", "depth"):
        if cfg.args[name] < 0:
            raise InputError(f"--{name} must be non-negative")
    if cfg.args["depth"] > MAX_PROBE_DEPTH:
        raise InputError(f"--depth must be at most {MAX_PROBE_DEPTH}")
    if cfg.args["probes"]:
        terms = []
        lines = read_text(cfg.args["probes"]).split("\n")
        for i, line in enumerate(lines, 1):
            if line.strip():
                try:
                    terms.append(vlterms.parse_term(line))
                except InputError as exc:
                    raise InputError(f"probes line {i}: {exc}") from None
    else:
        rng = random.Random(cfg.seed)
        # drawn lazily: pseudocomplement_probe checks n and alpha first
        terms = (vlterms.random_term(rng, n, cfg.args["depth"])
                 for _ in range(cfg.args["count"]))
    rep = vlterms.pseudocomplement_probe(
        n, cfg.args["alpha"], semilinear.parse_rational(cfg.args["c"]),
        terms, cfg.cell_ceiling)

    def rec(r):
        return {"binding": r.binding, "holds": r.holds,
                "witness": _pointstr(r.witness)}

    report = {
        "n": rep.n, "alpha": rep.alpha, "c": str(rep.c),
        "probes": len(rep.entries),
        "counterexample_count": len(rep.counterexamples),
        "entries": [{"term": _term_text(e.term),
                     "lower_implication": rec(e.lower_implication),
                     "upper_implication": rec(e.upper_implication),
                     "counterexample": e.is_counterexample}
                    for e in rep.entries],
    }
    return (0 if not rep.counterexamples else 1), report


@command("vlat noiso-probe",
         _arg("--k", type=int, required=True),
         _arg("--m", type=int, required=True),
         _arg("--n", type=int, required=True),
         schema=_obj({"k": _INT, "m": _INT, "n": _INT, "primary": _OBJECT,
                      "dual": _OBJECT, "reproduced": _BOOL}))
def _run_vlat_noiso(cfg: RunConfig):
    rep = vlterms.noiso_probe(cfg.args["k"], cfg.args["m"], cfg.args["n"],
                              cfg.cell_ceiling)

    def chk(c):
        return {"lhs": str(c.lhs), "rhs": str(c.rhs),
                "inclusion": not c.inclusion_false,
                "witness": _pointstr(c.witness),
                "anchor": _pointstr(c.anchor_point),
                "anchor_valid": c.anchor_valid}

    report = {"k": rep.k, "m": rep.m, "n": rep.n_coeff,
              "primary": chk(rep.primary), "dual": chk(rep.dual),
              "reproduced": rep.reproduced}
    return (0 if rep.reproduced else 1), report


SCHEMAS = {name: c.schema for name, c in COMMANDS.items()}


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="latdev",
        description="Order-theory lab: lattices, deviations, monotone "
                    "adjustment, separability witnesses, exact semilinear "
                    "decisions.")
    for flags, options in _GLOBAL_OPTIONS:
        ap.add_argument(*flags, **options)
    top = ap.add_subparsers(dest="group", required=True)
    groups = {}
    for name, c in COMMANDS.items():
        group, _, sub = name.partition(" ")
        if not sub:
            p = top.add_parser(group)
        else:
            if group not in groups:
                groups[group] = top.add_parser(group).add_subparsers(
                    dest="sub", required=True)
            p = groups[group].add_parser(sub)
        for flags, options in c.arguments:
            p.add_argument(*flags, **options)
    return ap


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    sub = ns.group if getattr(ns, "sub", None) is None \
        else f"{ns.group} {ns.sub}"
    args = {_dest(flags): getattr(ns, _dest(flags))
            for flags, _ in COMMANDS[sub].arguments}
    return RunConfig(subcommand=sub, args=args, output=ns.output,
                     fmt=ns.format, seed=ns.seed,
                     cell_ceiling=ns.cell_ceiling)


def run(cfg: RunConfig) -> tuple:
    """Dispatch a configuration; returns (exit_code, rendered_report).
    Optional arguments missing from ``cfg.args`` take their defaults."""
    c = COMMANDS.get(cfg.subcommand)
    if c is None:
        raise InputError(f"unknown subcommand {cfg.subcommand!r}")
    if cfg.cell_ceiling < 1:
        raise InputError(
            f"--cell-ceiling must be at least 1, got {cfg.cell_ceiling}")
    if cfg.fmt == "dot" and not c.dot:
        raise InputError(f"{cfg.subcommand} has no --format dot rendering")
    code, report = c.handler(RunConfig(
        cfg.subcommand, {**c.defaults, **cfg.args}, cfg.output, cfg.fmt,
        cfg.seed, cfg.cell_ceiling))
    if isinstance(report, str):          # already rendered (dot)
        return code, report
    if cfg.fmt == "text":
        lines = [f"{k}: {json.dumps(report[k], sort_keys=True)}"
                 for k in sorted(report)]
        return code, "\n".join(lines) + "\n"
    return code, json.dumps(report, sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    cfg = config_from_args(ns)
    if ns.schema:
        print(json.dumps(SCHEMAS[cfg.subcommand], sort_keys=True, indent=2))
        return 0
    try:
        code, rendered = run(cfg)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    if cfg.output:
        try:
            with open(cfg.output, "w") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"input error: cannot write {cfg.output}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
