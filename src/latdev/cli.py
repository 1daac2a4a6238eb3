"""Command-line front end.

Exit codes: 0 success / property true; 1 property false (with witness in
the report); 2 input error; 3 resource ceiling exceeded.

Reports are JSON with sorted keys, so identical configuration (and seed,
for randomized probes) yields byte-identical output.  Each subcommand
accepts ``--schema`` to print the JSON schema of its report.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import adjustment, deviations, lattices, posets, semilinear, vlterms
from .errors import InputError, ResourceLimitError
from .serialize import (amalgam_from_json, deviation_from_json,
                        deviation_to_json, dot_lattice, dot_poset,
                        elements_from_text, lattice_from_json, load_json,
                        poset_from_json, semilinear_from_json,
                        semilinear_to_json, witness_from_json,
                        witness_to_json)


@dataclass
class RunConfig:
    subcommand: str
    args: dict = field(default_factory=dict)
    output: Optional[str] = None
    fmt: str = "json"
    seed: int = 0
    cell_ceiling: int = semilinear.DEFAULT_CELL_CEILING


def _idstr(x) -> str:
    if isinstance(x, tuple):
        return "{" + ",".join(map(_idstr, x)) + "}"
    return str(x)


def _pointstr(point):
    return None if point is None else [str(Fraction(v)) for v in point]


# ---------------------------------------------------------------------------
# Handlers: each returns (exit_code, report_dict_or_text)
# ---------------------------------------------------------------------------

def _run_lattice_check(cfg: RunConfig):
    D = lattice_from_json(load_json(cfg.args["input"]))
    if cfg.fmt == "dot":
        if cfg.args.get("prime_ideals"):
            return 0, dot_poset(lattices.prime_ideal_poset(D).poset,
                                "prime_ideals")
        return 0, dot_lattice(D)
    cn, cn_ce = lattices.is_completely_normal(D)
    zd, zd_ce = lattices.is_zero_distributive(D)
    pip = lattices.prime_ideal_poset(D)
    rs, rs_ce = lattices.is_root_system(pip)
    report = {
        "elements": len(D),
        "distributive": D.is_distributive,
        "completely_normal": cn,
        "completely_normal_counterexample":
            None if cn_ce is None else [_idstr(v) for v in cn_ce],
        "zero_distributive": zd,
        "zero_distributive_counterexample":
            None if zd_ce is None else [_idstr(v) for v in zd_ce],
        "prime_ideal_count": len(pip.ideals),
        "root_system": rs,
        "root_system_counterexample":
            None if rs_ce is None else _idstr(rs_ce),
    }
    code = 0 if (cn and zd and rs) else 1
    return code, report


def _run_deviation_check(cfg: RunConfig):
    D = lattice_from_json(load_json(cfg.args["lattice"]))
    d = deviation_from_json(load_json(cfg.args["map"]), D)
    v = deviations.check_deviation(D, d)
    report = {"valid": v is None,
              "violation": None if v is None else
              {"axiom": v.axiom, "pair": [_idstr(x) for x in v.pair]}}
    if v is None:
        rep = deviations.deviation_properties(D, d)
        report["properties"] = {
            "left_isotone": rep.left_isotone,
            "right_antitone": rep.right_antitone,
            "monotone": rep.monotone,
            "cevian": rep.cevian,
            "left_isotone_counterexample":
                None if rep.left_isotone_ce is None
                else [_idstr(x) for x in rep.left_isotone_ce],
            "right_antitone_counterexample":
                None if rep.right_antitone_ce is None
                else [_idstr(x) for x in rep.right_antitone_ce],
            "cevian_counterexample":
                None if rep.cevian_ce is None
                else [_idstr(x) for x in rep.cevian_ce],
        }
    return (0 if v is None else 1), report


def _run_deviation_search(cfg: RunConfig):
    D = lattice_from_json(load_json(cfg.args["lattice"]))
    d = deviations.search_deviation(
        D, require_monotone=cfg.args.get("monotone", False),
        require_cevian=cfg.args.get("cevian", False))
    report = {"found": d is not None,
              "required": {"monotone": cfg.args.get("monotone", False),
                           "cevian": cfg.args.get("cevian", False)},
              "deviation": None if d is None else deviation_to_json(d)}
    return (0 if d is not None else 1), report


def _run_deviation_enumerate(cfg: RunConfig):
    D = lattice_from_json(load_json(cfg.args["lattice"]))
    ds = deviations.enumerate_deviations(D, cfg.args["limit"])
    return 0, {"count": len(ds), "deviations": [deviation_to_json(d) for d in ds]}


def _run_adjust(cfg: RunConfig):
    D = lattice_from_json(load_json(cfg.args["lattice"]))
    d = deviation_from_json(load_json(cfg.args["map"]), D)
    order = elements_from_text(cfg.args["order"], D)
    res = adjustment.monotone_adjustment(
        D.poset, D, d, order, use_shadows=cfg.args.get("use_shadows", False))
    report = {
        "order": [_idstr(x) for x in order],
        "d_prime": {f"{_idstr(x)},{_idstr(y)}": _idstr(v)
                    for (x, y), v in sorted(
                        res.d_prime.items(),
                        key=lambda kv: (str(kv[0][0]), str(kv[0][1])))},
        "trace": {f"{_idstr(x)},{_idstr(y)}": {
            "base": _idstr(e.base_value),
            "meetands": [[_idstr(a), _idstr(b)] for a, b in e.meetands],
            "joinands": [[_idstr(a), _idstr(b)] for a, b in e.joinands]}
            for (x, y), e in sorted(
                res.trace.items(),
                key=lambda kv: (str(kv[0][0]), str(kv[0][1])))},
    }
    return 0, report


def _run_poset_witness(cfg: RunConfig):
    P = poset_from_json(load_json(cfg.args["poset"]))
    order = cfg.args["order"].split(",") if cfg.args.get("order") \
        else list(P.elements)
    W = posets.witness_from_order(P, order)
    report = witness_to_json(P, W)
    report["valid"] = posets.is_separability_witness(P, W)
    return 0, report


def _run_poset_order(cfg: RunConfig):
    P = poset_from_json(load_json(cfg.args["poset"]))
    W = witness_from_json(load_json(cfg.args["witness"]))
    res = posets.order_from_witness(P, W)
    report = {
        "enumeration": [_idstr(x) for x in res.enumeration],
        "blocks": [[_idstr(x) for x in b] for b in res.blocks],
        "prefix_shadows": {
            _idstr(x): {"upper": sorted(map(_idstr, u)),
                        "lower": sorted(map(_idstr, v))}
            for x, (u, v) in res.prefix_shadows.items()},
    }
    return 0, report


def _run_poset_amalgam(cfg: RunConfig):
    spec, nu = amalgam_from_json(load_json(cfg.args["spec"]))
    v = posets.check_strong_amalgam(spec)
    report = {"ok": v is None,
              "violation": None if v is None else
              {"clause": v.clause, "data": [_idstr(x) for x in v.data]}}
    if v is None and cfg.args.get("block_witnesses"):
        blocks = {p: witness_from_json(w)
                  for p, w in load_json(cfg.args["block_witnesses"]).items()}
        if nu is None:
            nu = {}
            for x in spec.carrier.elements:
                nu[x] = next(p for p in spec.index.elements
                             if x in spec.family[p])
        W = posets.witness_from_amalgam(spec, blocks, nu)
        report["witness"] = witness_to_json(spec.carrier, W)
        report["witness_valid"] = posets.is_separability_witness(
            spec.carrier, W)
    return (0 if v is None else 1), report


def _run_semilinear_includes(cfg: RunConfig):
    outer = semilinear_from_json(load_json(cfg.args["outer"]))
    inner = semilinear_from_json(load_json(cfg.args["inner"]))
    ok, w = semilinear.includes(outer, inner, cfg.cell_ceiling)
    return (0 if ok else 1), {"includes": ok, "witness": _pointstr(w)}


def _run_semilinear_shadow(cfg: RunConfig):
    U = semilinear_from_json(load_json(cfg.args["set"]))
    X = [int(v) for v in cfg.args["vars"].split(",")] if cfg.args["vars"] \
        else []
    fn = (semilinear.upper_shadow_set if cfg.args["kind"] == "upper"
          else semilinear.lower_shadow_set)
    return 0, semilinear_to_json(fn(U, X, cfg.cell_ceiling))


def _region(cfg, n):
    return vlterms.omega_region(n) if cfg.args.get("omega") else None


def _run_vlat_leq(cfg: RunConfig):
    n = cfg.args["n"]
    g = vlterms.parse_term(cfg.args["lhs"])
    h = vlterms.parse_term(cfg.args["rhs"])
    ok, w = vlterms.ideal_leq(g, h, n, _region(cfg, n), cfg.cell_ceiling)
    return (0 if ok else 1), {"leq": ok, "witness": _pointstr(w)}


def _run_vlat_cevian(cfg: RunConfig):
    n = cfg.args["n"]
    g = vlterms.parse_term(cfg.args["g"])
    h = vlterms.parse_term(cfg.args["h"])
    k = vlterms.parse_term(cfg.args["k"])
    ok = vlterms.check_cevian_triple(g, h, k, n, _region(cfg, n),
                                     cfg.cell_ceiling)
    return (0 if ok else 1), {"cevian": ok}


def _run_vlat_pscom(cfg: RunConfig):
    n = cfg.args["n"]
    if cfg.args.get("probes"):
        with open(cfg.args["probes"]) as fh:
            terms = [vlterms.parse_term(line) for line in fh
                     if line.strip()]
    else:
        rng = random.Random(cfg.seed)
        terms = [vlterms.random_term(rng, n, cfg.args.get("depth", 2))
                 for _ in range(cfg.args.get("count", 100))]
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
        "entries": [{"term": str(e.term),
                     "lower_implication": rec(e.lower_implication),
                     "upper_implication": rec(e.upper_implication),
                     "counterexample": e.is_counterexample}
                    for e in rep.entries],
    }
    return (0 if not rep.counterexamples else 1), report


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


_HANDLERS = {
    "lattice check": _run_lattice_check,
    "deviation check": _run_deviation_check,
    "deviation search": _run_deviation_search,
    "deviation enumerate": _run_deviation_enumerate,
    "adjust": _run_adjust,
    "poset witness": _run_poset_witness,
    "poset order": _run_poset_order,
    "poset amalgam": _run_poset_amalgam,
    "semilinear includes": _run_semilinear_includes,
    "semilinear shadow": _run_semilinear_shadow,
    "vlat leq": _run_vlat_leq,
    "vlat cevian": _run_vlat_cevian,
    "vlat pscom-probe": _run_vlat_pscom,
    "vlat noiso-probe": _run_vlat_noiso,
}


# ---------------------------------------------------------------------------
# Report schemas
# ---------------------------------------------------------------------------

def _obj(props, required=None):
    return {"type": "object", "properties": props,
            "required": sorted(required or props), "additionalProperties": True}


_NULL_OR = lambda t: {"type": [t, "null"]}  # noqa: E731
_STR_ARRAY = {"type": "array", "items": {"type": "string"}}
_NULL_OR_STR_ARRAY = {"type": ["array", "null"], "items": {"type": "string"}}

SCHEMAS = {
    "lattice check": _obj({
        "elements": {"type": "integer"},
        "distributive": {"type": "boolean"},
        "completely_normal": {"type": "boolean"},
        "completely_normal_counterexample": _NULL_OR_STR_ARRAY,
        "zero_distributive": {"type": "boolean"},
        "zero_distributive_counterexample": _NULL_OR_STR_ARRAY,
        "prime_ideal_count": {"type": "integer"},
        "root_system": {"type": "boolean"},
        "root_system_counterexample": _NULL_OR("string"),
    }),
    "deviation check": _obj({
        "valid": {"type": "boolean"},
        "violation": _NULL_OR("object"),
    }, required=["valid", "violation"]),
    "deviation search": _obj({
        "found": {"type": "boolean"},
        "required": {"type": "object"},
        "deviation": _NULL_OR("object"),
    }),
    "deviation enumerate": _obj({
        "count": {"type": "integer"},
        "deviations": {"type": "array"},
    }),
    "adjust": _obj({
        "order": _STR_ARRAY,
        "d_prime": {"type": "object"},
        "trace": {"type": "object"},
    }),
    "poset witness": _obj({
        "A": {"type": "object"}, "B": {"type": "object"},
        "valid": {"type": "boolean"},
    }),
    "poset order": _obj({
        "enumeration": _STR_ARRAY,
        "blocks": {"type": "array"},
        "prefix_shadows": {"type": "object"},
    }),
    "poset amalgam": _obj({
        "ok": {"type": "boolean"},
        "violation": _NULL_OR("object"),
    }, required=["ok", "violation"]),
    "semilinear includes": _obj({
        "includes": {"type": "boolean"},
        "witness": _NULL_OR_STR_ARRAY,
    }),
    "semilinear shadow": _obj({
        "dimension": {"type": "integer"},
        "cells": {"type": "array"},
    }),
    "vlat leq": _obj({
        "leq": {"type": "boolean"},
        "witness": _NULL_OR_STR_ARRAY,
    }),
    "vlat cevian": _obj({"cevian": {"type": "boolean"}}),
    "vlat pscom-probe": _obj({
        "n": {"type": "integer"}, "alpha": {"type": "integer"},
        "c": {"type": "string"}, "probes": {"type": "integer"},
        "counterexample_count": {"type": "integer"},
        "entries": {"type": "array"},
    }),
    "vlat noiso-probe": _obj({
        "k": {"type": "integer"}, "m": {"type": "integer"},
        "n": {"type": "integer"},
        "primary": {"type": "object"}, "dual": {"type": "object"},
        "reproduced": {"type": "boolean"},
    }),
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="latdev",
        description="Order-theory lab: lattices, deviations, monotone "
                    "adjustment, separability witnesses, exact semilinear "
                    "decisions.")
    ap.add_argument("--output", help="write the report to this file")
    ap.add_argument("--format", choices=["json", "dot", "text"],
                    default="json")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cell-ceiling", type=int,
                    default=semilinear.DEFAULT_CELL_CEILING)
    ap.add_argument("--schema", action="store_true",
                    help="print the JSON schema of this subcommand's report")
    top = ap.add_subparsers(dest="group", required=True)

    lat = top.add_parser("lattice").add_subparsers(dest="sub", required=True)
    p = lat.add_parser("check")
    p.add_argument("input")
    p.add_argument("--prime-ideals", action="store_true",
                   help="with --format dot, draw the prime-ideal poset")

    dev = top.add_parser("deviation").add_subparsers(dest="sub", required=True)
    p = dev.add_parser("check")
    p.add_argument("--lattice", required=True)
    p.add_argument("--map", required=True)
    p = dev.add_parser("search")
    p.add_argument("--lattice", required=True)
    p.add_argument("--monotone", action="store_true")
    p.add_argument("--cevian", action="store_true")
    p = dev.add_parser("enumerate")
    p.add_argument("--lattice", required=True)
    p.add_argument("--limit", type=int, default=10)

    p = top.add_parser("adjust")
    p.add_argument("--lattice", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--order", required=True,
                   help="comma-separated enumeration, e.g. 0,a,b,1")
    p.add_argument("--use-shadows", action="store_true")

    pos = top.add_parser("poset").add_subparsers(dest="sub", required=True)
    p = pos.add_parser("witness")
    p.add_argument("--poset", required=True)
    p.add_argument("--order")
    p = pos.add_parser("order")
    p.add_argument("--poset", required=True)
    p.add_argument("--witness", required=True)
    p = pos.add_parser("amalgam")
    p.add_argument("--spec", required=True)
    p.add_argument("--block-witnesses")

    sl = top.add_parser("semilinear").add_subparsers(dest="sub", required=True)
    p = sl.add_parser("includes")
    p.add_argument("--outer", required=True,
                   help="decides: inner is a subset of outer")
    p.add_argument("--inner", required=True)
    p = sl.add_parser("shadow")
    p.add_argument("--set", required=True)
    p.add_argument("--vars", required=True,
                   help="comma-separated kept variable indices")
    p.add_argument("--kind", choices=["upper", "lower"], default="upper")

    vl = top.add_parser("vlat").add_subparsers(dest="sub", required=True)
    p = vl.add_parser("leq")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--omega", action="store_true")
    p = vl.add_parser("cevian")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--omega", action="store_true")
    p = vl.add_parser("pscom-probe")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--c", default="1")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--probes", help="file with one term per line")
    p = vl.add_parser("noiso-probe")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    return ap


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    sub = ns.group if getattr(ns, "sub", None) is None \
        else f"{ns.group} {ns.sub}"
    args = {k: v for k, v in vars(ns).items()
            if k not in ("group", "sub", "output", "format", "seed",
                         "cell_ceiling", "schema")}
    return RunConfig(subcommand=sub, args=args, output=ns.output,
                     fmt=ns.format, seed=ns.seed,
                     cell_ceiling=ns.cell_ceiling)


def run(cfg: RunConfig) -> tuple:
    """Dispatch a configuration; returns (exit_code, rendered_report)."""
    handler = _HANDLERS.get(cfg.subcommand)
    if handler is None:
        raise InputError(f"unknown subcommand {cfg.subcommand!r}")
    code, report = handler(cfg)
    if isinstance(report, str):          # already rendered (dot)
        return code, report
    if cfg.fmt == "text":
        lines = [f"{k}: {json.dumps(report[k], sort_keys=True)}"
                 for k in sorted(report)]
        return code, "\n".join(lines) + "\n"
    return code, json.dumps(report, sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    ap = _build_parser()
    ns = ap.parse_args(argv)
    cfg = config_from_args(ns)
    if ns.schema:
        schema = SCHEMAS.get(cfg.subcommand)
        if schema is None:
            print(f"no schema for {cfg.subcommand!r}", file=sys.stderr)
            return 2
        print(json.dumps(schema, sort_keys=True, indent=2))
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
        with open(cfg.output, "w") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
