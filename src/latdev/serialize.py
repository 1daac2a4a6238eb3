"""JSON file formats and DOT export.

Formats (element ids are JSON strings):

* poset:      {"elements": [ids], "leq": [[a, b], ...]}
              (reflexive-transitive closure applied on load)
* witness:    {"A": {id: [ids]}, "B": {id: [ids]}}
* lattice:    {"downsets_of": <poset>}  or
              {"elements": ..., "leq": ..., "bottom": id,
               "check_distributive": bool?}
              (a poset with more than 4,096 down-sets exceeds a ceiling)
* deviation:  {"d": {"x,y": value}}, or a ``deviation search`` report
              holding it under "deviation"; ids are written as str(id)
              or, for down-set lattices, as {a,b} (so are the ids of
              ``adjust --order``; ``poset witness --order`` reads a
              poset's ids the same way)
* amalgam:    {"carrier": <poset>, "index": <poset>,
               "family": {p: [ids]}, "nu": {x: p}?}
* semilinear: {"dimension": n, "cells": [["2*x0 - 1 > 0", ...], ...]}
              (0 <= n <= 10,000; a larger n exceeds a ceiling)

A document of another shape (a value of the wrong JSON type, a missing
key, a pair that is not two ids) is an :class:`InputError`.
"""

from __future__ import annotations

import json
from typing import Optional

from .errors import InputError, ResourceLimitError
from .lattices import FiniteDistributiveLattice, lattice_from_downsets
from .posets import (FinitePoset, SeparabilityWitness, StrongAmalgamSpec)
from .semilinear import MAX_DIMENSION, SemilinearSet, parse_set


def _field(obj, key: str, what: str):
    """``obj[key]`` of a JSON object; InputError if ``obj`` is no object
    or has no such key."""
    if not isinstance(obj, dict):
        raise InputError(f"malformed {what} JSON: expected an object")
    if key not in obj:
        raise InputError(f"malformed {what} JSON: missing {key!r}")
    return obj[key]


def _is_strings(value) -> bool:
    """Whether ``value`` is a list of strings (ids or atom texts)."""
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _strings(value, what: str, name: str) -> list:
    if not _is_strings(value):
        raise InputError(
            f"malformed {what} JSON: {name} must be a list of strings")
    return value


def _id_sets(value, what: str, name: str) -> dict:
    """A JSON object from ids to lists of ids, as id -> frozenset."""
    if not isinstance(value, dict):
        raise InputError(
            f"malformed {what} JSON: {name} must map ids to lists of ids")
    return {x: frozenset(_strings(v, what, f"{name}[{x!r}]"))
            for x, v in value.items()}


def poset_from_json(obj) -> FinitePoset:
    elements = _strings(_field(obj, "elements", "poset"), "poset",
                        "'elements'")
    pairs = obj.get("leq", [])
    if not isinstance(pairs, list) or not all(
            _is_strings(p) and len(p) == 2 for p in pairs):
        raise InputError(
            "malformed poset JSON: 'leq' must be a list of [id, id] pairs")
    return FinitePoset.from_relation(elements, map(tuple, pairs))


def witness_from_json(obj) -> SeparabilityWitness:
    return SeparabilityWitness(
        *(_id_sets(_field(obj, k, "witness"), "witness", repr(k))
          for k in ("A", "B")))


def witness_to_json(P: FinitePoset, W: SeparabilityWitness) -> dict:
    return {"A": {str(x): sorted(map(str, W.A[x])) for x in P.elements},
            "B": {str(x): sorted(map(str, W.B[x])) for x in P.elements}}


def lattice_from_json(obj) -> FiniteDistributiveLattice:
    if isinstance(obj, dict) and "downsets_of" in obj:
        return lattice_from_downsets(poset_from_json(obj["downsets_of"]))
    P = poset_from_json(obj)
    check = obj.get("check_distributive", True)
    if not isinstance(check, bool):
        raise InputError("malformed lattice JSON: 'check_distributive' "
                         "must be true or false")
    D = FiniteDistributiveLattice(P, check_distributive=check)
    if "bottom" in obj and obj["bottom"] != D.bottom:
        raise InputError(
            f"declared bottom {obj['bottom']!r} is not the least element")
    return D


def render_id(x) -> str:
    """The text of an element id in reports: ``str`` of a scalar id, and
    ``{a,b}`` for the tuple ids of down-set lattices."""
    if isinstance(x, tuple):
        return "{" + ",".join(map(render_id, x)) + "}"
    return str(x)


def _pair(key: str, names: dict) -> tuple:
    """Split a pair key ``"x,y"`` at the one comma where both sides name
    elements (ids rendered by ``str`` or as ``{a,b}`` may hold commas)."""
    parts = key.split(",")
    if len(parts) == 2:
        return tuple(parts)
    cuts = [(key[:i], key[i + 1:]) for i, ch in enumerate(key)
            if ch == "," and key[:i] in names and key[i + 1:] in names]
    if len(cuts) != 1:
        raise InputError(f"bad pair key {key!r}")
    return cuts[0]


def _element_names(P: FinitePoset) -> dict:
    """Each element of the poset under both of its renderings."""
    names: dict = {}
    for e in P.elements:
        names.setdefault(str(e), e)
        names.setdefault(render_id(e), e)
    return names


def elements_from_text(text: str, P: FinitePoset) -> list:
    """The elements of P named by a comma-separated list of ids, rendered
    by ``str`` or as ``{a,b}`` (so they may hold commas): the one way of
    cutting the text at commas into segments that each name an element."""
    names = _element_names(P)
    width = 1 + max((name.count(",") for name in names), default=0)
    parts = text.split(",")
    # count[j]: the cuttings of parts[:j], counted up to two (ambiguous);
    # start[j]: where the last segment of one of them starts
    count = [1] + [0] * len(parts)
    start = [0] * (len(parts) + 1)
    for j in range(1, len(parts) + 1):
        for i in range(max(0, j - width), j):
            if count[i] and ",".join(parts[i:j]) in names:
                count[j] = min(2, count[j] + count[i])
                start[j] = i
    if count[-1] == 0:
        raise InputError(f"{text!r} is not a list of elements")
    if count[-1] > 1:
        raise InputError(f"{text!r} reads as more than one list of "
                         f"elements")
    segments, j = [], len(parts)
    while j:
        segments.append(",".join(parts[start[j]:j]))
        j = start[j]
    return [names[segment] for segment in reversed(segments)]


def deviation_from_json(obj, D: FiniteDistributiveLattice) -> dict:
    """Read a deviation map, or the map of a ``deviation search`` report
    (under ``"deviation"``).  Element ids may be written as ``str(id)``
    or, for the tuple ids of down-set lattices, as ``{a,b}``."""
    if isinstance(obj, dict) and "d" not in obj and "deviation" in obj:
        obj = obj["deviation"]
        if obj is None:
            raise InputError("the search report holds no deviation")
    try:
        raw = obj["d"]
        items = list(raw.items())
    except (KeyError, TypeError, AttributeError) as exc:
        raise InputError(f"malformed deviation JSON: {exc}") from None
    names = _element_names(D.poset)
    d = {}
    for key, v in items:
        x, y = _pair(key, names)
        for e in (x, y, v):
            if not isinstance(e, str) or e not in names:
                raise InputError(f"unknown element {e!r} in deviation map")
        d[(names[x], names[y])] = names[v]
    return d


def _by_pair(mapping) -> list:
    """The items of a map keyed by id pairs (x, y), in the order that
    reports list them: by (str(x), str(y))."""
    return sorted(mapping.items(),
                  key=lambda kv: (str(kv[0][0]), str(kv[0][1])))


def deviation_to_json(d: dict) -> dict:
    return {"d": {f"{x},{y}": str(v) for (x, y), v in _by_pair(d)}}


def amalgam_from_json(obj) -> tuple:
    """Returns (spec, nu or None)."""
    carrier = poset_from_json(_field(obj, "carrier", "amalgam"))
    index = poset_from_json(_field(obj, "index", "amalgam"))
    family = _id_sets(_field(obj, "family", "amalgam"), "amalgam",
                      "'family'")
    nu = obj.get("nu")
    if nu is not None and not (isinstance(nu, dict) and all(
            isinstance(p, str) for p in nu.values())):
        raise InputError("malformed amalgam JSON: 'nu' must map ids to ids")
    return StrongAmalgamSpec(carrier, index, family), nu


def semilinear_from_json(obj) -> SemilinearSet:
    n = _field(obj, "dimension", "semilinear")
    cells = _field(obj, "cells", "semilinear")
    if type(n) is not int or n < 0:
        raise InputError("malformed semilinear JSON: 'dimension' must be "
                         "a non-negative integer")
    if n > MAX_DIMENSION:
        raise ResourceLimitError(
            f"dimension {n} exceeds ceiling {MAX_DIMENSION}")
    if not isinstance(cells, list) or not all(map(_is_strings, cells)):
        raise InputError("malformed semilinear JSON: 'cells' must be a "
                         "list of lists of atom texts")
    return parse_set(cells, n)


def semilinear_to_json(S: SemilinearSet) -> dict:
    return {"dimension": S.dimension,
            "cells": [[str(a) for a in c.atoms] for c in S.cells]}


def read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def load_json(path: str):
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from None


# ---------------------------------------------------------------------------
# DOT export (Hasse diagrams)
# ---------------------------------------------------------------------------

def dot_poset(P: FinitePoset, name: str = "poset",
              labels: Optional[dict] = None) -> str:
    def lab(x):
        if labels and x in labels:
            return labels[x]
        return render_id(x)

    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for x in P.elements:
        lines.append(f'  "{lab(x)}";')
    for a, b in P.covers():
        lines.append(f'  "{lab(a)}" -> "{lab(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_lattice(D: FiniteDistributiveLattice, name: str = "lattice") -> str:
    return dot_poset(D.poset, name)
