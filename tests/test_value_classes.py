"""The library's records and value classes: result records are
``NamedTuple``s; terms, forms, atoms, cells, sets, amalgam specs and the
CLI's run configuration are slotted classes with hand-written
constructors.  Importing latdev generates no class code: no module
imports ``dataclasses``."""

import ast
import copy
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import latdev
from latdev.adjustment import AdjustmentResult, TraceEntry
from latdev.cli import COMMANDS, Command, RunConfig
from latdev.deviations import DeviationViolation, PropertyReport
from latdev.lattices import PrimeIdealPoset
from latdev.posets import (AmalgamViolation, FinitePoset,
                           OrderFromWitnessResult, SeparabilityWitness,
                           StrongAmalgamSpec, WitnessViolation,
                           order_from_witness)
from latdev.semilinear import (EQ, GE, GT, Cell, Constraint, LinearForm,
                               SemilinearSet)
from latdev.vlterms import (Add, Gen, ImplicationRecord, Join, LadderCheck,
                            Meet, NoisoProbeReport, One, PiecewiseForm,
                            ProbeEntry, PscomProbeReport, Scale, _Binary,
                            linearize, random_term)

from conftest import random_form, random_point, random_poset, \
    random_semilinear

SRC = pathlib.Path(latdev.__file__).parent
SEED = 30


class _Tagged(_Binary):
    """A binary node of a tag that no operator uses, so that ``_Binary``'s
    own constructor, repr and freezing are tested apart from Add, Join and
    Meet."""
    __slots__ = ()
    _TAG = 7


def _term(rng):
    return random_term(rng, 3, 2)


def _poset(rng):
    return random_poset(rng, rng.randint(1, 4))


def _ladder(rng):
    return LadderCheck(_term(rng), _term(rng), True, random_point(rng, 2),
                       random_point(rng, 2), rng.random() < 0.5)


def _orders(rng):
    P = _poset(rng)
    return tuple(order_from_witness(P, SeparabilityWitness.full(P)))


def _amalgam(rng):
    P = _poset(rng)
    return P, FinitePoset.antichain(["p"]), {"p": frozenset(P.elements)}


def _fractions(rng, k):
    return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(k))


# (class, its former repr fields, the constructor's arguments from a seed)
RECORDS = [
    (TraceEntry, "base_value meetands joinands",
     lambda rng: (rng.randrange(5), ((rng.randrange(5), 0),), ())),
    (AdjustmentResult, "d_prime trace",
     lambda rng: ({(0, 1): rng.randrange(5)}, {})),
    (DeviationViolation, "axiom pair",
     lambda rng: (rng.choice((1, 2)), (rng.randrange(5), 0))),
    (PropertyReport, "left_isotone right_antitone cevian left_isotone_ce "
                     "right_antitone_ce cevian_ce",
     lambda rng: (rng.random() < 0.5, True, False,
                  (0, 1, rng.randrange(5)), None, None)),
    (PrimeIdealPoset, "ideals poset",
     lambda rng: ((frozenset({rng.randrange(5)}),), _poset(rng))),
    (SeparabilityWitness, "A B",
     lambda rng: tuple(SeparabilityWitness.full(_poset(rng)))),
    (WitnessViolation, "kind data",
     lambda rng: ("upper_bound", (rng.randrange(5), 0))),
    (OrderFromWitnessResult, "enumeration blocks prefix_shadows", _orders),
    (AmalgamViolation, "clause data",
     lambda rng: ("union", (rng.randrange(5),))),
    (PiecewiseForm, "dimension pieces",
     lambda rng: tuple(linearize(_term(rng), 3))),
    (ImplicationRecord, "binding holds witness",
     lambda rng: (True, rng.random() < 0.5, random_point(rng, 2))),
    (ProbeEntry, "term lower_implication upper_implication",
     lambda rng: (_term(rng), ImplicationRecord(False, None, None),
                  ImplicationRecord(True, True, random_point(rng, 3)))),
    (PscomProbeReport, "n alpha c entries",
     lambda rng: (3, 1, Fraction(rng.randint(1, 4)), ())),
    (LadderCheck, "lhs rhs inclusion_false witness anchor_point "
                  "anchor_valid", lambda rng: tuple(_ladder(rng))),
    (NoisoProbeReport, "k m n_coeff primary dual",
     lambda rng: (rng.randint(1, 4), 2, 3, _ladder(rng), _ladder(rng))),
    (Command, "handler arguments schema defaults dot",
     lambda rng: tuple(COMMANDS[rng.choice(sorted(COMMANDS))])),
]

VALUES = [
    (LinearForm, "coeffs const",
     lambda rng: (_fractions(rng, 3), _fractions(rng, 1)[0])),
    (Constraint, "form rel",
     lambda rng: (random_form(rng, 3), rng.choice((GT, GE, EQ)))),
    (Cell, "atoms",
     lambda rng: (Cell.of([Constraint(random_form(rng, 2), GE),
                           Constraint(random_form(rng, 2), GT)]).atoms,)),
    (SemilinearSet, "dimension cells",
     lambda rng: (2, random_semilinear(rng, 2).cells)),
    (StrongAmalgamSpec, "carrier index family", _amalgam),
    (RunConfig, "subcommand args output fmt seed cell_ceiling",
     lambda rng: ("vlat leq", {"n": rng.randint(1, 3)}, None, "json",
                  rng.randrange(9), 10_000)),
    (Gen, "index", lambda rng: (rng.randrange(9),)),
    (One, "", lambda rng: ()),
    (Scale, "coeff arg",
     lambda rng: (Fraction(rng.randint(-3, 3), 2), _term(rng))),
    (_Tagged, "left right", lambda rng: (_term(rng), _term(rng))),
    (Add, "left right", lambda rng: (_term(rng), _term(rng))),
    (Join, "left right", lambda rng: (_term(rng), _term(rng))),
    (Meet, "left right", lambda rng: (_term(rng), _term(rng))),
]

CASES = RECORDS + VALUES
IDS = [cls.__name__ for cls, _, _ in CASES]


def _build(cls, args):
    return cls(*args(random.Random(SEED)))


# fields computed when read, and the slots that they are computed from
COMPUTED = {LinearForm: ("coeffs const", "_vec _d"),
            Constraint: ("form", "key row")}


@pytest.mark.parametrize("cls, fields, args", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, args):
    obj = _build(cls, args)
    computed, slots = COMPUTED.get(cls, ("", ""))
    stored = [getattr(obj, name) for name in slots.split()]
    for name in fields.split():
        value = getattr(obj, name)
        if cls is RunConfig:                # the one mutable class
            setattr(obj, name, value)
            continue
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        if name in computed.split():
            assert getattr(obj, name) == value
        else:
            assert getattr(obj, name) is value
    assert all(getattr(obj, name) is v
               for name, v in zip(slots.split(), stored))
    with pytest.raises(AttributeError):
        obj.extra = 1                       # no __dict__ either


@pytest.mark.parametrize("cls, fields, args", CASES, ids=IDS)
def test_repr_names_the_fields(cls, fields, args):
    obj = _build(cls, args)
    shown = ", ".join(f"{name}={getattr(obj, name)!r}"
                      for name in fields.split())
    assert repr(obj) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, fields, args", CASES, ids=IDS)
def test_equal_fields_give_equal_objects_and_hashes(cls, fields, args):
    a, b = _build(cls, args), _build(cls, args)
    assert a is not b
    assert a == b and not a != b
    assert copy.copy(a) == a
    try:
        h = hash(a)
    except TypeError:                       # a dict among the fields
        with pytest.raises(TypeError):
            hash(b)
    else:
        assert hash(b) == h
    c = cls(*args(random.Random(SEED + 1)))
    if [getattr(c, f) for f in fields.split()] != \
            [getattr(a, f) for f in fields.split()]:
        assert a != c


_BINARIES = (_Tagged, Add, Join, Meet)


@pytest.mark.parametrize("cls, fields, args", VALUES,
                         ids=[cls.__name__ for cls, _, _ in VALUES])
def test_value_classes_are_unequal_to_other_classes(cls, fields, args):
    obj = _build(cls, args)
    values = tuple(getattr(obj, name) for name in fields.split())
    others = [values, list(values), object()]
    if cls in _BINARIES:
        others += [k(*values) for k in _BINARIES if k is not cls]
    for other in others:
        assert obj != other and other != obj


def test_binary_nodes_share_one_constructor():
    for cls in (Add, Join, Meet):
        assert "__init__" not in vars(cls) and cls.__slots__ == ()


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"dataclasses imported at {found}"


def test_cli_import_loads_no_dataclasses():
    """A fresh interpreter that imports ``latdev.cli`` has not loaded
    ``dataclasses`` (unless it had before the import)."""
    code = ("import sys; before = set(sys.modules); import latdev.cli; "
            "print(sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60,
                         check=True).stdout
    loaded = ast.literal_eval(out)
    assert "latdev.cli" in loaded and "dataclasses" not in loaded
