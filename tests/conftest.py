"""Shared corpus generators and the alarm helper used across the test
suite."""

import contextlib
import random
import signal
from fractions import Fraction
from itertools import product

import pytest

from latdev.posets import FinitePoset
from latdev.lattices import FiniteDistributiveLattice, lattice_from_downsets
from latdev.semilinear import (Cell, Constraint, GE, GT, EQ, LinearForm,
                               SemilinearSet)


class _Overrun(BaseException):
    """Raised by the alarm of :func:`time_limit`; a BaseException, so no
    ``except Exception`` in the code under test swallows it."""


@contextlib.contextmanager
def time_limit(seconds: float, what: str):
    """Run the block under an alarm: past ``seconds`` it is interrupted
    and the test fails with "<what> ran for <seconds> s".

    The failure carries no traceback, and it drops the interrupted one:
    ``from None``, because the exit of a ``with`` block still handles the
    interrupt, and pytest would format its frames as the context (they
    can end the session with an INTERNALERROR)."""
    def stop(signum, frame):
        raise _Overrun

    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except _Overrun:
        raise pytest.fail.Exception(f"{what} ran for {seconds} s",
                                    pytrace=False) from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def random_poset(rng: random.Random, n: int, p: float = 0.3) -> FinitePoset:
    """Random poset on 0..n-1 via a random DAG with upward edges."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return FinitePoset.from_relation(range(n), pairs)


def all_posets(max_n: int):
    """Every labeled poset on {0..n-1} for each n <= max_n.

    Each unordered pair is incomparable, <, or >; candidates failing
    transitivity are discarded.
    """
    for n in range(max_n + 1):
        idx_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for states in product((0, 1, 2), repeat=len(idx_pairs)):
            rel = []
            for (i, j), s in zip(idx_pairs, states):
                if s == 1:
                    rel.append((i, j))
                elif s == 2:
                    rel.append((j, i))
            le = [[i == j for j in range(n)] for i in range(n)]
            for a, b in rel:
                le[a][b] = True
            ok = True
            for i in range(n):
                for j in range(n):
                    if not le[i][j]:
                        continue
                    for k in range(n):
                        if le[j][k] and not le[i][k]:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if ok:
                yield FinitePoset(range(n), rel)


def downset_lattice_corpus(max_n: int):
    """Down-set lattices of every labeled poset with at most max_n elements."""
    for J in all_posets(max_n):
        yield lattice_from_downsets(J)


def random_downset_lattice(rng: random.Random,
                           max_base: int = 3) -> FiniteDistributiveLattice:
    return lattice_from_downsets(random_poset(rng, rng.randint(0, max_base)))


def random_point(rng: random.Random, n: int) -> tuple:
    return tuple(Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4]))
                 for _ in range(n))


def random_form(rng: random.Random, n: int) -> LinearForm:
    coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    if all(c == 0 for c in coeffs):
        coeffs[rng.randrange(n)] = Fraction(rng.choice([-2, -1, 1, 2]))
    return LinearForm(tuple(coeffs), Fraction(rng.randint(-3, 3)))


def random_semilinear(rng: random.Random, n: int,
                      max_cells: int = 3, max_atoms: int = 3) -> SemilinearSet:
    cells = []
    for _ in range(rng.randint(0, max_cells)):
        atoms = []
        for _ in range(rng.randint(0, max_atoms)):
            rel = rng.choices([GT, GE, EQ], weights=[9, 9, 2])[0]
            atoms.append(Constraint(random_form(rng, n), rel))
        cells.append(Cell.of(atoms))
    return SemilinearSet.of(n, cells)


_OPERANDS = ("g0", "g1", "g2", "one", "0", "2", "1/2")
_PREFIXES = ("-", "2*", "1/2*", "(", "|")
_OPERATORS = ("+", "-", "\\/", "/\\")
_JUNK = ("g10", "3/0", "*", "/", "\\", "^", "x", "on", "١", "")


def token_soup(rng: random.Random) -> str:
    """Term text of up to 15 tokens, most of them where the grammar
    expects them (an operand or prefix, then a binary operator, ``^+`` or
    a closing bracket) and one in 25 anywhere or not a token at all, with
    or without blanks between them; most open brackets are closed at the
    end.  About a quarter of the texts parse, many of them mixing
    operators without brackets."""
    out, operand, opened = [], True, []
    for _ in range(rng.randrange(16)):
        r = rng.random()
        if r < 0.04:
            tok = rng.choice(_JUNK + _PREFIXES + _OPERATORS + (")", "^+"))
        elif operand:
            tok = rng.choice(_OPERANDS + _PREFIXES)
        elif opened and r < 0.3:
            tok = ")" if opened.pop() == "(" else "|"
        else:
            tok = rng.choice(_OPERATORS + ("^+",))
        if operand and tok in ("(", "|"):
            opened.append(tok)
        operand = tok in _PREFIXES or tok in _OPERATORS
        out.append(tok + rng.choice(("", " ", " ", "\t")))
    out += [")" if b == "(" else "|" for b in reversed(opened)
            if rng.random() < 0.9]
    return "".join(out)


@pytest.fixture
def rng():
    return random.Random(20260809)
