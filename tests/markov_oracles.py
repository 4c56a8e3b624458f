"""Per-node derivations that the tree no longer runs, kept as test oracles.

The tree reads c, k, the form and the triple off each node's period
matrix.  These re-derive them independently: the triple by Vieta
involutions with the Markov equation checked, k by a modular inverse,
the form from (c, k) with its discriminant checked.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from markovj.tree import TreeError, vieta_children


@dataclass(frozen=True)
class MarkovTriple:
    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        a, b, c = self.a, self.b, self.c
        if min(a, b, c) < 1:
            raise TreeError(f"triple must be positive: {(a, b, c)}")
        if a * a + b * b + c * c != 3 * a * b * c:
            raise TreeError(f"not a Markov triple: {(a, b, c)}")

    def __iter__(self):
        return iter((self.a, self.b, self.c))


def vieta_triple(path: str) -> MarkovTriple:
    """The triple at tree path ``path`` by Vieta involutions from the
    root (2, 1, 5), each step checked against the Markov equation."""
    triple = MarkovTriple(2, 1, 5)
    for step in path:
        triple = MarkovTriple(*vieta_children(triple)["LR".index(step)])
    return triple


def markov_k(t: MarkovTriple) -> int:
    """The unique 0 <= k < c with a*k = b (mod c)."""
    a, b, c = t
    if c == 1:
        return 0
    try:
        k = (b * pow(a, -1, c)) % c
    except ValueError as exc:
        raise TreeError(f"a={a} not invertible mod c={c}") from exc
    if (k * k + 1) % c != 0:
        raise TreeError(f"c={c} does not divide k^2+1 for k={k}")
    return k


def markov_form(c: int, k: int) -> tuple[int, int, int]:
    """The quadratic form [c, 3c-2k, l-3k] with l = (k^2+1)/c."""
    if c < 1:
        raise TreeError("c must be >= 1")
    if (k * k + 1) % c != 0:
        raise TreeError(f"c={c} does not divide k^2+1={k * k + 1}")
    ell = (k * k + 1) // c
    form = (c, 3 * c - 2 * k, ell - 3 * k)
    a, b, cf = form
    if b * b - 4 * a * cf != 9 * c * c - 4:
        raise TreeError(f"form {form} does not have discriminant 9c^2-4")
    return form


def markov_irrational(c: int, k: int) -> float:
    """(3c - 2k + sqrt(9c^2 - 4)) / (2c), good to ~1e-15 relative.

    Works for arbitrarily large c: both summands stay in (0, 3] as
    exact Fractions until the final correctly-rounded float conversion.
    """
    if c < 1 or not 0 <= k < c:
        raise TreeError(f"bad (c, k) = ({c}, {k})")
    rational = float(Fraction(3 * c - 2 * k, 2 * c))
    return rational + math.sqrt(float(Fraction(9 * c * c - 4, 4 * c * c)))


def markov_constant(c: int) -> float:
    """sqrt(9 - 4/c^2), the Lagrange/Markov constant of the node."""
    if c < 1:
        raise TreeError("c must be >= 1")
    return math.sqrt(9.0 - 4.0 / (float(c) * float(c)))
