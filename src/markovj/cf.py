"""Minus ("-") continued fractions with digits in {2,3,4}.

A period is a cyclic word, held as plain ``bytes`` with one byte per
digit; a purely periodic expansion (a1, a2, ...) = a1 - 1/(a2 - 1/...)
converges to a real > 1 whenever all digits are >= 2.  This module
holds the word of a Markov fraction p/q (markov_word, a closed form of
p/q), the compact text of a word, and the numerics, which take words
as given: a word's rotation values from one backward sweep after a
warm-up stopped by its own contraction (a parabolic word, all 2s, is
refused), and cycle states with a certificate that proves every
state's float error.  Only the cycle states need numpy, and they import
it when first called, so the word layer loads without it.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CycleStates",
    "PeriodError",
    "markov_word",
    "format_period",
    "cycle_states",
]

#: Cycle-state value range for Markov periods.
STATE_MIN = 3.0 / 8.0
STATE_MAX = 29.0 / 12.0
CONJ_MIN = -21.0 / 8.0
CONJ_MAX = -2.0 / 5.0

#: cycle_states proves every state within CHECK_TOL of its exact value.
CHECK_TOL = 1e-9


class PeriodError(ValueError):
    """Raised when a word is parabolic or its cycle states fail their
    certificate; the message names the word by its compact text."""


def markov_word(p: int, q: int) -> bytes:
    """The word of the Markov fraction p/q in [0, 1/2], one byte per digit.

    A Farey descent from the ends 0/1 (word 3) and 1/2 (word 4 2): the
    mediant of the ends has for word the right end's word followed by
    the left end's, and replaces the end on its side of p/q, until the
    mediant is p/q.  That word, rotated left by one digit, is p/q's: the
    upper Christoffel word of slope p/(q - p), p letters b and q - 2p
    letters a, with a -> 3 and b -> 4 2 (Reutenauer, From Christoffel
    Words to Markoff Numbers, 2019).  So it has q digits summing to 3q,
    and for p >= 1, where every descent word starts with 1/2's 4 2, it
    begins with 2 and ends with 4.
    A fraction at tree level n takes n mediants, and each copies at most
    q digits.  A p/q outside [0, 1/2], which no mediant reaches, or not
    reduced, whose descent ends at a shorter word, raises ValueError.
    """
    if q < 1 or not 0 <= 2 * p <= q:
        raise ValueError(f"{p}/{q} lies outside [0, 1/2], where no Markov word is")
    if math.gcd(p, q) != 1:
        raise ValueError(f"{p}/{q} is not reduced, and only a reduced p/q has a Markov word")
    lp, lq, left, rp, rq, right = 0, 1, b"\3", 1, 2, b"\4\2"
    mp, mq, word = (lp, lq, left) if p == 0 else (rp, rq, right)
    while p * mq != mp * q:
        mp, mq, word = lp + rp, lq + rq, right + left
        if p * mq < mp * q:
            rp, rq, right = mp, mq, word
        else:
            lp, lq, left = mp, mq, word
    return word[1:] + word[:1]


#: Digit bytes to their characters, and a run of two or more equal digits.
_DIGIT_TEXT = bytes.maketrans(b"\2\3\4", b"234")
_RUN_TEXT = re.compile(r"(\d)(?:,\1)+")


def format_period(word: bytes) -> str:
    """Render a word, run-length compressed ("2,3_2,4")."""
    text = ",".join(word.translate(_DIGIT_TEXT).decode())
    return _RUN_TEXT.sub(lambda run: f"{run[1]}_{(len(run[0]) + 1) // 2}", text)


class CycleStates:
    """The quadratics w^(1), ..., w^(l) of a cycle, in walk order: the
    values and their Galois conjugates, one array each.  Not comparable
    with ``==``: arrays have no single truth value."""

    __slots__ = ("values", "conj_values")

    def __init__(self, values: np.ndarray, conj_values: np.ndarray) -> None:
        self.values, self.conj_values = values, conj_values

    def __len__(self) -> int:
        return len(self.values)


def _rotation_values(word: bytes) -> list[float]:
    """Values T_k of every rotation word[k:] + word[:k], proved by
    :func:`_certify`.

    T_k = d_k - 1/T_(k+1) runs backward and cyclically from 2.  A step
    scales the start's error by 1/(T T'), so a warm-up runs until the
    product of 1/x^2 is below 2^-60 (|2 - T| < 2 leaves it below 2^-59),
    then one sweep stores the q values.  A digit above 2 makes a period
    contract by 1/eps^2 (Zagier 1981); a word of 2s is parabolic (every
    value 1) and is refused before any digit is read.
    """
    if not word.translate(None, b"\2"):
        raise PeriodError(f"parabolic word {format_period(word)}: every rotation value is 1")
    n, x, product, k = len(word), 2.0, 1.0, 0
    while product >= 2.0 ** -60:
        k -= 1
        x = word[k % n] - 1.0 / x
        product /= x * x
    values = [0.0] * n
    # Back from where the warm-up stopped; a negative index wraps once.
    for k in range(k % n - 1, k % n - 1 - n, -1):
        x = word[k] - 1.0 / x
        values[k] = x
    return values


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _certify(word: bytes, sweep: str, digits: np.ndarray, t: np.ndarray) -> float:
    """Prove each t_k within CHECK_TOL - 2^-50 of the exact rotation
    value T*_k of ``digits``, or raise PeriodError naming ``word``;
    return the bound e.

    Let delta = CHECK_TOL, lo = min t - delta and B the sup-norm ball of
    radius delta about t.  If lo > 1, F(x)_k = d_k - 1/x_{k+1} (indices
    mod n) contracts B by L = 1/lo^2 < 1, as |1/x - 1/y| = |x - y|/(xy).
    With r = max |t - F(t)|, F maps B into B if e = r/(1 - L) <= delta;
    then its one fixed point x* in B (Banach) has |x* - t| <=
    L|x* - t| + r, so |x* - t| <= e.  Each x*_k > 1 is fixed by the
    Mobius map of rotation k, whose other fixed point, the Galois
    conjugate, lies in (0, 1) (a purely periodic expansion is reduced:
    Zagier, Zetafunktionen und quadratische Koerper, 1981); so x* = T*.

    Rounding, u = 2^-53: the float F(t)_k is off by <= u + 4u, and
    t_k - F(t)_k rounds by <= u of itself, so r <= r'(1 + 2u) + 5u,
    below r' + 2^-49 for a computed r' <= 1.  The later steps round
    outward.  A state a0 - 1/t_k or conjugate -(b - 1/t_k) (a0, b <= 3)
    rounds by <= 4u and moves by |1/t_k - 1/T*_k| <= e, as t_k, T*_k > 1;
    so e + 2^-50 <= delta puts every state within CHECK_TOL.
    """
    import numpy as np

    lo = _down(float(t.min()) - CHECK_TOL)
    if not lo > 1.0:  # NaN fails too
        raise PeriodError(f"cycle state mismatch for {format_period(word)}: {sweep} sweep "
                          f"reaches {t.min():.17g}, not above 1 + {CHECK_TOL:g}")
    residual = float(np.abs(t - (digits - 1.0 / np.concatenate((t[1:], t[:1])))).max())
    contraction = _up(1.0 / _down(lo * lo))
    bound = _up(_up(residual + 2.0 ** -49) / _down(1.0 - contraction))
    if not _up(bound + 2.0 ** -50) <= CHECK_TOL:
        raise PeriodError(f"cycle state mismatch for {format_period(word)}: {sweep} sweep "
                          f"residual {residual:.3g} certifies only {bound:.3g}, "
                          f"not {CHECK_TOL:g}")
    return bound


def cycle_states(word: bytes) -> CycleStates:
    """Enumerate the full cycle w^(1), ..., w^(l), l = sum(a_i - 1).

    States are produced in walk order: for each cyclic position the
    leading integer a0 runs down from a_i - 1 to 1 over the rotation
    that follows digit a_i.  Conjugates come from the reversed-word
    formula.  The word's and its reversal's sweeps give the rotation
    values, spread over the states by array indexing: O(q) a node.
    :func:`_certify` proves every value and conjugate within CHECK_TOL
    of its exact value, or raises PeriodError.
    """
    import numpy as np

    # int64: a uint8 cumsum would wrap.
    last = np.frombuffer(word, np.uint8).astype(np.int64)
    # pos[s]: the cyclic position of state s; a0 counts down to 1 within it.
    pos = np.repeat(np.arange(len(word)), last - 1)
    a0 = np.cumsum(last - 1)[pos] - np.arange(len(pos))
    # t[i + 1]: the word after digit i; rev[-i]: the reversed word before it.
    t = np.array(_rotation_values(word))
    rev = np.array(_rotation_values(word[::-1]))
    _certify(word, "rotation", last, t)
    _certify(word, "reversed-word", last[::-1], rev)
    values = a0 - 1.0 / np.roll(t, -1)[pos]
    conj = -((last[pos] - a0) - 1.0 / rev[-pos])
    return CycleStates(values=values, conj_values=conj)
