"""Minus ("-") continued fractions with digits in {2,3,4}.

A period is a cyclic word, held as plain ``bytes`` with one byte per
digit; a purely periodic expansion (a1, a2, ...) = a1 - 1/(a2 - 1/...)
converges to a real > 1 whenever all digits are >= 2.  This module
holds the word of a Markov fraction p/q (markov_word, a closed form of
p/q), the compact text of a word, and the numerics for admissible words
(no 2 next to a 2), as every tree word is: rotation values from one
backward sweep and cycle states, each within STATE_ERROR of its exact
value by an a priori proof.  Only the cycle states need numpy, and they
import it when first called, so the word layer loads without it.
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

#: Every rotation value, cycle state and conjugate of an admissible word
#: lies within STATE_ERROR of its exact value: (13/3) 2^-53 + 2^-80,
#: proved in _rotation_values and cycle_states.
STATE_ERROR = 13.0 / 3.0 * 2.0 ** -53 + 2.0 ** -80


class PeriodError(ValueError):
    """Raised when a word is not admissible (see _rotation_values); the
    message names the word."""


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
    """Values T_k of every rotation word[k:] + word[:k] of an admissible
    word, each within STATE_ERROR of its exact value.

    A word is admissible when its digits are 2, 3 or 4 and no 2 is next
    to a 2, the word read cyclically.  Every tree word is: it is a
    Christoffel word under a -> 3, b -> 4 2 (see markov_word), so each 2
    has a 4 before it and a 3 or 4 after it.  Any other word, the empty
    word too, is refused before any digit is indexed; a word of 2s is
    parabolic (every value 1).

    T_k = d_k - 1/T_(k+1) runs backward and cyclically from x = 2 for 53
    warm-up steps, then one sweep stores the q values.  The box "x in
    [3/2, 4], and x in [2, 4] where d >= 3" holds at the start and is
    kept by every step: a digit d >= 3 gives d - 1/x in [7/3, 15/4], and a
    2, whose successor is a 3 or 4, gives 2 - 1/x in [3/2, 7/4].  Each
    bound is a float, so rounding, being monotone, keeps the computed
    x in the box too; the exact T_k, the limit of the recursion from any
    start in the box, lie in it.  With u = 2^-53 and e_k = x_k - T_k, the
    computed 1/x errs by <= (2/3)u and d - 1/x < 4 rounds by <= 2u, so
    |e_k| <= |e_(k+1)|/(x_(k+1) T_(k+1)) + (8/3)u.  The factor is <= 1/4
    where d_(k+1) >= 3 and <= 4/9 where it is 2; 2s are isolated, so any
    two consecutive factors multiply to <= 1/9, and the rounding terms
    sum to at most (8/3)u (1 + 4/9)/(1 - 1/9) = (13/3)u.  The start's
    error |2 - T| <= 2 has shrunk by <= (4/9) 9^-26 after 53 steps, so
    every stored value is within (13/3)u + 2^-80 = STATE_ERROR.
    """
    if not word or word.translate(None, b"\2\3\4"):
        raise PeriodError(f"word {list(word)} is not a nonempty word over 2, 3, 4")
    if not word.translate(None, b"\2"):
        raise PeriodError(f"parabolic word {format_period(word)}: every rotation value is 1")
    if b"\2\2" in word * 2:
        raise PeriodError(f"word {format_period(word)} is not admissible: a 2 is next to a 2")
    n, x = len(word), 2.0
    for k in range(-1, -54, -1):
        x = word[k % n] - 1.0 / x
    values = [0.0] * n
    # Back from where the warm-up stopped; a negative index wraps once.
    for k in range(k % n - 1, k % n - 1 - n, -1):
        x = word[k] - 1.0 / x
        values[k] = x
    return values


def cycle_states(word: bytes) -> CycleStates:
    """Enumerate the full cycle w^(1), ..., w^(l), l = sum(a_i - 1).

    States are produced in walk order: for each cyclic position the
    leading integer a0 runs down from a_i - 1 to 1 over the rotation
    that follows digit a_i.  Conjugates come from the reversed-word
    formula.  The word's and its reversal's sweeps give the rotation
    values, spread over the states by array indexing: O(q) a node.  A
    word that is not admissible raises PeriodError.

    A state a0 - 1/t, and a conjugate -(b - 1/t) (a0, b <= 3), is one
    more step of _rotation_values' error recursion, with its rounding
    (1/t and a result below 4) and its factor 1/(t T): so it too is
    within STATE_ERROR of its exact value.
    """
    import numpy as np

    # t[i + 1]: the word after digit i; rev[-i]: the reversed word before it.
    t = np.array(_rotation_values(word))
    rev = np.array(_rotation_values(word[::-1]))
    # int64: a uint8 cumsum would wrap.
    last = np.frombuffer(word, np.uint8).astype(np.int64)
    # pos[s]: the cyclic position of state s; a0 counts down to 1 within it.
    pos = np.repeat(np.arange(len(word)), last - 1)
    a0 = np.cumsum(last - 1)[pos] - np.arange(len(pos))
    values = a0 - 1.0 / np.roll(t, -1)[pos]
    conj = -((last[pos] - a0) - 1.0 / rev[-pos])
    return CycleStates(values=values, conj_values=conj)
