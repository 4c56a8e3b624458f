"""Minus ("-") continued fractions with digits in {2,3,4}.

Periods are cyclic words; a purely periodic expansion
(a1, a2, ...) = a1 - 1/(a2 - 1/...) converges to a real > 1 whenever all
digits are >= 2.  This module holds the combinatorics (conjunction of
periods and of their compact texts, least rotations) and the numerics
(fixed-point evaluation, and cycle-state enumeration with a contraction
certificate that bounds every state's float error).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "Period",
    "CycleStates",
    "PeriodError",
    "conjunction",
    "parse_period",
    "format_period",
    "join_texts",
    "eval_periodic",
    "period_matrix",
    "cycle_states",
]

#: Cycle-state value range for Markov periods.
STATE_MIN = 3.0 / 8.0
STATE_MAX = 29.0 / 12.0
CONJ_MIN = -21.0 / 8.0
CONJ_MAX = -2.0 / 5.0

#: Fixed-point iterations stop at a step below CONVERGED, or fail after MAX_SWEEPS.
CONVERGED = 1e-14
MAX_SWEEPS = 10_000

#: cycle_states proves every state within CHECK_TOL of its exact value.
CHECK_TOL = 1e-9


class PeriodError(ValueError):
    """Raised for malformed periods or a failed cycle check."""


@dataclass(frozen=True)
class Period:
    """A cyclic word of partial quotients.

    ``word`` holds one byte per digit in {2, 3, 4}, checked once on
    construction, in the rotation it was built with (the one the tree
    pictures show); ``digits`` is the same word as a tuple.  Equality and
    hashing use the least rotation, so two periods are equal iff one is
    a rotation of the other.
    """

    word: bytes

    def __post_init__(self) -> None:
        word = self.word
        try:
            # Iterated, so that an int is refused rather than read as a length.
            word = word if type(word) is bytes else bytes(iter(word))
        except (TypeError, ValueError) as exc:
            raise PeriodError(f"period digits must be integers in {{2,3,4}}: {exc}") from None
        if not word or word.translate(None, b"\2\3\4"):
            raise PeriodError("period must be a nonempty word over {2,3,4}, "
                              f"not one over {sorted(set(word))}")
        object.__setattr__(self, "word", word)

    @property
    def digits(self) -> tuple[int, ...]:
        return tuple(self.word)

    @cached_property
    def canonical(self) -> tuple[int, ...]:
        """The least rotation, found with Booth's O(q) algorithm
        (K. S. Booth, Inf. Proc. Lett. 10, 1980) on first use."""
        s = self.word * 2
        fail = [-1] * len(s)
        k = 0
        for j in range(1, len(s)):
            sj = s[j]
            i = fail[j - k - 1]
            while i != -1 and sj != s[k + i + 1]:
                if sj < s[k + i + 1]:
                    k = j - i - 1
                i = fail[i]
            if sj != s[k + i + 1]:
                if sj < s[k]:
                    k = j
                fail[j - k] = -1
            else:
                fail[j - k] = i + 1
        return tuple(self.word[k:] + self.word[:k])

    def __len__(self) -> int:
        return len(self.word)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Period):
            return self.canonical == other.canonical
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.canonical)

    @property
    def digit_sum(self) -> int:
        return sum(self.word)

    @property
    def cycle_length(self) -> int:
        """Length of the simple-form cycle, sum(a_i - 1)."""
        return sum(self.word) - len(self.word)

    def reversed(self) -> "Period":
        return Period(self.word[::-1])

    def __str__(self) -> str:
        return format_period(self)


def conjunction(left: Period, right: Period) -> Period:
    """Concatenate two periods (the child word on the tree)."""
    return Period(left.word + right.word)


_RUN_RE = re.compile(r"^(\d+)(?:_(\d+))?$")
#: Digit bytes to their characters, and a run of two or more equal digits.
_DIGIT_TEXT = bytes.maketrans(b"\2\3\4", b"234")
_RUN_TEXT = re.compile(r"(\d)(?:,\1)+")


def parse_period(text: str) -> Period:
    """Parse ``"2,3_2,4"`` or ``"2,3,3,4"`` (run-length sugar allowed)."""
    digits: list[int] = []
    for chunk in text.replace("(", "").replace(")", "").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        m = _RUN_RE.match(chunk)
        if not m:
            raise PeriodError(f"cannot parse period chunk {chunk!r}")
        digit = int(m.group(1))
        count = int(m.group(2) or 1)
        if count < 1:
            raise PeriodError(f"bad repeat count in {chunk!r}")
        digits.extend([digit] * count)
    return Period(digits)


def format_period(period: Period) -> str:
    """Render a period, run-length compressed ("2,3_2,4")."""
    text = ",".join(period.word.translate(_DIGIT_TEXT).decode())
    return _RUN_TEXT.sub(lambda run: f"{run[1]}_{(len(run[0]) + 1) // 2}", text)


def join_texts(left: str, right: str) -> str:
    """``format_period(conjunction(a, b))`` from the compact texts of a
    and b.  Runs are maximal in each text, so only the run that ends a
    and the run that starts b can merge: "2,3_2" + "3,4" is "2,3_3,4"."""
    head, _, last = left.rpartition(",")
    first, _, tail = right.partition(",")
    if last[0] != first[0]:
        return f"{left},{right}"
    run = f"{last[0]}_{int(last[2:] or 1) + int(first[2:] or 1)}"
    return ",".join(filter(None, (head, run, tail)))


def eval_periodic(period: Period | Sequence[int]) -> float:
    """Value of the purely periodic expansion: its word's first rotation
    value, iterated from 2 to within CONVERGED by :func:`_rotation_values`.
    """
    period = period if isinstance(period, Period) else Period(period)
    return _rotation_values(period.word)[0]


def period_matrix(period: Period | Sequence[int]) -> tuple[tuple[int, int], tuple[int, int]]:
    """Product of the step matrices [[a,-1],[1,0]], exact integers.

    det = 1 always; trace = 3c for the period of a Markov number c.
    """
    a, b, c, d = 1, 0, 0, 1
    word = period.word if isinstance(period, Period) else Period(period).word
    for digit in word:
        a, b, c, d = a * digit + b, -a, c * digit + d, -c
    return ((a, b), (c, d))


@dataclass(frozen=True, eq=False)
class CycleStates:
    """The quadratics w^(1), ..., w^(l) of a cycle, in walk order: the
    leading integers ``a0`` (each over a rotation of the period), the
    values and their Galois conjugates, one array each.  Not comparable
    with ``==``: arrays have no single truth value."""

    a0: np.ndarray
    values: np.ndarray
    conj_values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def _rotation_values(digits: Sequence[int]) -> list[float]:
    """Values T_k of every rotation digits[k:] + digits[:k].

    Cyclic backward sweeps of T_k = d_k - 1/T_{k+1}, started at T_0 = 2,
    run until T_0 moves by less than CONVERGED in one sweep; the last
    sweep's values are returned.  The map contracts by about 1/eps^2
    per sweep, so a few sweeps suffice, and :func:`_certify` bounds
    every value's error.
    """
    n = len(digits)
    x = 2.0
    for _ in range(MAX_SWEEPS):
        start = x
        values = [0.0] * n
        for k in range(n - 1, -1, -1):
            x = digits[k] - 1.0 / x
            values[k] = x
        if abs(x - start) < CONVERGED:
            return values
    raise PeriodError(f"rotation sweep did not converge for {Period(digits)}")


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _certify(period: Period, sweep: str, digits: np.ndarray, t: np.ndarray) -> float:
    """Prove each t_k within CHECK_TOL - 2^-50 of the exact rotation
    value T*_k of ``digits``, or raise PeriodError; return the bound e.

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
    lo = _down(float(t.min()) - CHECK_TOL)
    if not lo > 1.0:  # NaN fails too
        raise PeriodError(f"cycle state mismatch for {period}: {sweep} sweep "
                          f"reaches {t.min():.17g}, not above 1 + {CHECK_TOL:g}")
    residual = float(np.abs(t - (digits - 1.0 / np.concatenate((t[1:], t[:1])))).max())
    contraction = _up(1.0 / _down(lo * lo))
    bound = _up(_up(residual + 2.0 ** -49) / _down(1.0 - contraction))
    if not _up(bound + 2.0 ** -50) <= CHECK_TOL:
        raise PeriodError(f"cycle state mismatch for {period}: {sweep} sweep "
                          f"residual {residual:.3g} certifies only {bound:.3g}, "
                          f"not {CHECK_TOL:g}")
    return bound


def cycle_states(period: Period | Sequence[int]) -> CycleStates:
    """Enumerate the full cycle w^(1), ..., w^(l), l = sum(a_i - 1).

    States are produced in walk order: for each cyclic position the
    leading integer a0 runs down from a_i - 1 to 1 over the rotation
    that follows digit a_i.  Conjugates come from the reversed-word
    formula.  Both families of rotation values come from cyclic sweeps
    and are spread over the states by array indexing, so a node costs
    O(q).  :func:`_certify` proves every value and conjugate within
    CHECK_TOL of its exact value, or raises PeriodError.
    """
    period = period if isinstance(period, Period) else Period(period)
    word = period.word
    # int64: a uint8 cumsum would wrap.
    last = np.frombuffer(word, np.uint8).astype(np.int64)
    # pos[s]: the cyclic position of state s; a0 counts down to 1 within it.
    pos = np.repeat(np.arange(len(word)), last - 1)
    a0 = np.cumsum(last - 1)[pos] - np.arange(len(pos))
    # tails[i]: the word after digit i; rev[-i]: the reversed word before it.
    tails = np.array(_rotation_values(word[1:] + word[:1]))
    rev = np.array(_rotation_values(word[::-1]))
    _certify(period, "rotation", np.concatenate((last[1:], last[:1])), tails)
    _certify(period, "reversed-word", last[::-1], rev)
    values = a0 - 1.0 / tails[pos]
    conj = -((last[pos] - a0) - 1.0 / rev[-pos])
    return CycleStates(a0=a0, values=values, conj_values=conj)
