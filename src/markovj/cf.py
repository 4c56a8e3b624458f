"""Minus ("-") continued fractions with digits in {2,3,4}.

Periods are cyclic words; a purely periodic expansion
(a1, a2, ...) = a1 - 1/(a2 - 1/...) converges to a real > 1 whenever all
digits are >= 2.  This module holds the combinatorics (conjunction of
periods, least rotations) and the numerics (fixed-point evaluation,
cycle-state enumeration and its exact integer check).
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


def format_period(period: Period, compact: bool = True) -> str:
    """Render a period, run-length compressed by default ("2,3_2,4")."""
    word = period.word
    if not compact:
        return ",".join(map(str, word))
    parts: list[str] = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        run = j - i
        parts.append(f"{word[i]}_{run}" if run > 1 else str(word[i]))
        i = j
    return ",".join(parts)


def eval_periodic(period: Period | Sequence[int]) -> float:
    """Value of the purely periodic expansion, via fixed-point iteration
    of the period's Mobius map starting at 2, to within CONVERGED.
    """
    period = period if isinstance(period, Period) else Period(period)
    x = 2.0
    for _ in range(MAX_SWEEPS):
        y = x
        for d in reversed(period.word):
            y = d - 1.0 / y
        if abs(y - x) < CONVERGED:
            return y
        x = y
    raise PeriodError(f"fixed-point iteration did not converge for {period}")


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
    update every T_k in turn.  Each T_k is kept from the first sweep in
    which it moves by less than CONVERGED, the rule :func:`eval_periodic`
    applies to a single rotation (so T_0 is exactly its value), and the
    sweeps stop once every T_k is kept.  The map contracts by about
    1/eps^2 per sweep, so a few sweeps suffice.
    """
    n = len(digits)
    prev = [math.inf] * n
    kept: list = [None] * n
    left = n
    x = 2.0
    for _ in range(MAX_SWEEPS):
        for k in range(n - 1, -1, -1):
            x = digits[k] - 1.0 / x
            if kept[k] is None and abs(x - prev[k]) < CONVERGED:
                kept[k] = x
                left -= 1
            prev[k] = x
        if not left:
            return kept
    raise PeriodError(f"rotation sweep did not converge for {Period(digits)}")


def _exact_cycle(period: Period, values: list[float], check_tol: float) -> None:
    """Check ``values`` against the simple-form cycle walk run exactly.

    The walk starts at w - 1, w the attracting fixed point of the
    period matrix, and applies z -> z-1 (z >= 1) or z -> z/(1-z).  Each
    z = (P + sqrt(D))/Q is kept as the integer pair (P, Q) with Q > 0
    and Q | D - P^2: the reduction cycle of a binary quadratic form of
    discriminant D (Zagier, Zetafunktionen und quadratische Koerper,
    1981).  The walk must close after exactly len(values) steps.
    """
    (a, _b), (c, d) = period_matrix(period)
    disc = (a + d) ** 2 - 4
    root = math.isqrt(disc << 128)  # floor(sqrt(D) * 2^64)
    # D = t^2 - 4 with trace t >= 3 is never a square, so z >= 1 iff
    # sqrt(D) > Q - P iff Q - P <= floor(sqrt(D)).
    floor_sqrt = root >> 64
    p, q = a - d - 2 * c, 2 * c
    start = (p, q)
    for value in values:
        # int / int is correctly rounded at any size.
        exact = ((p << 64) + root) / (q << 64)
        if abs(value - exact) > check_tol:
            raise PeriodError(
                f"cycle state mismatch for {period}: "
                f"{value} vs exact {exact}"
            )
        if q - p <= floor_sqrt:
            p -= q
        else:
            p = q - p
            q, rem = divmod(p * p - disc, q)
            if rem:
                raise PeriodError(f"inexact cycle step for {period}")
            p -= q
    if (p, q) != start:
        raise PeriodError(
            f"cycle of {period} did not close after {len(values)} steps"
        )


def cycle_states(
    period: Period | Sequence[int],
    cross_check: bool = True,
    check_tol: float = 1e-9,
) -> CycleStates:
    """Enumerate the full cycle w^(1), ..., w^(l), l = sum(a_i - 1).

    States are produced in walk order: for each cyclic position the
    leading integer a0 runs down from a_i - 1 to 1 over the rotation
    that follows digit a_i.  Conjugates come from the reversed-word
    formula.  Both families of rotation values come from cyclic sweeps
    and are spread over the states by array indexing, so a node costs
    O(q).  With ``cross_check`` the values are verified against an
    exact-arithmetic run of the cycle map.
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
    values = a0 - 1.0 / tails[pos]
    conj = -((last[pos] - a0) - 1.0 / rev[-pos])
    if cross_check:
        _exact_cycle(period, values.tolist(), check_tol)
    return CycleStates(a0=a0, values=values, conj_values=conj)
