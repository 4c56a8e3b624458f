"""Exact q-expansion of the Klein j-invariant and its evaluation.

j = E4^3 / Delta with E4 = 1 + 240 sum sigma_3(n) q^n,
E6 = 1 - 504 sum sigma_5(n) q^n and 1728 Delta = E4^3 - E6^2 (Serre,
A Course in Arithmetic, ch. VII), so j takes three products of
truncated series and one long division.  Coefficients are exact integers;
evaluation is restricted to Im z >= sqrt(3)/2 where the series
converges extremely fast (|q| <= e^(-pi sqrt 3) ~ 0.0043).  A truncated
series is the plain tuple (c_{-1}, c_0, ..., c_M) that j_coefficients
returns; it starts 1, 744 and every c_m (m >= 1) is positive.  The
evaluation imports numpy when called.
"""

from __future__ import annotations

import math

__all__ = [
    "j_coefficients",
    "j_eval",
    "SERIES_ORDER",
    "ARC_MIN_IM",
]

#: The order of the series the cycle integrals use.  On the arc every
#: order from 14 to 1000 gives bit-identical j at the quadrature nodes,
#: so the tail past 40 is far below double rounding.
SERIES_ORDER = 40

#: Lowest admissible imaginary part (the arc, with a small guard band).
ARC_MIN_IM = math.sqrt(3.0) / 2.0 - 1e-9


def _series_mul(a: list[int], b: list[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if ai:
            top = order - i
            for j, bj in enumerate(b[: top + 1]):
                out[i + j] += ai * bj
    return out


def _sigma(n: int, k: int) -> int:
    """The sum of the k-th powers of the divisors of n."""
    s = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            s += d**k
            e = n // d
            if e != d:
                s += e**k
    return s


def j_coefficients(order: int) -> tuple[int, ...]:
    """Exact coefficients c_{-1}, c_0, ..., c_order of the j-function."""
    if order < 0:
        raise ValueError("order must be >= 0")
    # q j = E4^3 / (Delta / q) to q^(order + 1), and Delta / q to there
    # needs E4^3 - E6^2 to q^(order + 2).
    n = order + 2
    e4 = [1] + [240 * _sigma(m, 3) for m in range(1, n + 1)]
    e6 = [1] + [-504 * _sigma(m, 5) for m in range(1, n + 1)]
    e4_cubed = _series_mul(_series_mul(e4, e4, n), e4, n)
    delta = [(a - b) // 1728 for a, b in zip(e4_cubed[1:], _series_mul(e6, e6, n)[1:])]
    # Long division; Delta / q starts 1.
    quot = [0] * n
    for m in range(n):
        quot[m] = e4_cubed[m] - sum(delta[m - i] * quot[i] for i in range(m))
    return tuple(quot)


def j_eval(z, coefficients: tuple[int, ...]):
    """Evaluate j at z (scalar or array) with Im z >= sqrt(3)/2 by the
    series ``coefficients`` (c_{-1}, ..., c_M) of j_coefficients(M).

    The tail past c_M is not added.  The cycle integrals use
    M = SERIES_ORDER, whose tail is below 1e-60 per state on the arc,
    and their error bound covers it by the relative 1e-9 raise of the
    truncation constant K in integrals._rule.
    """
    import numpy as np

    arr = np.asarray(z, dtype=complex)
    # Written so that NaN fails too.
    if not np.all(arr.imag >= ARC_MIN_IM):
        raise ValueError(f"Im z must be >= {ARC_MIN_IM}")
    q = np.exp(2j * math.pi * arr)
    acc = np.zeros_like(q)
    for c in reversed(coefficients):
        acc = acc * q + float(c)
    out = acc / q
    return out if arr.shape else complex(out)
