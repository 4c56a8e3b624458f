"""Exact q-expansion of the Klein j-invariant and its evaluation.

j = E4^3 / Delta with E4 = 1 + 240 sum sigma_3(n) q^n and
Delta = q prod (1 - q^n)^24 (pentagonal-number expansion of the Euler
product).  Coefficients are exact integers; evaluation is restricted to
Im z >= sqrt(3)/2 where the series converges extremely fast
(|q| <= e^(-pi sqrt 3) ~ 0.0043).  A truncated series is the plain
tuple (c_{-1}, c_0, ..., c_M) that j_coefficients returns; it starts
1, 744 and every c_m (m >= 1) is positive.  The evaluation imports
numpy when called.
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


def _sigma3(n: int) -> int:
    s = 0
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            s += d**3
            e = n // d
            if e != d:
                s += e**3
    return s


def j_coefficients(order: int) -> tuple[int, ...]:
    """Exact coefficients c_{-1}, c_0, ..., c_order of the j-function."""
    if order < 0:
        raise ValueError("order must be >= 0")
    n = order + 1
    e4 = [1] + [240 * _sigma3(m) for m in range(1, n + 1)]
    e4_cubed = _series_mul(_series_mul(e4, e4, n), e4, n)
    # Euler product prod(1 - q^m) via the pentagonal number theorem,
    # then the 24th power.
    euler = [0] * (n + 1)
    euler[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 <= n:
        sign = -1 if k % 2 else 1
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= n:
                euler[g] += sign
        k += 1
    eta24 = [1]
    for _ in range(24):
        eta24 = _series_mul(eta24, euler, n)
    # Long division E4^3 / eta24 (Delta = q * eta24 shifts by one).
    quot = [0] * (n + 1)
    for m in range(n + 1):
        quot[m] = e4_cubed[m] - sum(eta24[m - i] * quot[i] for i in range(m))
    return tuple(quot[: order + 2])


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
