"""Cycle integrals of j along Markov geodesics.

J(w) is the integral of j(e^(i theta)) i e^(i theta) times the
simple-form kernel over the arc theta in [pi/3, 2pi/3]; the value
j(w) = J(w) / (2 log eps) with eps the fundamental unit
(3c + sqrt(9c^2 - 4))/2.

Orientation convention: the published reference values correspond to
the cycle of the *reversed* period word (the oppositely oriented
geodesic); the forward word gives the complex conjugate.  We follow the
reference orientation, so imaginary parts come out < 0, except at the
tips 0/1 and 1/2: their words are their own reversals, so J is real
there and the computed Im J is rounding of either sign (below
1e-16 |J|).

Each value carries a proved bound on its quadrature error: the
20-point Gauss-Legendre truncation error over a Bernstein ellipse, in
which every node's integrand is analytic, plus the rounding of the sum
(see integrate_J).  The rule's nodes and weights are built in floats by
Newton's method on the Legendre recurrence (see _rule), and einsum, not
BLAS, sums over the states, so a value needs neither numpy.polynomial
nor a BLAS or LAPACK call.

Only integrate_J needs numpy, and it imports it when called, so the
cache functions load without it.
"""

from __future__ import annotations

import functools
import json
import math
import os
from typing import Iterable, NamedTuple

from .cf import CONJ_MAX, CONJ_MIN, STATE_MAX, STATE_MIN, cycle_states
from .jfunction import SERIES_ORDER, j_coefficients, j_eval
from .tree import TreeNode

__all__ = [
    "CycleValue",
    "QuadratureError",
    "log_epsilon",
    "integrate_J",
    "compute_values",
    "cache_record",
    "cached_value",
    "check_cache_writable",
    "write_cache",
    "read_cache",
    "cache_index",
]

ARC_LO = math.pi / 3.0
ARC_HI = 2.0 * math.pi / 3.0

#: Points of the Gauss-Legendre rule that gives each value.  METHOD
#: names the rule, not how its floats are formed: a record's bound was
#: proved for the arrays that computed it, so it holds whatever rule
#: arrays a later version builds.
RULE_POINTS = 20
METHOD = f"gauss-legendre-{RULE_POINTS}"
#: The Bernstein ellipse of the truncation bound, E_rho around the
#: rule's interval; 3.15 is near the rho that minimises the bound.
RHO = 3.15
#: Units u = 2^-53 that the rule's float arrays add to each term of the
#: sum, 4.7 + 4 + 4 + 10 rounded up (integrate_J); tests/test_integrals.py
#: checks them.
RULE_ULPS = 23

CACHE_SCHEMA = 2
#: The type of each field of a cache record, as read back from JSON.
CACHE_FIELDS = {
    "schema": int, "path": str, "q": int, "c": str, "J_re": float, "J_im": float,
    "quad_err": float, "series_order": int, "method": str,
}


class QuadratureError(ValueError):
    """The quadrature bound exceeds the tolerance (the message names the
    bound), or a cycle state lies outside its certified box."""


def log_epsilon(c: int) -> float:
    """log((3c + sqrt(9c^2 - 4)) / 2) for an arbitrary-precision c.

    Split as log(3c) + log((1 + sqrt(1 - 4/(9c^2)))/2) so that the big
    integer only enters through math.log, which handles it exactly.
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    return _log_epsilon(c, math.log(c))


def _log_epsilon(c: int, log_c: float) -> float:
    """log_epsilon(c) for c >= 1, given log_c = math.log(c)."""
    if c >> 256:
        # 4/(9c^2) underflows; the correction is log(1) = 0.
        return math.log(3) + log_c
    return math.log(3) + log_c + math.log(
        (1.0 + math.sqrt(1.0 - 4.0 / (9.0 * float(c) * float(c)))) / 2.0)


def _legendre(x):
    """P_n and P_n' at x (|x| < 1) for n = RULE_POINTS, by the three-term
    recurrence k P_k = (2k - 1) x P_(k-1) - (k - 1) P_(k-2)."""
    p0, p1 = 1.0, x
    for k in range(2, RULE_POINTS + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, RULE_POINTS * (x * p1 - p0) / (x * x - 1.0)


@functools.cache
def _rule():
    """The Gauss-Legendre rule on the arc, built once per process with
    the j-series of order SERIES_ORDER: at the nodes z_m = e^(i theta_m),
    g_m = h w_m j(z_m) i z_m, conj(z_m), the columns Re z_m and
    (Im z_m)^2, and G_m = h w_m sum_k |c_k| |q_m|^k, the series'
    absolute sum (j at i Im z_m, where q > 0); then the truncation
    constant K.

    The nodes x_m, in increasing order, are the roots of P_n (n = 20):
    five Newton steps on its three-term recurrence from Tricomi's
    estimates cos(pi (m - 1/4)/(n + 1/2)), m = n, ..., 1.  The fourth
    step is below 4e-16 and the fifth only rounding.  The weights are
    w_m = 2/((1 - x_m^2) P_n'(x_m)^2) (Hale and Townsend, SIAM J. Sci.
    Comput. 35 (2013); Trefethen, ATAP, ch. 19).  Against the rule
    to 40 digits, x_m is within 1.3u and g_m within 7.0u G_m, where
    integrate_J's proof allows 4u and 10u.

    K l bounds the rule's error for a node of l states.  An n-point
    rule errs by at most (64/15) M RHO^(-2n)/(RHO^2 - 1) on an integrand
    analytic in the Bernstein ellipse E_RHO and bounded by M there
    (Trefethen, Approximation Theory and Approximation Practice,
    Thm 19.3).  With theta = pi/2 + h x, h = pi/6, E_RHO maps into
    |Re theta - pi/2| <= a = h(RHO + 1/RHO)/2 < pi/2 and
    |Im theta| <= b = h(RHO - 1/RHO)/2, where |z| <= e^b and
    Im z >= y_min = e^(-b) cos a > 0.  The kernel's poles, the states
    and their conjugates, are real (their boxes are checked for every
    node), so each of its 2l terms is below 1/y_min.  The sum evaluates
    j_40 = sum_{k >= -1} c_k q^k with every c_k positive, so
    |j_40| <= e^(2 pi e^b) + sum_{k >= 0} c_k e^(-2 pi k y_min).  So
    M = h e^b 2l max|j_40|/y_min, which gives K.  K is formed in floats; its
    exponents are below 80 and each step is good to a few u, so its
    relative error is below 1e-12, and it is raised by a relative 1e-9.
    That raise also covers the series tail past order 40, below 1e-60
    per state.
    """
    import numpy as np

    n, h = RULE_POINTS, 0.5 * (ARC_HI - ARC_LO)
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(5):
        p, dp = _legendre(x)
        x = x - p / dp
    w = 2.0 / ((1.0 - x * x) * _legendre(x)[1] ** 2)
    z = np.exp(1j * (0.5 * (ARC_LO + ARC_HI) + h * x))
    series = j_coefficients(SERIES_ORDER)
    wj = h * w * j_eval(z, series)
    G = h * w * j_eval(1j * z.imag, series).real
    a, b = h * (RHO + 1.0 / RHO) / 2.0, h * (RHO - 1.0 / RHO) / 2.0
    y_min = math.exp(-b) * math.cos(a)
    j_max = math.exp(2.0 * math.pi * math.exp(b)) + math.fsum(
        c * math.exp(-2.0 * math.pi * k * y_min) for k, c in enumerate(series[1:]))
    K = (1.0 + 1e-9) * h * (64.0 / 15.0) * RHO ** (-2 * RULE_POINTS) / (RHO ** 2 - 1.0) \
        * 2.0 * math.exp(b) * j_max / y_min
    return wj * 1j * z, z.conj(), z.real[:, None], (z.imag ** 2)[:, None], G, K


class CycleValue(NamedTuple):
    """The cycle integral J of one node, a function of the node alone, and
    a proved bound on its quadrature error; log eps, log_epsilon(node.c),
    is taken where the value is made, and j follows from it."""

    node: TreeNode
    J: complex
    quad_error: float
    log_eps: float

    @property
    def j(self) -> complex:
        return self.J / (2.0 * self.log_eps)

    @property
    def J_over_q(self) -> complex:
        return self.J / self.node.q


def integrate_J(node: TreeNode, tol: float) -> CycleValue:
    """Cycle integral J and a proved bound on its quadrature error for
    one tree node:
    J = sum_m g_m sum_i [1/(z_m - w_i) - 1/(z_m - w_i')] by the 20-point
    rule over the node's l states w_i and conjugates w_i'.

    Raises QuadratureError, naming the node, when a state lies outside
    its box (cf's forward-word boxes, swapped and negated for the
    reversed words integrated here) or the bound exceeds ``tol``
    relative to |J|.

    The bound is K l + ku/(1 - 2ku) A, raised by 2^-50 for the six
    roundings that form it, with u = 2^-53 and k = l + n + 9 + RULE_ULPS
    (n = 20).  It covers |J - I| for the exact integral I over the
    states as computed; their own error is cf.STATE_ERROR.  K l bounds
    |I - Q| for the exact rule sum Q (_rule).

    For the rounding, write J = sum_m g_m [conj(z_m) (s_m - s'_m) - t_m]
    with r_mi = 1/((x_m - w_i)^2 + y_m^2), s_m = sum_i r_mi and
    t_m = sum_i r_mi w_i - sum_i r'_mi w'_i, primes for the conjugates.
    Each of its 4nl products, such as g_m conj(z_m) r_mi, is computed
    with at most l + n + 9 roundings of relative size u: 5 in r_mi (its
    difference counted twice); l - 1 in an l-term sum, or l in a sum of
    l products; at most 3 in the subtractions and conj(z_m) times a real;
    3 in g_m times a complex, whose relative error is below
    sqrt(2) 2u/(1 - 2u); and n - 1 in the n-term sum.  Any order of
    summation, and a fused multiply-add, stays within that count, and a
    complex sum or product has a complex relative error that counts as a
    real one does.  RULE_ULPS covers the rule's float arrays: x_m is
    within 4u of exact, which moves (x_m - w)^2 + y_m^2 by below
    4u 2|x_m - w|/((x_m - w)^2 + y_m^2) <= 4u/y_m < 4.7u of itself;
    y_m^2 and conj(z_m) are within 4u of themselves; and g_m is within
    10u G_m of exact, where G_m >= |exact g_m|.  (j vanishes at the
    arc's ends, so g_m has no relative bound.)  The tests check these
    against the rule to 40 digits.  So each product errs by at most
    gamma_k = ku/(1 - ku) (Higham, Accuracy and Stability of Numerical
    Algorithms, Lemma 3.1) times G_m times the modulus of its other
    exact factors.  Every w_i is positive and every w'_i negative (the
    boxes), so |J - Q| <= gamma_k A* with
    A* = sum_m G_m (s_m + s'_m + t_m) over exact terms.  The computed A,
    with at most k roundings per term, is at least (1 - gamma_k) A*, and
    gamma_k/(1 - gamma_k) = ku/(1 - 2ku).
    """
    import numpy as np

    if tol <= 0:
        raise ValueError("tol must be positive")
    # Reference orientation: cycle of the reversed word (see module doc).
    states = cycle_states(node.period[::-1])
    values, conj = states.values, states.conj_values
    at = f"at {node.p}/{node.q} (path {node.path!r})"
    # Written so that NaN fails too.
    if not (np.all((-CONJ_MAX <= values) & (values <= -CONJ_MIN))
            and np.all((-STATE_MAX <= conj) & (conj <= -STATE_MIN))):
        raise QuadratureError(f"cycle state outside the certified box {at}")
    g, zbar, x, y2, G, K = _rule()
    # 1/(z - w) = (conj(z) - w) / ((x - w)^2 + y^2) for real w and
    # z = x + iy, so the (quadrature node, state) matrices stay real.
    r = 1.0 / ((x - values) ** 2 + y2)
    rc = 1.0 / ((x - conj) ** 2 + y2)
    s, sc = r.sum(axis=1), rc.sum(axis=1)
    # einsum sums the products in its own loop; @ would call BLAS, no
    # faster at these sizes and dearer in peak memory.
    t = np.einsum("ij,j->i", r, values) - np.einsum("ij,j->i", rc, conj)
    J = complex((g * (zbar * (s - sc) - t)).sum())
    # The values are positive and the conjugates negative, so t is the
    # sum of the moduli of its two sums.
    u, l = 2.0 ** -53, len(values)
    k = l + RULE_POINTS + 9 + RULE_ULPS
    rounding = k * u / (1.0 - 2.0 * k * u) * float((G * (s + sc + t)).sum())
    err = (K * l + rounding) * (1.0 + 2.0 ** -50)
    if not err <= tol * abs(J):
        raise QuadratureError(f"quadrature bound {err:g} exceeds tol {tol:g} "
                              f"relative to |value| = {abs(J):g} {at}")
    return CycleValue(node, J, err, log_epsilon(node.c))


def compute_values(nodes: Iterable[TreeNode], tol: float) -> dict[str, CycleValue]:
    """integrate_J to ``tol`` for each node in turn, keyed by path in the
    order of ``nodes``."""
    return {n.path: integrate_J(n, tol) for n in nodes}


def cache_record(value: CycleValue) -> dict:
    """A value's record: its node (path, q, c), J, its bound, and the
    series order and method that computed it."""
    node = value.node
    return {
        "schema": CACHE_SCHEMA,
        "path": node.path,
        "q": node.q,
        "c": str(node.c),
        "J_re": value.J.real,
        "J_im": value.J.imag,
        "quad_err": value.quad_error,
        "series_order": SERIES_ORDER,
        "method": METHOD,
    }


def cached_value(rec: dict | None, node: TreeNode, tol: float) -> CycleValue | None:
    """The value a cache record holds for ``node``, or None unless it
    matches the node (q, c), the series order and the method, and its
    bound meets ``tol`` as integrate_J's must; a node left None is
    recomputed, so integrate_J alone refuses a value."""
    if rec is None or (rec["q"], rec["c"], rec["series_order"], rec["method"]) != (
            node.q, str(node.c), SERIES_ORDER, METHOD):
        return None
    J, err = complex(rec["J_re"], rec["J_im"]), rec["quad_err"]
    return CycleValue(node, J, err, log_epsilon(node.c)) if err <= tol * abs(J) else None


def _open_temp(path):
    """The file that the cache at ``path`` names, through any symlinks,
    and the temp file beside it: the file's path, the temp file's name
    and the temp file, open for writing.  An OSError names the cache's
    own path."""
    target = os.path.realpath(path)
    tmp = f"{target}.tmp"
    try:
        return target, tmp, open(tmp, "w")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


def check_cache_writable(path) -> None:
    """Raise the OSError that write_cache(records, path) would raise on
    opening its temp file, so a run can fail before it computes; leave
    no file behind."""
    _, tmp, fh = _open_temp(path)
    fh.close()
    os.unlink(tmp)


def write_cache(records: Iterable[dict], path) -> None:
    """Rewrite the JSON-lines result cache atomically, one line per
    record (as cache_record builds it, or as read_cache read it): the
    lines go to a temp file beside the file that ``path`` names, which
    then replaces that file, so an interrupted write leaves the previous
    cache intact and a symlinked cache is written through, not replaced.
    A temp file that cannot be opened is reported under the cache's own
    path."""
    target, tmp, fh = _open_temp(path)
    try:
        with fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def read_cache(path) -> list[dict]:
    """The records of a JSON-lines result cache.  A line that is not a
    JSON object of this schema, with every CACHE_FIELDS key of its type,
    every float finite (JSON admits NaN and Infinity) and quad_err above
    0 (integrate_J proves no bound below K l > 0), raises ValueError
    naming the file and line; other keys, such as the p, j and tol of
    older records, are kept unread."""
    records = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                rec = None
            if not (isinstance(rec, dict) and rec.get("schema") == CACHE_SCHEMA and all(
                    type(rec.get(key)) is kind and (kind is not float or math.isfinite(rec[key]))
                    for key, kind in CACHE_FIELDS.items()) and rec["quad_err"] > 0):
                raise ValueError(f"{path} line {number} is not a schema-{CACHE_SCHEMA} "
                                 "cache record")
            records.append(rec)
    return records


def cache_index(path) -> dict[str, dict]:
    """The records of the result cache at ``path`` keyed by node path;
    empty when there is no such file."""
    return {rec["path"]: rec for rec in read_cache(path)} if os.path.exists(path) else {}
