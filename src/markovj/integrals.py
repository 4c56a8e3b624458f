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

Only integrate_J needs numpy, and it imports it when called, so the
cache functions load without it.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from typing import Iterable

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

#: Points of the Gauss-Legendre rule that gives each value, and of the
#: coarser rule whose difference from it is the error estimate.
RULE_POINTS = (20, 16)
METHOD = f"gauss-legendre-{RULE_POINTS[0]}/{RULE_POINTS[1]}"

CACHE_SCHEMA = 2
#: The type of each field of a cache record, as read back from JSON.
CACHE_FIELDS = {
    "schema": int, "path": str, "level": int, "p": int, "q": int, "c": str,
    "J_re": float, "J_im": float, "j_re": float, "j_im": float,
    "log_eps": float, "quad_err": float,
    "tol": float, "series_order": int, "method": str,
}


class QuadratureError(ValueError):
    """Quadrature failed to reach the tolerance (the message names the
    estimate), or a cycle state lies outside its certified box."""


def log_epsilon(c: int) -> float:
    """log((3c + sqrt(9c^2 - 4)) / 2) for an arbitrary-precision c.

    Split as log(3c) + log((1 + sqrt(1 - 4/(9c^2)))/2) so that the big
    integer only enters through math.log, which handles it exactly.
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    if c >> 256:
        # 4/(9c^2) underflows; the correction is log(1) = 0.
        return math.log(3) + math.log(c)
    return math.log(3) + math.log(c) + math.log(
        (1.0 + math.sqrt(1.0 - 4.0 / (9.0 * float(c) * float(c)))) / 2.0
    )


@functools.cache
def _rule():
    """The fixed Gauss-Legendre rules on the arc, with the j-series of
    order SERIES_ORDER, built once per process: g_m = h w_m j(z_m) i z_m,
    conj(z_m), and the columns Re z_m and (Im z_m)^2 at the nodes
    z_m = e^(i theta_m), both rules' nodes with the value rule's first;
    then h w_m j(z_m).

    The kernel's poles are the cycle states, which stay in fixed boxes
    on the real axis at every depth (checked for every node), at
    distance >= sqrt(3)/2 from the arc.  So the integrand is analytic in
    one Bernstein ellipse around [pi/3, 2pi/3] for every node, and one
    rule converges geometrically (Trefethen, Approximation Theory and
    Approximation Practice, ch. 19).
    """
    import numpy as np

    h = 0.5 * (ARC_HI - ARC_LO)
    x, w = np.hstack([np.polynomial.legendre.leggauss(n) for n in RULE_POINTS])
    z = np.exp(1j * (0.5 * (ARC_LO + ARC_HI) + h * x))
    wj = h * w * j_eval(z, j_coefficients(SERIES_ORDER))
    return wj * 1j * z, z.conj(), z.real[:, None], (z.imag ** 2)[:, None], wj


@dataclass(frozen=True)
class CycleValue:
    """Computed cycle integral for one node."""

    node: TreeNode
    J: complex
    j: complex
    log_eps: float
    quad_error: float
    tol: float

    @property
    def J_over_q(self) -> complex:
        return self.J / self.node.q


def integrate_J(node: TreeNode, tol: float) -> CycleValue:
    """Cycle integral J, the value j = J/(2 log eps), and the quadrature
    error estimate for one tree node: J = sum_m g_m sum_i [1/(z_m - w_i)
    - 1/(z_m - w_i')] by the 20-point rule, and |J_20 - J_16| as its
    estimate.

    Raises QuadratureError, naming the node, when a state lies outside
    its box (cf's forward-word boxes, swapped and negated for the
    reversed words integrated here) or the estimate exceeds ``tol``
    relative to |J|.
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
    g, zbar, x, y2, _ = _rule()
    # 1/(z - w) = (conj(z) - w) / ((x - w)^2 + y^2) for real w and
    # z = x + iy, so the (quadrature node, state) matrices stay real.
    r = 1.0 / ((x - values) ** 2 + y2)
    rc = 1.0 / ((x - conj) ** 2 + y2)
    terms = g * (zbar * (r.sum(axis=1) - rc.sum(axis=1)) - (r @ values - rc @ conj))
    n = RULE_POINTS[0]
    J, check = complex(terms[:n].sum()), complex(terms[n:].sum())
    err = abs(J - check)
    if not err <= tol * abs(J):
        raise QuadratureError(f"quadrature estimate {err:g} exceeds tol {tol:g} "
                              f"relative to |value| = {abs(J):g} {at}")
    le = log_epsilon(node.c)
    return CycleValue(node=node, J=J, j=J / (2.0 * le), log_eps=le, quad_error=err, tol=tol)


def compute_values(nodes: Iterable[TreeNode], tol: float) -> dict[str, CycleValue]:
    """integrate_J to ``tol`` for each node in turn, keyed by path in the
    order of ``nodes``."""
    return {n.path: integrate_J(n, tol) for n in nodes}


def cache_record(value: CycleValue) -> dict:
    node = value.node
    return {
        "schema": CACHE_SCHEMA,
        "path": node.path,
        "level": node.level,
        "p": node.p,
        "q": node.q,
        "c": str(node.c),
        "J_re": value.J.real,
        "J_im": value.J.imag,
        "j_re": value.j.real,
        "j_im": value.j.imag,
        "log_eps": value.log_eps,
        "quad_err": value.quad_error,
        "tol": value.tol,
        "series_order": SERIES_ORDER,
        "method": METHOD,
    }


def cached_value(rec: dict | None, node: TreeNode, tol: float) -> CycleValue | None:
    """The value a cache record holds for ``node`` at ``tol``, or None
    unless the record matches the node (q, c) and the run (tol, series
    order, quadrature method)."""
    if rec is None or (rec["q"], rec["c"], rec["tol"], rec["series_order"], rec["method"]) != (
            node.q, str(node.c), tol, SERIES_ORDER, METHOD):
        return None
    return CycleValue(node=node, J=complex(rec["J_re"], rec["J_im"]),
                      j=complex(rec["j_re"], rec["j_im"]), log_eps=rec["log_eps"],
                      quad_error=rec["quad_err"], tol=rec["tol"])


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
    raises ValueError naming the file and line."""
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
                    type(rec.get(key)) is kind for key, kind in CACHE_FIELDS.items())):
                raise ValueError(f"{path} line {number} is not a schema-{CACHE_SCHEMA} "
                                 "cache record")
            records.append(rec)
    return records


def cache_index(path) -> dict[str, dict]:
    """The records of the result cache at ``path`` keyed by node path;
    empty when there is no such file."""
    return {rec["path"]: rec for rec in read_cache(path)} if os.path.exists(path) else {}
