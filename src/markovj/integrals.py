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
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .cf import CONJ_MAX, CONJ_MIN, STATE_MAX, STATE_MIN, CycleStates, cycle_states
from .jfunction import JSeries, j_eval
from .tree import TreeNode

__all__ = [
    "CycleValue",
    "QuadratureError",
    "log_epsilon",
    "integrate_J",
    "average_integral",
    "compute_values",
    "ArcIntegrator",
    "cache_record",
    "check_cache_writable",
    "write_cache",
    "read_cache",
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


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the tolerance; carries the estimate."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate

    def __reduce__(self):
        # Rebuilt from both arguments, so it crosses a process pool.
        return type(self), (str(self), self.estimate)


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


def _two_rules(terms: np.ndarray, tol: float) -> tuple[complex, float]:
    """Sum ``terms`` per rule (the first RULE_POINTS[0] entries, then the
    rest): the value and |value - check|.  Raises QuadratureError unless
    the difference is within ``tol`` relative to the value."""
    n = RULE_POINTS[0]
    value, check = complex(terms[:n].sum()), complex(terms[n:].sum())
    err = abs(value - check)
    if not err <= tol * abs(value):
        raise QuadratureError(f"quadrature estimate {err:g} exceeds tol {tol:g} "
                              f"relative to |value| = {abs(value):g}", err)
    return value, err


class ArcIntegrator:
    """The fixed Gauss-Legendre rules on the arc for one j-series.

    The kernel's poles are the cycle states, which stay in fixed boxes
    on the real axis at every depth (checked on every call), at distance
    >= sqrt(3)/2 from the arc.  So the integrand is analytic in one
    Bernstein ellipse around [pi/3, 2pi/3] for every node, and one rule
    converges geometrically (Trefethen, Approximation Theory and
    Approximation Practice, ch. 19).  The weights g_m = h w_m j(z_m) i z_m
    at the nodes z_m = e^(i theta_m) are computed once.  Instances are
    read-only; process pools build one per worker from the same series.
    """

    def __init__(self, series: JSeries):
        self.series = series
        h = 0.5 * (ARC_HI - ARC_LO)
        # Both rules' nodes and weights, the value rule's first.
        x, w = np.hstack([np.polynomial.legendre.leggauss(n) for n in RULE_POINTS])
        z = np.exp(1j * (0.5 * (ARC_LO + ARC_HI) + h * x))
        self._wj = h * w * j_eval(z, self.series)
        self._g = self._wj * 1j * z
        self._zbar = z.conj()
        self._x = z.real[:, None]
        self._y2 = (z.imag ** 2)[:, None]

    def integrate_states(self, states: CycleStates, tol: float) -> tuple[complex, float]:
        """J = sum_m g_m sum_i [1/(z_m - w_i) - 1/(z_m - w_i')] by the
        20-point rule, and |J_20 - J_16| as its error estimate.

        Raises QuadratureError when a state lies outside its box (cf's
        forward-word boxes, swapped and negated for the reversed words
        integrated here) or the estimate exceeds ``tol`` relative to |J|.
        """
        values, conj = states.values, states.conj_values
        # Written so that NaN fails too.
        if not (np.all((-CONJ_MAX <= values) & (values <= -CONJ_MIN))
                and np.all((-STATE_MAX <= conj) & (conj <= -STATE_MIN))):
            raise QuadratureError("cycle state outside the certified box", math.inf)
        # 1/(z - w) = (conj(z) - w) / ((x - w)^2 + y^2) for real w and
        # z = x + iy, so the (quadrature node, state) matrices stay real.
        r = 1.0 / ((self._x - values) ** 2 + self._y2)
        rc = 1.0 / ((self._x - conj) ** 2 + self._y2)
        kernel = self._zbar * (r.sum(axis=1) - rc.sum(axis=1)) - (r @ values - rc @ conj)
        return _two_rules(self._g * kernel, tol)


@dataclass(frozen=True)
class CycleValue:
    """Computed cycle integral for one node."""

    node: TreeNode
    J: complex
    j: complex
    log_eps: float
    quad_error: float
    tol: float
    series_order: int

    @property
    def J_over_q(self) -> complex:
        return self.J / self.node.q


def integrate_J(node: TreeNode, tol: float, integrator: ArcIntegrator) -> CycleValue:
    """Cycle integral J, the value j = J/(2 log eps), and the quadrature
    error estimate for one tree node, by ``integrator``'s rules to
    ``tol`` relative to |J|."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    # Reference orientation: cycle of the reversed word (see module doc).
    states = cycle_states(node.period.reversed())
    try:
        J, err = integrator.integrate_states(states, tol)
    except QuadratureError as exc:
        raise QuadratureError(f"{exc} at {node.farey} (path {node.path!r})",
                              exc.estimate) from exc
    le = log_epsilon(node.c)
    return CycleValue(node=node, J=J, j=J / (2.0 * le), log_eps=le, quad_error=err,
                      tol=tol, series_order=integrator.series.order)


def average_integral(tol: float, integrator: ArcIntegrator) -> float:
    """The arc average integral of j(e^(i theta)) over [pi/3, 2pi/3], by
    ``integrator``'s rules; ``tol`` bounds their difference relative to
    the value."""
    value, _ = _two_rules(integrator._wj, tol)
    return value.real


def compute_values(nodes: Iterable[TreeNode], tol: float, series: JSeries,
                   jobs: int) -> dict[str, CycleValue]:
    """Evaluate integrate_J to ``tol`` with ``series`` for many nodes,
    keyed by path.

    ``jobs > 1`` fans out over a process pool of at most ``jobs``
    workers, one nonempty chunk each; results are merged by a single
    writer so ordering is deterministic.
    """
    nodes = list(nodes)
    if jobs > 1 and len(nodes) > 1:
        from concurrent.futures import ProcessPoolExecutor

        jobs = min(jobs, len(nodes))
        chunks = [nodes[i::jobs] for i in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = pool.map(_compute_chunk, [(chunk, tol, series) for chunk in chunks])
            merged: dict[str, CycleValue] = {}
            for part in parts:
                merged.update(part)
        return {n.path: merged[n.path] for n in nodes}
    return _compute_chunk((nodes, tol, series))


def _compute_chunk(args: tuple[list[TreeNode], float, JSeries]) -> dict[str, "CycleValue"]:
    chunk, tol, series = args
    integrator = ArcIntegrator(series)
    return {n.path: integrate_J(n, tol=tol, integrator=integrator) for n in chunk}


def cache_record(value: CycleValue) -> dict:
    node = value.node
    return {
        "schema": CACHE_SCHEMA,
        "path": node.path,
        "level": node.level,
        "p": node.farey.p,
        "q": node.farey.q,
        "c": str(node.c),
        "J_re": value.J.real,
        "J_im": value.J.imag,
        "j_re": value.j.real,
        "j_im": value.j.imag,
        "log_eps": value.log_eps,
        "quad_err": value.quad_error,
        "tol": value.tol,
        "series_order": value.series_order,
        "method": METHOD,
    }


def _open_temp(path):
    """The temp file beside the cache at ``path``: its name and the file,
    open for writing.  An OSError names the cache's own path."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        return tmp, open(tmp, "w")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


def check_cache_writable(path) -> None:
    """Raise the OSError that write_cache(values, path) would raise on
    opening its temp file, so a run can fail before it computes; leave
    no file behind."""
    tmp, fh = _open_temp(path)
    fh.close()
    os.unlink(tmp)


def write_cache(values: Iterable[CycleValue], path) -> None:
    """Rewrite the JSON-lines result cache atomically, one line per value:
    the records go to a temp file beside it, which then replaces it, so
    an interrupted write leaves the previous cache intact.  A temp file
    that cannot be opened is reported under the cache's own path."""
    tmp, fh = _open_temp(path)
    try:
        with fh:
            for value in values:
                fh.write(json.dumps(cache_record(value), sort_keys=True) + "\n")
        os.replace(tmp, path)
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
