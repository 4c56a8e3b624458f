"""Cycle integrals of j along Markov geodesics.

J(w) is the integral of j(e^(i theta)) i e^(i theta) times the
simple-form kernel over the arc theta in [pi/3, 2pi/3]; the value
j(w) = J(w) / (2 log eps) with eps the fundamental unit
(3c + sqrt(9c^2 - 4))/2.

Orientation convention: the published reference values correspond to
the cycle of the *reversed* period word (the oppositely oriented
geodesic); the forward word gives the complex conjugate.  We follow the
reference orientation, so imaginary parts come out <= 0.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .cf import CycleState, Period, cycle_states
from .jfunction import JSeries, DEFAULT_ORDER, j_coefficients, j_eval
from .tree import TreeNode

__all__ = [
    "CycleValue",
    "QuadratureError",
    "log_epsilon",
    "kernel_sum",
    "integrate_J",
    "average_integral",
    "compute_values",
    "ArcIntegrator",
    "cache_record",
    "write_cache",
    "read_cache",
]

ARC_LO = math.pi / 3.0
ARC_HI = 2.0 * math.pi / 3.0

CACHE_SCHEMA = 1


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the tolerance; carries the estimate."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


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


def kernel_sum(states: Sequence[CycleState], theta: float) -> complex:
    """sum_i 1/(e^(i theta) - w^(i)) - 1/(e^(i theta) - conj w^(i))."""
    z = complex(math.cos(theta), math.sin(theta))
    return sum(1.0 / (z - s.value) - 1.0 / (z - s.conj_value) for s in states)


_GL15 = np.polynomial.legendre.leggauss(15)


def _adaptive_arc(
    f: Callable[[np.ndarray], np.ndarray],
    tol: float,
    max_depth: int = 24,
) -> tuple[complex, float]:
    """Adaptive composite 15-point Gauss-Legendre on [pi/3, 2pi/3].

    A panel is accepted when its estimate agrees with the sum over its
    two halves; the integrand is analytic in a strip around the arc, so
    convergence is spectral and the disagreement is a conservative
    error estimate.
    """
    xg, wg = _GL15

    def panel(a: float, b: float) -> complex:
        h = 0.5 * (b - a)
        vals = f(0.5 * (a + b) + h * xg)
        return complex(h * np.dot(wg, vals))

    total = 0.0 + 0.0j
    err = 0.0
    width = ARC_HI - ARC_LO
    stack = [(ARC_LO, ARC_HI, panel(ARC_LO, ARC_HI), 0)]
    while stack:
        a, b, whole, depth = stack.pop()
        m = 0.5 * (a + b)
        left = panel(a, m)
        right = panel(m, b)
        diff = abs(whole - (left + right))
        if diff < tol * (b - a) / width or depth >= max_depth:
            total += left + right
            err += diff
            if depth >= max_depth and diff >= tol * (b - a) / width:
                raise QuadratureError(
                    f"panel [{a}, {b}] did not converge (estimate {diff:g})", err + diff
                )
        else:
            stack.append((a, m, left, depth + 1))
            stack.append((m, b, right, depth + 1))
    return total, err


class ArcIntegrator:
    """Shared quadrature state: one j-series, memoised arc values.

    Adaptive panels recur across nodes, so j(e^(i theta)) i e^(i theta)
    is cached per abscissa.  Instances are read-only after construction
    apart from the cache and may be shared by threads; for process
    pools each worker builds its own from the same series.
    """

    def __init__(self, series: JSeries | None = None):
        self.series = series if series is not None else j_coefficients(DEFAULT_ORDER)
        self._cache: dict[float, complex] = {}

    def weighted_j(self, thetas: np.ndarray) -> np.ndarray:
        out = np.empty(len(thetas), dtype=complex)
        missing: list[int] = []
        for i, t in enumerate(thetas):
            val = self._cache.get(float(t))
            if val is None:
                missing.append(i)
            else:
                out[i] = val
        if missing:
            ts = thetas[missing]
            z = np.exp(1j * ts)
            vals = j_eval(z, self.series) * 1j * z
            for i, t, v in zip(missing, ts, vals):
                self._cache[float(t)] = complex(v)
                out[i] = v
        return out

    def integrate_states(
        self, states: Sequence[CycleState], tol: float
    ) -> tuple[complex, float]:
        vals = np.array([s.value for s in states])
        conj = np.array([s.conj_value for s in states])

        def f(thetas: np.ndarray) -> np.ndarray:
            z = np.exp(1j * thetas)
            kern = (
                1.0 / (z[:, None] - vals) - 1.0 / (z[:, None] - conj)
            ).sum(axis=1)
            return self.weighted_j(thetas) * kern

        return _adaptive_arc(f, tol)


@dataclass(frozen=True)
class CycleValue:
    """Computed cycle integral for one node."""

    node: TreeNode
    J: complex
    j: complex
    log_eps: float
    quad_error: float

    @property
    def J_over_q(self) -> complex:
        return self.J / self.node.q


def integrate_J(
    node: TreeNode,
    tol: float = 1e-10,
    integrator: ArcIntegrator | None = None,
) -> CycleValue:
    """Cycle integral J, the value j = J/(2 log eps), and the quadrature
    error estimate for one tree node."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if integrator is None:
        integrator = ArcIntegrator()
    # Reference orientation: cycle of the reversed word (see module doc).
    states = cycle_states(node.period.reversed())
    J, err = integrator.integrate_states(states, tol)
    le = log_epsilon(node.c)
    return CycleValue(node=node, J=J, j=J / (2.0 * le), log_eps=le, quad_error=err)


def average_integral(
    tol: float = 1e-8, integrator: ArcIntegrator | None = None
) -> float:
    """The arc average integral of j(e^(i theta)) over [pi/3, 2pi/3]."""
    if integrator is None:
        integrator = ArcIntegrator()

    def f(thetas: np.ndarray) -> np.ndarray:
        z = np.exp(1j * thetas)
        return j_eval(z, integrator.series).astype(complex)

    val, _ = _adaptive_arc(f, tol)
    return val.real


def compute_values(
    nodes: Iterable[TreeNode],
    tol: float = 1e-10,
    series: JSeries | None = None,
    jobs: int = 1,
) -> dict[str, CycleValue]:
    """Evaluate integrate_J for many nodes, keyed by path.

    ``jobs > 1`` fans out over a process pool; results are merged by a
    single writer so ordering is deterministic.
    """
    nodes = list(nodes)
    if jobs > 1 and len(nodes) > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [nodes[i::jobs] for i in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = pool.map(_compute_chunk, [(chunk, tol, series) for chunk in chunks])
            merged: dict[str, CycleValue] = {}
            for part in parts:
                merged.update(part)
        return {n.path: merged[n.path] for n in nodes}
    integrator = ArcIntegrator(series)
    return {n.path: integrate_J(n, tol=tol, integrator=integrator) for n in nodes}


def _compute_chunk(args: tuple[list[TreeNode], float, JSeries | None]) -> dict[str, "CycleValue"]:
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
    }


def write_cache(values: Iterable[CycleValue], path) -> None:
    """Rewrite the JSON-lines result cache atomically: the records go to
    a temp file beside it, which then replaces it, so an interrupted
    write leaves the previous cache intact."""
    tmp = f"{os.fspath(path)}.tmp"
    fh = open(tmp, "w")
    try:
        with fh:
            for value in values:
                fh.write(json.dumps(cache_record(value), sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_cache(path) -> list[dict]:
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("schema") != CACHE_SCHEMA:
                raise ValueError(f"unsupported cache schema in {path}")
            records.append(rec)
    return records
