"""Empirical verification layer.

Checks, over the computed tree and cycle-integral values: the exact
denominator recursions, the local recursion error bounds, componentwise
interlacing, the g/g' kernel-difference ranges, the coincidence bound
for expansions sharing leading partial quotients, denominator and
Markov-number asymptotics, and the full constant chain behind the
asymptotic value bounds.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, asdict
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .cf import CONJ_MAX, CONJ_MIN, STATE_MAX, STATE_MIN, eval_periodic
from .integrals import CycleValue, log_epsilon
from .tree import (
    TIP_LEFT,
    TIP_RIGHT,
    MarkovTriple,
    TreeError,
    TreeNode,
    vieta_children,
)

__all__ = [
    "BoundChain",
    "CheckResult",
    "Report",
    "check_q_recursion",
    "check_interlacing",
    "check_J_recursion",
    "gg_prime_ranges",
    "coincidence_bound",
    "asymptotics_report",
    "denominator_sequence",
    "theorem2_constants",
    "RE_DELTA_COEF",
    "IM_DELTA_COEF",
    "CONTRACTION",
    "ZAGIER_C",
    "PUBLISHED_RE_ENVELOPE",
    "PUBLISHED_IM_ENVELOPE",
]

#: Constants of the local recursion error bound and the asymptotics.
RE_DELTA_COEF = 115181.57371
IM_DELTA_COEF = 100853.23866
CONTRACTION = 2.0 / (1.0 + math.sqrt(5.0))  # inverse square golden ratio
ZAGIER_C = 0.18071704711507
Q_GROWTH = math.pi * math.sqrt(2.0 / 3.0)

#: Computed J/q envelope over levels <= 12 (real and imaginary parts).
PUBLISHED_RE_ENVELOPE = (1251.36168, 1359.5674)
PUBLISHED_IM_ENVELOPE = (-0.4813, 0.0)

#: Ranges of g on the state-value box and of g' there, and on the
#: conjugate box.
G_RANGE_VALUE = (-1.26964, 0.354112)
GP_RANGE_VALUE = (-1.10636, -0.07222)
G_RANGE_CONJ = (-1.25946, 0.354112)
GP_RANGE_CONJ = (0.04705, 1.10636)

VALUE_BOX = (STATE_MIN, STATE_MAX)
CONJ_BOX = (CONJ_MIN, CONJ_MAX)

#: Thresholds of the checks.  Interlacing violations beyond INTERLACE_TOL
#: are counted, and those beyond INTERLACE_HARD_TOL fail; DELTA_SLACK is
#: absolute slack on each delta_w bound; g and g' are sampled at GG_GRID
#: points per axis, and their extrema must come within GG_ENDPOINT_RTOL
#: times the stated range of its endpoints; COINCIDENCE_SAMPLES pairs of
#: rotations are drawn with COINCIDENCE_SEED; the asymptotic trends are
#: averaged over TREND_WINDOWS windows.
INTERLACE_TOL = 1e-9
INTERLACE_HARD_TOL = 1e-6
DELTA_SLACK = 1e-6
GG_GRID = 200
GG_ENDPOINT_RTOL = 0.02
COINCIDENCE_SAMPLES = 400
COINCIDENCE_SEED = 0
TREND_WINDOWS = 4


def coincidence_envelope(r: int) -> float:
    """Bound on |u - v| for expansions sharing r leading quotients."""
    return 10.0 * CONTRACTION ** (2 * (r - 1))


# ---------------------------------------------------------------------------
# report plumbing

@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "info"
    measured: float | None = None
    bound: float | None = None
    margin: float | None = None
    details: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"


@dataclass
class Report:
    title: str
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, result: CheckResult) -> None:
        self.checks.append(result)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> str:
        return json.dumps(
            {"title": self.title, "passed": self.passed,
             "checks": [asdict(c) for c in self.checks]},
            indent=2,
        )

    def to_text(self) -> str:
        lines = [f"== {self.title} =="]
        for c in self.checks:
            parts = [f"[{c.status.upper():4s}] {c.name}"]
            if c.measured is not None:
                parts.append(f"measured={c.measured:.6g}")
            if c.bound is not None:
                parts.append(f"bound={c.bound:.6g}")
            if c.margin is not None:
                parts.append(f"margin={c.margin:.3g}")
            if c.details:
                parts.append(c.details)
            lines.append("  ".join(parts))
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _depth(nodes: Sequence[TreeNode]) -> int:
    """The deepest level in a node list, for report titles."""
    return max(node.level for node in nodes)


# ---------------------------------------------------------------------------
# exact q recursions

def _mat_mul(A, B):
    return (
        (A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
        (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]),
    )


def check_q_recursion(nodes: Sequence[TreeNode]) -> Report:
    """Exact integer checks of the denominator recursions at every node
    of level >= 2 in ``nodes``, which must hold each node's path
    prefixes (as a tree from ``build_tree`` does).

    Along a path, w_0 is the branch tip and w_1 .. w_n the nodes from
    the root down; the turn levels are the levels where the path
    changes direction, starting with level 1.  Any failure here is a
    tree-construction bug, so it raises TreeError.
    """
    report = Report(title=f"q recursions to depth {_depth(nodes)}")
    q_at = {node.path: node.q for node in nodes}
    worst = 0
    count = 0
    for node in nodes:
        n = node.level
        if n < 2:
            continue
        path = node.path
        base = TIP_RIGHT if path.startswith("R") else TIP_LEFT
        qs = [base.q] + [q_at[path[:i]] for i in range(n)]  # q of w_0 .. w_n
        turns = [1] + [i + 1 for i in range(1, len(path)) if path[i - 1] != path[i]]
        m = len(turns)
        r_m = turns[-1]
        if qs[n] != qs[n - 1] + qs[r_m - 1]:
            raise TreeError(f"mediant recursion fails at {path!r}")
        if m == 1 and qs[n] != qs[1] + (n - 1) * qs[0]:
            raise TreeError(f"pure-branch recursion fails at {path!r}")
        if m >= 2:
            if qs[n] != (n - r_m + 1) * qs[r_m - 1] + qs[turns[-2] - 1]:
                raise TreeError(f"two-term recursion fails at {path!r}")
            # Full matrix form down to the first two turn levels.
            M = ((n - r_m + 1, 1), (1, 0))
            lam = {m: M[0][0]}
            for k in range(m, 2, -1):
                M = _mat_mul(M, ((turns[k - 1] - turns[k - 2], 1), (1, 0)))
                lam[k - 1] = M[0][0]
            vec = (qs[turns[1] - 1], qs[turns[0] - 1])
            got = (M[0][0] * vec[0] + M[0][1] * vec[1],
                   M[1][0] * vec[0] + M[1][1] * vec[1])
            if got != (qs[n], qs[r_m - 1]):
                raise TreeError(f"matrix recursion fails at {path!r}")
            for j in range(2, m + 1):
                if qs[n] < lam[j] * qs[turns[j - 2]]:
                    raise TreeError(f"coefficient bound fails at {path!r}")
                worst = max(worst, lam[j])
        count += 1
    report.add(CheckResult(
        name="exact recursions",
        status="pass",
        measured=float(count),
        details=f"{count} nodes verified, max coefficient {worst}",
    ))
    return report


# ---------------------------------------------------------------------------
# interlacing

def _between(x: float, a: float, b: float) -> float:
    """Violation magnitude of a <= x <= b (endpoints sorted) beyond
    INTERLACE_TOL, 0 if inside."""
    lo, hi = min(a, b), max(a, b)
    return max(0.0, lo - x - INTERLACE_TOL, x - hi - INTERLACE_TOL)


def check_interlacing(values: dict[str, CycleValue], nodes: Sequence[TreeNode]) -> Report:
    """Is j at each node of level >= 2 between j at its two
    predecessors, the endpoints of its Farey interval, in its real and
    its imaginary part?

    INTERLACE_TOL is reporting slack; only violations beyond
    INTERLACE_HARD_TOL mark the report failed.
    """
    report = Report(title=f"interlacing to depth {_depth(nodes)} (componentwise)")
    worst = 0.0
    worst_node = ""
    violations = 0
    branch_start: dict[str, int] = {}
    for node in nodes:
        if node.level < 2:
            continue
        jw = values[node.path].j
        ju = values[node.left.path].j
        jv = values[node.right.path].j
        viol = max(_between(jw.real, ju.real, jv.real), _between(jw.imag, ju.imag, jv.imag))
        if viol > 0.0:
            violations += 1
            branch = node.path[:1] or "root"
            branch_start[branch] = max(branch_start.get(branch, 0), node.level + 1)
        if viol > worst:
            worst, worst_node = viol, node.path
    holds_from = max(branch_start.values(), default=2)
    report.add(CheckResult(
        name="componentwise betweenness",
        status="pass" if worst <= INTERLACE_HARD_TOL else "fail",
        measured=worst,
        bound=INTERLACE_HARD_TOL,
        details=(
            f"{violations} violation(s) beyond tol={INTERLACE_TOL:g}"
            + (f", worst at {worst_node!r}" if violations else "")
            + f"; holds from level {holds_from}"
        ),
    ))
    return report


# ---------------------------------------------------------------------------
# local recursion errors

def check_J_recursion(values: dict[str, CycleValue], nodes: Sequence[TreeNode]) -> Report:
    """delta_w = J(w) - J(u) - J(v), with u and v the endpoints of w's
    Farey interval, against its geometric bounds, up to DELTA_SLACK, at
    every node of level >= 2."""
    depth = _depth(nodes)
    report = Report(title=f"local recursion errors to depth {depth}")
    max_ratio = 0.0
    worst = ""
    violation = ""
    for node in nodes:
        if node.level < 2:
            continue
        delta = values[node.path].J - values[node.left.path].J - values[node.right.path].J
        decay = CONTRACTION ** (2 * (node.level - 1))
        bound_re = RE_DELTA_COEF * decay
        bound_im = IM_DELTA_COEF * decay
        if abs(delta.real) > bound_re + DELTA_SLACK or abs(delta.imag) > bound_im + DELTA_SLACK:
            violation = node.path
        ratio = max(abs(delta.real) / bound_re, abs(delta.imag) / bound_im)
        if ratio > max_ratio:
            max_ratio = ratio
            worst = node.path
    report.add(CheckResult(
        name="|delta| within geometric bound",
        status="fail" if violation else "pass",
        measured=max_ratio,
        bound=1.0,
        margin=1.0 - max_ratio,
        details=f"max |delta|/bound over levels 2..{depth} at {worst!r}"
        + (f", violation at {violation!r}" if violation else ""),
    ))
    return report


# ---------------------------------------------------------------------------
# g / g' ranges

def g_kernel(x, y, theta):
    """Real part kernel of the pole-pair difference, divided by x - y."""
    s, c = np.sin(theta), np.cos(theta)
    den = ((c - x) ** 2 + s**2) * ((c - y) ** 2 + s**2)
    return -s * (1.0 - x * y) / den


def gp_kernel(x, y, theta):
    """Imaginary part analogue of :func:`g_kernel`."""
    s, c = np.sin(theta), np.cos(theta)
    den = ((c - x) ** 2 + s**2) * ((c - y) ** 2 + s**2)
    return (-x - y + c * (1.0 + x * y)) / den


def _box_extrema(box: tuple[float, float], grid: int) -> list[tuple[float, float]]:
    """[(min, max) of g, (min, max) of g'] over box x box x theta, by the
    steps of g_kernel/gp_kernel in their order, so bit-identical to them,
    with the theta-free factors formed once and one den per theta."""
    xs = np.linspace(box[0], box[1], grid)
    xy, minus_sum = np.multiply.outer(xs, xs), np.subtract.outer(-xs, xs)
    one_minus, one_plus = 1.0 - xy, 1.0 + xy
    buf = np.empty((grid, grid))
    g, gp = [], []
    for theta in np.linspace(math.pi / 3.0, 2.0 * math.pi / 3.0, grid):
        s, c = np.sin(theta), np.cos(theta)
        a = (c - xs) ** 2 + s**2
        den = np.multiply.outer(a, a)
        np.divide(np.multiply(-s, one_minus, out=buf), den, out=buf)
        g.append((buf.min(), buf.max()))
        np.divide(np.add(minus_sum, np.multiply(c, one_plus, out=buf), out=buf), den, out=buf)
        gp.append((buf.min(), buf.max()))
    return [(float(min(lo for lo, _ in v)), float(max(hi for _, hi in v))) for v in (g, gp)]


def gg_prime_ranges() -> Report:
    """Sample g and g' over the value and conjugate boxes, GG_GRID points
    per axis.

    All samples must lie inside the stated intervals and the sampled
    extrema must approach the interval endpoints to GG_ENDPOINT_RTOL.
    """
    report = Report(title=f"g/g' ranges on a {GG_GRID}^3 grid")
    cases = [
        ("g on value box", G_RANGE_VALUE),
        ("g' on value box", GP_RANGE_VALUE),
        ("g on conjugate box", G_RANGE_CONJ),
        ("g' on conjugate box", GP_RANGE_CONJ),
    ]
    extrema = _box_extrema(VALUE_BOX, GG_GRID) + _box_extrema(CONJ_BOX, GG_GRID)
    # The stated interval endpoints are rounded to about six digits, so
    # true extrema can poke past them by a half-ulp of the printout.
    rounding = 5e-5
    for (name, rng), (vmin, vmax) in zip(cases, extrema):
        inside = rng[0] - rounding <= vmin and vmax <= rng[1] + rounding
        scale = rng[1] - rng[0]
        near = (vmin - rng[0] <= GG_ENDPOINT_RTOL * scale
                and rng[1] - vmax <= GG_ENDPOINT_RTOL * scale)
        report.add(CheckResult(
            name=name,
            status="pass" if inside and near else "fail",
            measured=vmin,
            bound=rng[0],
            details=f"sampled [{vmin:.6f}, {vmax:.6f}] in stated "
            f"[{rng[0]}, {rng[1]}], endpoints within {GG_ENDPOINT_RTOL:.0%}: {near}",
        ))
    return report


# ---------------------------------------------------------------------------
# coincidence bound

def _common_prefix(a: tuple[int, ...], b: tuple[int, ...], cap: int) -> int:
    ra = (a * (cap // len(a) + 1))[:cap]
    rb = (b * (cap // len(b) + 1))[:cap]
    r = 0
    while r < cap and ra[r] == rb[r]:
        r += 1
    return r


def coincidence_bound(nodes: Sequence[TreeNode]) -> Report:
    """|u - v| <= 10 phi^(-2(r-1)) for expansions sharing r quotients,
    on COINCIDENCE_SAMPLES pairs drawn from the rotations of the nodes'
    periods, plus the geometric tail-sum bound of the per-level
    envelope."""
    report = Report(title="coincidence bound")
    words: list[tuple[int, ...]] = []
    for node in nodes:
        digits = node.period.digits
        for i in range(len(digits)):
            words.append(digits[i:] + digits[:i])
    words = sorted(set(words))
    rng = random.Random(COINCIDENCE_SEED)
    cap = 60
    worst_ratio = 0.0
    checked = 0
    for _ in range(COINCIDENCE_SAMPLES):
        a, b = rng.sample(words, 2)
        r = _common_prefix(a, b, cap)
        if r == 0 or r >= cap:
            continue
        u, v = eval_periodic(a), eval_periodic(b)
        bound = coincidence_envelope(r)
        worst_ratio = max(worst_ratio, abs(u - v) / bound)
        checked += 1
    report.add(CheckResult(
        name="pairwise coincidence bound",
        status="pass" if worst_ratio <= 1.0 else "fail",
        measured=worst_ratio,
        bound=1.0,
        details=f"{checked} sampled pairs, max |u-v|/bound",
    ))
    tail_ok = True
    worst_tail = 0.0
    terms = [coincidence_envelope(k) for k in range(1, 2020)]  # k = 1 .. 2019
    for k0 in range(1, 21):
        partial = sum(terms[k0 - 1:k0 + 1999])  # k = k0 .. k0 + 1999
        bound = 10.0 * CONTRACTION ** (2 * k0 - 3)
        worst_tail = max(worst_tail, partial / bound)
        if partial > bound * (1.0 + 1e-12):
            tail_ok = False
    report.add(CheckResult(
        name="envelope tail sum",
        status="pass" if tail_ok else "fail",
        measured=worst_tail,
        bound=1.0,
        details="sum_{k>=k0} b(k) vs 10 phi^(-(2k0-3)) for k0=1..20",
    ))
    return report


# ---------------------------------------------------------------------------
# asymptotics

def denominator_sequence(qmax: int) -> list[tuple[int, int]]:
    """All Farey denominators q <= qmax with their Markov numbers,
    sorted as the published sequence (by q, ties by Markov number).

    Enumerates the infinite tree with pruning: q strictly increases
    down every branch, so the search below qmax is finite.  The walk
    keeps its own stack, as a branch can be qmax levels deep.
    """
    out = [(1, 1), (2, 2)]
    stack = [(MarkovTriple(2, 1, 5), 3, 1, 2)]
    while stack:
        triple, q, ql, qr = stack.pop()
        if q > qmax:
            continue
        out.append((q, triple.c))
        tl, tr = vieta_children(triple)
        stack.append((tl, q + ql, ql, q))
        stack.append((tr, q + qr, q, qr))
    return sorted(out)


def _window_means(values: Sequence[float]) -> list[float]:
    """Mean over geometrically growing index windows.

    The deviations decay like n^(-1/2), so equal-width windows average
    over incomparable scales and wobble; windows with edges at
    n^(k/TREND_WINDOWS) shrink by a fixed factor per window instead.
    """
    n, windows = len(values), TREND_WINDOWS
    if n < windows:
        return [float(np.mean(values))]
    edges = sorted({0, n} | {int(round(n ** (k / windows))) for k in range(windows + 1)})
    return [float(np.mean(values[a:b])) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def asymptotics_report(depth: int = 40) -> Report:
    """Convergence trends of the denominator and Markov-number growth.

    Trends are reported, not thresholded: the mean deviation from each
    limit over TREND_WINDOWS windows must be non-increasing across them.
    """
    report = Report(title=f"asymptotics (denominators up to {depth + 2})")
    seq = denominator_sequence(depth + 2)
    ns = np.arange(1, len(seq) + 1, dtype=float)
    qs = np.array([q for q, _ in seq], dtype=float)
    logc = np.array([math.log(c) for _, c in seq])
    head = [int(q) for q in qs[:6]]
    report.add(CheckResult(
        name="ordering head",
        status="pass" if head == [1, 2, 3, 4, 5, 5][:len(head)] else "fail",
        details=f"first denominators {head}",
    ))
    trends = [
        ("q_n / sqrt(n) -> pi sqrt(2/3)", qs / np.sqrt(ns), Q_GROWTH),
        ("log(c_n) sqrt(C/n) -> 1", logc * math.sqrt(ZAGIER_C) / np.sqrt(ns), 1.0),
        (
            "log(c_n)/q_n -> sqrt(3)/(pi sqrt(2C))",
            logc[2:] / qs[2:],
            math.sqrt(3.0) / (math.pi * math.sqrt(2.0 * ZAGIER_C)),
        ),
    ]
    for name, ratios, target in trends:
        devs = np.abs(np.asarray(ratios) - target)
        means = _window_means(devs)
        monotone = all(b <= a * (1.0 + 1e-9) for a, b in zip(means, means[1:]))
        report.add(CheckResult(
            name=name,
            status="pass" if monotone else "fail",
            measured=means[-1],
            details="window deviations " + ", ".join(f"{m:.4f}" for m in means),
        ))
    # log(eps_n) against its linear-in-q_n prediction.
    slope = math.sqrt(3.0) / (math.sqrt(2.0 * ZAGIER_C) * math.pi)
    eps_dev = []
    for q, c in seq[2:]:
        log_eps = log_epsilon(c)
        eps_dev.append(abs(log_eps - (slope * q + math.log(1.5))) / log_eps)
    means = _window_means(eps_dev)
    report.add(CheckResult(
        name="log eps ~ slope q + log(3/2)",
        status="info",
        measured=means[-1],
        details="window deviations " + ", ".join(f"{m:.4f}" for m in means),
    ))
    return report


# ---------------------------------------------------------------------------
# the constant chain

@dataclass(frozen=True)
class BoundChain:
    """Every constant of the asymptotic value-bound chain."""

    k0: int
    re_envelope: tuple[float, float]
    im_envelope: tuple[float, float]
    # Per-term delta/q bounds (turn block, middle blocks, top level,
    # pure branch) for the real part; imaginary parts scale by the
    # coefficient ratio.
    re_terms: tuple[float, float, float, float]
    im_terms: tuple[float, float, float, float]
    re_delta_bound: float
    im_delta_bound: float
    J_sqrtn_re: tuple[float, float]
    J_sqrtn_im: tuple[float, float]
    j_re: tuple[float, float]
    j_im: tuple[float, float]

    def summary(self) -> str:
        return "\n".join([
            f"k0 = {self.k0}",
            f"|Re delta|/q <= {self.re_delta_bound:.5f}",
            f"|Im delta|/q <= {self.im_delta_bound:.5f}",
            f"Re(J)/sqrt(n) in [{self.J_sqrtn_re[0]:.5f}, {self.J_sqrtn_re[1]:.5f}]",
            f"Im(J)/sqrt(n) in [{self.J_sqrtn_im[0]:.5f}, {self.J_sqrtn_im[1]:.5f}]",
            f"Re(j) in [{self.j_re[0]:.5f}, {self.j_re[1]:.5f}]",
            f"Im(j) in [{self.j_im[0]:.5f}, {self.j_im[1]:.5f}]",
        ])


def _delta_terms(coef: float, k0: int) -> tuple[float, float, float, float]:
    turn = coef / 4.0 * CONTRACTION ** (2 * k0 - 3)
    middle = coef / k0 * CONTRACTION ** (2 * k0 - 1)
    top = coef / (k0 + 1) * CONTRACTION ** (2 * k0)
    pure = coef / (k0 + 3) * CONTRACTION ** (2 * k0 - 5)
    return (turn, middle, top, pure)


def theorem2_constants(
    k0: int = 12,
    re_envelope: tuple[float, float] | None = None,
    im_envelope: tuple[float, float] | None = None,
) -> BoundChain:
    """Evaluate the aggregate-error and value-bound chain at level k0.

    Envelopes default to the computed J/q ranges over levels <= 12;
    pass freshly computed ones to rederive the chain from scratch.
    """
    if k0 < 2:
        raise ValueError("k0 must be >= 2")
    re_env = re_envelope if re_envelope is not None else PUBLISHED_RE_ENVELOPE
    im_env = im_envelope if im_envelope is not None else PUBLISHED_IM_ENVELOPE
    re_terms = _delta_terms(RE_DELTA_COEF, k0)
    im_terms = _delta_terms(IM_DELTA_COEF, k0)
    re_delta = max(re_terms[0] + re_terms[1] + re_terms[2], re_terms[3])
    im_delta = max(im_terms[0] + im_terms[1] + im_terms[2], im_terms[3])
    J_re = ((re_env[0] - re_delta) * Q_GROWTH, (re_env[1] + re_delta) * Q_GROWTH)
    J_im = ((im_env[0] - im_delta) * Q_GROWTH, (im_env[1] + im_delta) * Q_GROWTH)
    to_j = math.sqrt(ZAGIER_C) / 2.0
    return BoundChain(
        k0=k0,
        re_envelope=re_env,
        im_envelope=im_env,
        re_terms=re_terms,
        im_terms=im_terms,
        re_delta_bound=re_delta,
        im_delta_bound=im_delta,
        J_sqrtn_re=J_re,
        J_sqrtn_im=J_im,
        j_re=(J_re[0] * to_j, J_re[1] * to_j),
        j_im=(J_im[0] * to_j, J_im[1] * to_j),
    )


def envelope_from_values(values: Iterable[CycleValue]) -> tuple[tuple[float, float], tuple[float, float]]:
    """min/max of Re(J/q) and Im(J/q) over computed values."""
    res = [v.J_over_q.real for v in values]
    ims = [v.J_over_q.imag for v in values]
    return (min(res), max(res)), (min(ims), max(ims))
