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
import sys
from typing import Iterable, NamedTuple, Sequence

from .cf import CONJ_MAX, CONJ_MIN, STATE_MAX, STATE_MIN, _rotation_values
from .integrals import CycleValue, _log_epsilon
from .tree import TIP_LEFT, TIP_RIGHT, TreeError, TreeNode, denominator_sequence

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
    "theorem2_constants",
    "RE_DELTA_COEF",
    "IM_DELTA_COEF",
    "CONTRACTION",
    "CHAIN_K0",
    "ZAGIER_C",
    "PUBLISHED_RE_ENVELOPE",
    "PUBLISHED_IM_ENVELOPE",
]

#: Constants of the local recursion error bound and the asymptotics.
#: RE_DELTA_COEF and IM_DELTA_COEF are the paper's published constants, not
#: derived here from the proved g/g' ranges and the coincidence envelope.
RE_DELTA_COEF = 115181.57371
IM_DELTA_COEF = 100853.23866
CONTRACTION = 2.0 / (1.0 + math.sqrt(5.0))  # 1/phi, the inverse golden ratio
ZAGIER_C = 0.18071704711507
Q_GROWTH = math.pi * math.sqrt(2.0 / 3.0)
#: The limit of log(eps_n)/q_n, and of log(c_n)/q_n: sqrt(3)/(pi sqrt(2C)).
LOG_EPS_SLOPE = math.sqrt(3.0) / (math.pi * math.sqrt(2.0 * ZAGIER_C))

#: Computed J/q envelope over levels <= 12 (real and imaginary parts).
PUBLISHED_RE_ENVELOPE = (1251.36168, 1359.5674)
PUBLISHED_IM_ENVELOPE = (-0.4813, 0.0)
#: The level at which `bounds` and `verify` evaluate the bound chain.
CHAIN_K0 = 12

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
#: absolute slack on each delta_w bound; the attained extrema of g and
#: g' must come within GG_ENDPOINT_RTOL times the stated range of its
#: endpoints; the asymptotic trends are averaged over TREND_WINDOWS windows.
INTERLACE_TOL = 1e-9
INTERLACE_HARD_TOL = 1e-6
DELTA_SLACK = 1e-6
GG_ENDPOINT_RTOL = 0.02
TREND_WINDOWS = 4
#: The deepest asymptotics report.  Its denominators up to depth + 2 are
#: enumerated one by one: a median 0.9-1.0 s (0.86-1.46 s) and 88 MB at
#: depth 1200, against 0.4-0.7 s and 43 MB at 800 and 1.8-2.3 s and 162 MB
#: at 1600 (whole process, 2 cores, Python 3.11).
MAX_ASYMPTOTICS_DEPTH = 1200


def coincidence_envelope(r: int) -> float:
    """Bound on |u - v| for expansions sharing r leading quotients.

    Its tail is a closed form: sum_{k >= k0} 10 phi^(-2(k-1)) =
    10 phi^(-2(k0-1)) / (1 - phi^(-2)) = 10 phi^(-(2k0-3)), as
    phi^2 - 1 = phi makes 1 - phi^(-2) = phi^(-1)."""
    return 10.0 * CONTRACTION ** (2 * (r - 1))


# ---------------------------------------------------------------------------
# report plumbing

class CheckResult(NamedTuple):
    name: str
    status: str  # "pass" | "fail" | "info"
    measured: float | None = None
    bound: float | None = None
    margin: float | None = None
    details: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"


class Report:
    def __init__(self, title: str) -> None:
        self.title, self.checks = title, []

    def add(self, result: CheckResult) -> None:
        self.checks.append(result)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        return {"title": self.title, "passed": self.passed,
                "checks": [c._asdict() for c in self.checks]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

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
    return max((node.level for node in nodes), default=0)


#: The details of a check over the nodes of level >= 2 when there are none.
NONE_CHECKED = "no node of level >= 2 checked"


# ---------------------------------------------------------------------------
# exact q recursions

def _mat_mul(A, B):
    """The product AB of two 2x2 integer matrices given as row pairs."""
    return (
        (A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
        (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]),
    )


def check_q_recursion(nodes: Sequence[TreeNode]) -> Report:
    """Exact integer checks of the denominator recursions at every node
    of level >= 2 in ``nodes``.

    Along a path, w_0 is the branch tip and w_1 .. w_n the nodes from
    the root down; the turn levels are the levels where the path
    changes direction, starting with level 1.  Each w_i is read through
    the parent links: the parent is a node's right neighbour after an L
    step and its left after an R step.  Any failure here is a
    tree-construction bug, so it raises TreeError.
    """
    report = Report(title=f"q recursions to depth {_depth(nodes)}")
    worst, where = 0, None
    count = 0
    for node in nodes:
        n = node.level
        if n < 2:
            continue
        path = node.path
        base = TIP_RIGHT if path.startswith("R") else TIP_LEFT
        chain = [node]  # w_n up to w_1
        for step in reversed(path):
            chain.append(chain[-1].right if step == "L" else chain[-1].left)
        qs = [base.q] + [w.q for w in reversed(chain)]  # q of w_0 .. w_n
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
                if lam[j] > worst:
                    worst, where = lam[j], path
        count += 1
    if not count:
        details = NONE_CHECKED
    elif where is None:
        details = f"{count} nodes verified, no path changes direction"
    else:
        details = f"{count} nodes verified, max coefficient {worst} at {where!r}"
    report.add(CheckResult(name="exact recursions", status="pass",
                           measured=float(count), details=details))
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
    holds_from = 2
    for node in nodes:
        if node.level < 2:
            continue
        jw = values[node.path].j
        ju = values[node.left.path].j
        jv = values[node.right.path].j
        viol = max(_between(jw.real, ju.real, jv.real), _between(jw.imag, ju.imag, jv.imag))
        if viol > 0.0:
            violations += 1
            holds_from = max(holds_from, node.level + 1)
        if viol > worst:
            worst, worst_node = viol, node.path
    report.add(CheckResult(
        name="componentwise betweenness",
        status="pass" if worst <= INTERLACE_HARD_TOL else "fail",
        measured=worst,
        bound=INTERLACE_HARD_TOL,
        details=(
            f"{violations} violation(s) beyond tol={INTERLACE_TOL:g}"
            + (f", worst at {worst_node!r}" if violations else "")
            + f"; holds from level {holds_from}"
            if _depth(nodes) >= 2 else NONE_CHECKED
        ),
    ))
    return report


# ---------------------------------------------------------------------------
# local recursion errors

def check_J_recursion(values: dict[str, CycleValue], nodes: Sequence[TreeNode]) -> Report:
    """delta_w = J(w) - J(u) - J(v), with u and v the endpoints of w's
    Farey interval, against its geometric bounds plus DELTA_SLACK, at
    every node of level >= 2: measured is the largest such ratio, so the
    check passes exactly when it is at most 1."""
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
        ratio = max(abs(delta.real) / (RE_DELTA_COEF * decay + DELTA_SLACK),
                    abs(delta.imag) / (IM_DELTA_COEF * decay + DELTA_SLACK))
        if ratio > 1.0:
            violation = node.path
        if ratio > max_ratio:
            max_ratio = ratio
            worst = node.path
    report.add(CheckResult(
        name="|delta| within geometric bound",
        status="fail" if violation else "pass",
        measured=max_ratio,
        bound=1.0,
        margin=1.0 - max_ratio,
        details=(
            f"max |delta|/bound over levels 2..{depth} at {worst!r}"
            + (f", violation at {violation!r}" if violation else "")
            if depth >= 2 else NONE_CHECKED
        ),
    ))
    return report


# ---------------------------------------------------------------------------
# g / g' ranges

#: The pad of each proved g/g' bound (see gg_prime_ranges).
GG_MARGIN = 2.0**-40


def _diagonal(s: float, c: float) -> tuple[float, float]:
    """g and g' at x = y = s and theta = arccos(c)."""
    d = 1.0 + s * s - 2.0 * s * c
    g = (s * s - 1.0) * math.sqrt(1.0 - c * c) / (d * d)
    return g, (c * (1.0 + s * s) - 2.0 * s) / (d * d)


def _cubic_roots(a: float, b: float, d: float) -> list[float]:
    """The roots of s^3 + a s^2 + b s + d, one with three real roots, in
    Viete's trigonometric form."""
    p, q = b - a * a / 3.0, 2.0 * a**3 / 27.0 - a * b / 3.0 + d
    r = 2.0 * math.sqrt(-p / 3.0)
    phi = math.acos(3.0 * q / (p * r))
    return [r * math.cos((phi - 2.0 * math.pi * k) / 3.0) - a / 3.0 for k in range(3)]


def _extrema(box: tuple[float, float]) -> list[tuple[tuple, tuple]]:
    """The least and the greatest of g, then of g', at the candidate
    points of ``box`` (see gg_prime_ranges), each as (value, (s, s,
    theta)).  A box the proof does not cover raises ValueError."""
    sign = -1.0 if box[0] < 0.0 else 1.0  # the mirror
    lo, hi = sorted((sign * box[0], sign * box[1]))
    if not math.sqrt(math.sqrt(17.0) - 4.0) < lo <= hi < (7.0 + math.sqrt(45.0)) / 2.0:
        raise ValueError(f"the g/g' range proof does not cover the box [{box[0]}, {box[1]}]")
    points = [(s, c) for s in (lo, hi) for c in (-0.5, 0.5)]
    for s in (lo, hi):
        c = (6.0 * s * s - s**4 - 1.0) / (2.0 * s * (1.0 + s * s))
        if -0.5 < c < 0.5:
            points.append((s, c))
    for c, cubics in ((0.5, ((0.0, -3.0, 1.0), (-6.0, 3.0, 1.0))),
                      (-0.5, ((0.0, -3.0, -1.0), (6.0, 3.0, -1.0)))):
        points += [(s, c) for cubic in cubics for s in _cubic_roots(*cubic) if lo < s < hi]
    values = [(_diagonal(sign * s, sign * c), (sign * s, sign * s, math.acos(sign * c)))
              for s, c in points]
    return [(min((v[part], at) for v, at in values), max((v[part], at) for v, at in values))
            for part in (0, 1)]


def gg_prime_ranges() -> Report:
    """Prove the ranges of g and g' over the value and conjugate boxes,
    x and y in the box and theta in [pi/3, 2 pi/3].

    The proved extrema must lie inside the stated intervals and the
    attained ones must approach the interval endpoints to
    GG_ENDPOINT_RTOL.  Each extremum is the extreme of g or g' over a few
    candidate points, and its proved bound that value widened by GG_MARGIN:

    - Diagonal.  With z = e^(i theta), F = g' + i g = z / ((z - x)(z - y))
      is the divided difference of h(s) = z / (z - s), so the mean of
      h'(s) = F(s, s, theta) over s between x and y (Hermite-Genocchi;
      de Boor, *Surveys in Approximation Theory* 1, 2005): every extremum
      lies on x = y = s.  |F| <= 1/sin(theta)^2 <= 4/3.
    - Closed form.  There, with c = cos(theta) in [-1/2, 1/2],
      sigma = sin(theta) and D = |z - s|^2 = 1 + s^2 - 2sc,
      g' = (c (1 + s^2) - 2s) / D^2 and g = (s^2 - 1) sigma / D^2.
    - Mirror.  F(-s, -s, pi - theta) = -conj F(s, s, theta), so
      g(-s, -c) = g(s, c) and g'(-s, -c) = -g'(s, c): the conjugate
      box's candidates are those of [2/5, 21/8], mirrored.
    - No interior critical point for sqrt(sqrt(17) - 4) < s <
      (7 + sqrt(45))/2, about (0.3509, 6.854); a box that, mirrored,
      leaves that range is refused.  dg/dc = -(s^2 - 1)(2sc^2 +
      (1 + s^2)c - 4s) / (sigma D^3), and the quadratic is convex in c,
      (s^2 - 7s + 1)/2 < 0 at c = 1/2 and -(s^2 + 7s + 1)/2 < 0 at
      c = -1/2; at s = 1, dg/ds = 2 sigma / D^2.  dg'/dc = (s^4 - 6s^2 +
      1 + 2cs(1 + s^2)) / D^3 vanishes only at c*(s) = (6s^2 - s^4 - 1) /
      (2s(1 + s^2)), along which g' = -(1 + s^2)^2 / (8s(1 - s^2)^2),
      whose s-derivative is a multiple of (s^2 - 1)(s^4 + 8s^2 - 1): no
      zero but s = 1, where c*(1) = 1 is off the arc.
    - Edges.  On c = 1/2, g and g' have critical points at the roots of
      s^3 - 3s + 1 (2 cos(2 pi/9) = 1.532089) and s^3 - 6s^2 + 3s + 1
      (2 - 2 sqrt(3) sin(pi/9) = 0.815207); on c = -1/2, of s^3 - 3s - 1
      (2 cos(pi/9)) and s^3 + 6s^2 + 3s - 1 (none in either box).  On
      s = lo and s = hi only g' has one, c*(s), where it lies in
      (-1/2, 1/2); g is 0 all along s = 1, as at its corners.  With the
      four corners, that is nine candidates on each state box.
    - Rounding.  A candidate value errs by under 2^-45, as |F| <= 4/3 and
      D < 11.  A float root or c*(s), off by delta < 2^-48 in s or theta,
      moves a critical value by at most sup|f''| delta^2 / 2, as
      |d^2 F/ds^2| <= 32/3 and |d^2 F/dtheta^2| <= 27: GG_MARGIN covers both.
    """
    report = Report(title="g/g' ranges on the state boxes")
    # The stated interval endpoints are rounded to about six digits, so
    # true extrema can poke past them by a half-ulp of the printout.
    rounding = 5e-5
    for box, where, ranges in ((VALUE_BOX, "value box", (G_RANGE_VALUE, GP_RANGE_VALUE)),
                               (CONJ_BOX, "conjugate box", (G_RANGE_CONJ, GP_RANGE_CONJ))):
        for part, rng, ((vmin, at_min), (vmax, at_max)) in zip(("g", "g'"), ranges, _extrema(box)):
            lo, hi = vmin - GG_MARGIN, vmax + GG_MARGIN
            inside = rng[0] - rounding <= lo and hi <= rng[1] + rounding
            scale = rng[1] - rng[0]
            near = (vmin - rng[0] <= GG_ENDPOINT_RTOL * scale
                    and rng[1] - vmax <= GG_ENDPOINT_RTOL * scale)
            report.add(CheckResult(
                name=f"{part} on {where}",
                status="pass" if inside and near else "fail",
                measured=lo,
                bound=rng[0],
                details="min %.6f at (%.6f, %.6f, %.6f), proved >= %.6f; " % (vmin, *at_min, lo)
                + "max %.6f at (%.6f, %.6f, %.6f), proved <= %.6f; " % (vmax, *at_max, hi)
                + f"stated [{rng[0]}, {rng[1]}], endpoints within {GG_ENDPOINT_RTOL:.0%}: {near}",
            ))
    return report


# ---------------------------------------------------------------------------
# coincidence bound

def coincidence_bound(nodes: Sequence[TreeNode]) -> Report:
    """|u - v| <= 10 phi^(-2(r-1)) for expansions sharing r quotients,
    on every pair of rotations of the nodes' words, each word once.

    Keys of cap = 2 q_max digits tell every two rotations apart: a
    node's word is no power u^k (k would divide q and p, its count of 4s,
    which are coprime) nor a rotation of another node's word (a rotation
    keeps p and q), so two rotations are distinct periodic sequences and
    differ within q_a + q_b - 1 digits (Fine and Wilf, Proc. AMS 16, 1965).

    A reduced minus continued fraction grows with its digits (Zagier,
    Zetafunktionen und quadratische Koerper, 1981), so the sorted
    rotations that share r digits form blocks (LCP intervals, found by
    one pass with a stack) whose widest pair is the first and the last.
    Their gap D_0 comes from D_k = D_(k+1)/(T_a(k+1) T_b(k+1)), back from
    the first digit r where they differ: relative precision at any r,
    where a float u - v has none from about r = 20 on.  The envelope is
    a normal float to r = 739, so each ratio is finite (0 only where a
    product overflows, below 1e-307); a block past r = 739 is refused."""
    report = Report(title=f"coincidence bound to depth {_depth(nodes)}")
    cap = 2 * max((node.q for node in nodes), default=0)
    # A key is a rotation's first cap digits as a big-endian int, so keys
    # sort as the digits do, and two keys share r digits when their xor
    # has at most 8 (cap - r) bits.  One sweep per word gives every
    # rotation's value T.
    rotations = []
    for word, path in {node.period: node.path for node in nodes}.items():
        reps = -(-(len(word) + cap) // len(word))
        text, values = word * reps, _rotation_values(word) * reps
        rotations += [(int.from_bytes(text[s:s + cap], "big"), path, s, values)
                      for s in range(len(word))]
    rotations.sort()
    shared = [cap - ((a[0] ^ b[0]).bit_length() + 7) // 8 for a, b in zip(rotations, rotations[1:])]
    worst, widest = 0.0, ""
    stack = [(0, 0)]  # (shared digits, first rotation) of each open block
    for last, r_next in enumerate(shared + [0]):
        first = last
        while stack[-1][0] > r_next:
            r, first = stack.pop()
            if (bound := coincidence_envelope(r)) < sys.float_info.min:
                raise ValueError(f"coincidence envelope at r={r} is below the least normal float")
            (_, a, sa, ta), (_, b, sb, tb) = rotations[first], rotations[last]
            ratio = abs(ta[sa + r] - tb[sb + r]) / (bound * math.prod(
                ta[sa + 1:sa + r + 1]) * math.prod(tb[sb + 1:sb + r + 1]))
            if ratio > worst:
                worst, widest = ratio, f", widest at r={r}: {a!r} and {b!r}"
        if stack[-1][0] < r_next:
            stack.append((r_next, first))
    report.add(CheckResult(name="pairwise coincidence bound",
                           status="pass" if worst <= 1.0 else "fail", measured=worst, bound=1.0,
                           details=f"every pair of {len(rotations)} rotations, sharing up to "
                                   f"{max(shared, default=0)} digits{widest}"))
    return report


# ---------------------------------------------------------------------------
# asymptotics

def _window_means(values: Sequence[float]) -> list[float]:
    """Mean over geometrically growing index windows.

    The deviations decay like n^(-1/2), so equal-width windows average
    over incomparable scales and wobble; windows with edges at
    n^(k/TREND_WINDOWS) shrink by a fixed factor per window instead.
    """
    n, windows = len(values), TREND_WINDOWS
    if n < windows:
        return [math.fsum(values) / n]
    edges = sorted({0, n} | {int(round(n ** (k / windows))) for k in range(windows + 1)})
    return [math.fsum(values[a:b]) / (b - a) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def _trend_check(name: str, ratios: Iterable[float], target: float) -> CheckResult:
    """Does ``ratios`` tend to ``target`` on average?  The signed
    deviation, averaged over each window of :func:`_window_means`, must
    shrink strictly in size from each window to the next.  With a single
    window there is no trend to see, and the check is only ``info``.

    The mean of |deviation| would not do: Markov numbers of equal q
    spread in log c (c has about 0.418 q decimal digits on the Fibonacci
    branch and 0.383 q on the Pell branch), so log(c_n) sqrt(C/n) keeps
    a spread of about 0.025 about its limit however far the sequence
    goes, and the mean |deviation| levels off at it (0.0225 from depth
    700 on) while the signed mean still falls.  A sequence that stays
    off its limit, or drifts away, keeps or grows its window means.
    """
    means = _window_means([r - target for r in ratios])
    details = "window mean deviations " + ", ".join(f"{m:+.4f}" for m in means)
    if len(means) < 2:
        status, details = "info", "one window, no trend: " + details
    elif all(abs(b) < abs(a) for a, b in zip(means, means[1:])):
        status = "pass"
    else:
        status = "fail"
    return CheckResult(name=name, status=status, measured=means[-1], details=details)


def asymptotics_report(depth: int) -> Report:
    """Convergence trends of the denominator and Markov-number growth.

    Trends are reported, not thresholded: each must pass
    :func:`_trend_check` over TREND_WINDOWS windows.  Depths below 1,
    which leave log(c_n)/q_n no value to average, and above
    MAX_ASYMPTOTICS_DEPTH raise ValueError before any enumeration.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > MAX_ASYMPTOTICS_DEPTH:
        raise ValueError(f"depth {depth} exceeds {MAX_ASYMPTOTICS_DEPTH}, "
                         "the deepest asymptotics report")
    report = Report(title=f"asymptotics (denominators up to {depth + 2})")
    seq = denominator_sequence(depth + 2)
    logc = [math.log(c) for _, c in seq]
    head = [q for q, _ in seq[:6]]
    report.add(CheckResult(
        name="ordering head",
        status="pass" if head == [1, 2, 3, 4, 5, 5][:len(head)] else "fail",
        details=f"first denominators {head}",
    ))
    report.add(_trend_check("q_n / sqrt(n) -> pi sqrt(2/3)",
                            (q / math.sqrt(n) for n, (q, _) in enumerate(seq, 1)), Q_GROWTH))
    report.add(_trend_check("log(c_n) sqrt(C/n) -> 1",
                            (lc * math.sqrt(ZAGIER_C) / math.sqrt(n)
                             for n, lc in enumerate(logc, 1)), 1.0))
    report.add(_trend_check("log(c_n)/q_n -> sqrt(3)/(pi sqrt(2C))",
                            (lc / q for lc, (q, _) in zip(logc[2:], seq[2:])), LOG_EPS_SLOPE))
    # log(eps_n) against its linear-in-q_n prediction.
    eps_dev = []
    for (q, c), lc in zip(seq[2:], logc[2:]):
        log_eps = _log_epsilon(c, lc)
        eps_dev.append(abs(log_eps - (LOG_EPS_SLOPE * q + math.log(1.5))) / log_eps)
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

class BoundChain(NamedTuple):
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
    # In floats: past half the largest float the powers are 0, not an OverflowError.
    k = float(k0)
    turn = coef / 4.0 * CONTRACTION ** (2 * k - 3)
    middle = coef / k * CONTRACTION ** (2 * k - 1)
    top = coef / (k + 1) * CONTRACTION ** (2 * k)
    pure = coef / (k + 3) * CONTRACTION ** (2 * k - 5)
    return (turn, middle, top, pure)


def theorem2_constants(
    k0: int,
    re_envelope: tuple[float, float] = PUBLISHED_RE_ENVELOPE,
    im_envelope: tuple[float, float] = PUBLISHED_IM_ENVELOPE,
) -> BoundChain:
    """Evaluate the aggregate-error and value-bound chain at level k0.

    Envelopes default to the computed J/q ranges over levels <= 12;
    pass freshly computed ones to rederive the chain from scratch.
    """
    if k0 < 2:
        raise ValueError("k0 must be >= 2")
    if k0 > sys.float_info.max:
        raise ValueError(f"k0 must be at most {sys.float_info.max:g}, the largest float")
    re_terms = _delta_terms(RE_DELTA_COEF, k0)
    im_terms = _delta_terms(IM_DELTA_COEF, k0)
    re_delta = max(re_terms[0] + re_terms[1] + re_terms[2], re_terms[3])
    im_delta = max(im_terms[0] + im_terms[1] + im_terms[2], im_terms[3])
    J_re = ((re_envelope[0] - re_delta) * Q_GROWTH, (re_envelope[1] + re_delta) * Q_GROWTH)
    J_im = ((im_envelope[0] - im_delta) * Q_GROWTH, (im_envelope[1] + im_delta) * Q_GROWTH)
    to_j = math.sqrt(ZAGIER_C) / 2.0
    return BoundChain(
        k0=k0,
        re_envelope=re_envelope,
        im_envelope=im_envelope,
        re_terms=re_terms,
        im_terms=im_terms,
        re_delta_bound=re_delta,
        im_delta_bound=im_delta,
        J_sqrtn_re=J_re,
        J_sqrtn_im=J_im,
        j_re=(J_re[0] * to_j, J_re[1] * to_j),
        j_im=(J_im[0] * to_j, J_im[1] * to_j),
    )
