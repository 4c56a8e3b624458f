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
import sys
from dataclasses import dataclass, field, asdict
from typing import Sequence

import numpy as np

from .cf import CONJ_MAX, CONJ_MIN, STATE_MAX, STATE_MIN, _mat_mul, eval_periodic
from .integrals import CycleValue, log_epsilon
from .tree import TIP_LEFT, TIP_RIGHT, TreeError, TreeNode, vieta_children

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
    "CHAIN_K0",
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
#: The deepest asymptotics report.  Its denominators up to depth + 2 are
#: enumerated one by one: 1.5-2.2 s and 104 MB at depth 1200, against
#: 0.7-1.0 s and 58 MB at 800 and 3.4-4.7 s and 181 MB at 1600 (whole
#: process, 2 cores, Python 3.11).
MAX_ASYMPTOTICS_DEPTH = 1200


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

    def to_dict(self) -> dict:
        return {"title": self.title, "passed": self.passed,
                "checks": [asdict(c) for c in self.checks]}

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
    return max(node.level for node in nodes)


# ---------------------------------------------------------------------------
# exact q recursions

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
    den = ((c - x) ** 2 + s * s) * ((c - y) ** 2 + s * s)
    return -s * (1.0 - x * y) / den


def gp_kernel(x, y, theta):
    """Imaginary part analogue of :func:`g_kernel`."""
    s, c = np.sin(theta), np.cos(theta)
    den = ((c - x) ** 2 + s * s) * ((c - y) ** 2 + s * s)
    return (-x - y + c * (1.0 + x * y)) / den


#: The search over the grid (see gg_prime_ranges): a block with no index
#: range longer than _LEAF_WIDTH is a leaf, evaluated sample by sample;
#: leaves are evaluated _LEAF_BATCH at a time, so that no leaf array holds
#: more than 4 096 entries (larger batches, of up to 20 100 samples, left
#: the process's peak RSS higher by up to 0.6 MB, though no faster);
#: _SEED_POINTS points per axis seed the incumbents; _SAMPLE_PAD bounds
#: one float sample's own rounding.
_LEAF_WIDTH = 3
_LEAF_BATCH = 4096 // _LEAF_WIDTH**3
_SEED_POINTS = 17
_SAMPLE_PAD = 2.0**-40


def _down(v):
    return np.nextafter(v, -np.inf)


def _up(v):
    return np.nextafter(v, np.inf)


def _imul(al, ah, bl, bh):
    """Enclosure of [al, ah] * [bl, bh], rounded outward."""
    p, q, r, s = al * bl, al * bh, ah * bl, ah * bh
    return (_down(np.minimum(np.minimum(p, q), np.minimum(r, s))),
            _up(np.maximum(np.maximum(p, q), np.maximum(r, s))))


def _isquare(lo, hi):
    """Enclosure of [lo, hi]^2, rounded outward."""
    lo2, hi2 = lo * lo, hi * hi
    low = np.where(lo > 0.0, lo2, np.where(hi < 0.0, hi2, 0.0))
    return np.maximum(_down(low), 0.0), _up(np.maximum(lo2, hi2))


def _idiv(nl, nh, dl, dh):
    """Enclosure of [nl, nh] / [dl, dh] for dl > 0, rounded outward."""
    return (_down(np.minimum(nl / dl, nl / dh)), _up(np.maximum(nh / dl, nh / dh)))


def _range_table(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sparse tables of v: row r holds the min (max) of v[k : k + 2^r]."""
    lo, hi = np.full((2, int(len(v)).bit_length(), len(v)), np.nan)
    lo[0] = hi[0] = v
    for r in range(1, len(lo)):
        w = 1 << (r - 1)
        m = len(v) - 2 * w + 1
        lo[r, :m] = np.minimum(lo[r - 1, :m], lo[r - 1, w:w + m])
        hi[r, :m] = np.maximum(hi[r - 1, :m], hi[r - 1, w:w + m])
    return lo, hi


def _range(table: tuple[np.ndarray, np.ndarray], k0, k1):
    """Min and max of v[k0:k1] for index arrays k0 < k1, from _range_table(v)."""
    r = np.frexp(k1 - k0)[1] - 1  # the largest r with 2^r <= k1 - k0
    k2 = k1 - (1 << r)
    lo, hi = table
    return np.minimum(lo[r, k0], lo[r, k2]), np.maximum(hi[r, k0], hi[r, k2])


def _enclosures(blocks, xs, sin_table, cos_table):
    """Lower bounds of g, -g, g' and -g' on each block, as an (n, 4) array.

    A block is a row (box, i0, i1, j0, j1, k0, k1): the samples at
    x = xs[box, i0:i1], y = xs[box, j0:j1] and theta index k0:k1.
    """
    b = blocks[:, 0]
    # linspace is nondecreasing, so its first and last points bound a range.
    xl, xh = xs[b, blocks[:, 1]], xs[b, blocks[:, 2] - 1]
    yl, yh = xs[b, blocks[:, 3]], xs[b, blocks[:, 4] - 1]
    sl, sh = _range(sin_table, blocks[:, 5], blocks[:, 6])
    cl, ch = _range(cos_table, blocks[:, 5], blocks[:, 6])
    s2l, s2h = _down(sl * sl), _up(sh * sh)  # s > 0

    def pole(lo, hi):  # (c - x)^2 + s^2
        t2l, t2h = _isquare(_down(cl - hi), _up(ch - lo))
        return _down(t2l + s2l), _up(t2h + s2h)

    (axl, axh), (ayl, ayh) = pole(xl, xh), pole(yl, yh)
    dl, dh = _down(axl * ayl), _up(axh * ayh)
    pl, ph = _imul(xl, xh, yl, yh)
    gl, gh = _idiv(*_imul(-sh, -sl, _down(1.0 - ph), _up(1.0 - pl)), dl, dh)
    ul, uh = _imul(cl, ch, _down(1.0 + pl), _up(1.0 + ph))
    gpl, gph = _idiv(_down(_down(-xh - yh) + ul), _up(_up(-xl - yl) + uh), dl, dh)
    return _down(np.stack([gl, -gh, gpl, -gph], axis=1) - _SAMPLE_PAD)


def _sample(best, b, i, j, k, on, xs, thetas) -> None:
    """Evaluate g_kernel and gp_kernel at the samples (box b, x_i, x_j,
    theta_k) of the broadcast index arrays where ``on`` holds, and fold
    their extrema into best."""
    shape = np.broadcast_shapes(b.shape, i.shape, j.shape, k.shape)
    on = np.broadcast_to(on, shape)
    b, i, j, k = (np.broadcast_to(a, shape)[on] for a in (b, i, j, k))
    x, y, theta = xs[b, i], xs[b, j], thetas[k]
    g, gp = g_kernel(x, y, theta), gp_kernel(x, y, theta)
    for box in range(len(best)):
        mine = b == box
        if mine.any():
            gb, gpb = g[mine], gp[mine]
            best[box] = np.minimum(best[box], (gb.min(), -gb.max(), gpb.min(), -gpb.max()))


def _grid(boxes, grid: int):
    """The grid's x values (one row per box) and theta values, with the
    range tables of sin and cos over the thetas."""
    xs = np.array([np.linspace(lo, hi, grid) for lo, hi in boxes])
    thetas = np.linspace(math.pi / 3.0, 2.0 * math.pi / 3.0, grid)
    return xs, thetas, _range_table(np.sin(thetas)), _range_table(np.cos(thetas))


def _grid_extrema(boxes, grid: int) -> list[list[tuple[float, float]]]:
    """Per box, [(min, max) of g, (min, max) of g'] over the grid of
    box x box x theta, by branch-and-bound over blocks of grid indices
    (see gg_prime_ranges)."""
    xs, thetas, sin_table, cos_table = _grid(boxes, grid)
    # Incumbents: min g, -max g, min g', -max g' per box, so that one
    # comparison with an enclosure's lower bounds serves all four.
    best = np.full((len(boxes), 4), np.inf)
    seed = np.linspace(0, grid - 1, min(grid, _SEED_POINTS)).round().astype(np.intp)
    i, j = seed[:, None, None], seed[:, None]
    _sample(best, np.arange(len(boxes))[:, None, None, None], i, j, seed, i <= j, xs, thetas)
    offsets = np.arange(_LEAF_WIDTH)
    blocks = np.array([(box, 0, grid, 0, grid, 0, grid) for box in range(len(boxes))])
    while len(blocks):
        # Drop blocks below the diagonal (i > j throughout: g and g' are
        # symmetric in x and y, bit for bit) and blocks that cannot beat
        # any incumbent strictly.
        keep = blocks[:, 1] < blocks[:, 4]
        keep[keep] = (_enclosures(blocks[keep], xs, sin_table, cos_table)
                      < best[blocks[keep, 0]]).any(axis=1)
        blocks = blocks[keep]
        widths = blocks[:, 2::2] - blocks[:, 1::2]
        widest = widths.max(axis=1)
        leaf = widest <= _LEAF_WIDTH
        leaves = blocks[leaf]
        for start in range(0, len(leaves), _LEAF_BATCH):
            batch = leaves[start:start + _LEAF_BATCH, :, None, None, None]
            i = batch[:, 1] + offsets[:, None, None]
            j = batch[:, 3] + offsets[:, None]
            k = batch[:, 5] + offsets
            on = (i < batch[:, 2]) & (j < batch[:, 4]) & (k < batch[:, 6]) & (i <= j)
            _sample(best, batch[:, 0], i, j, k, on, xs, thetas)
        # Bisect the widest index range of every other block.
        blocks, widths, widest = blocks[~leaf], widths[~leaf], widest[~leaf]
        rows = np.arange(len(blocks))
        col = 1 + 2 * widths.argmax(axis=1)
        mid = blocks[rows, col] + widest // 2
        left, right = blocks.copy(), blocks
        left[rows, col + 1] = mid
        right[rows, col] = mid
        blocks = np.concatenate([left, right])
    return [[(float(lo_g), float(-neg_hi_g)), (float(lo_gp), float(-neg_hi_gp))]
            for lo_g, neg_hi_g, lo_gp, neg_hi_gp in best]


def gg_prime_ranges() -> Report:
    """Sample g and g' over the value and conjugate boxes, GG_GRID points
    per axis.

    All samples must lie inside the stated intervals and the sampled
    extrema must approach the interval endpoints to GG_ENDPOINT_RTOL.

    The extrema are those of the whole grid, bit for bit, but they are
    found by branch-and-bound (Moore, Kearfott & Cloud, *Introduction
    to Interval Analysis*, SIAM 2009), which evaluates about 26 000 of
    the grid's 8 million samples (pairs x_i <= x_j, both boxes):

    - A block is an i-range x j-range x theta-range of grid indices;
      each box starts as one block, and each level of the search is one
      int array of blocks.
    - Each block gets an enclosure of g and of g' by interval
      arithmetic, every operation rounded outward with np.nextafter.
      Its inputs are the block's floats: x and y from the ends of
      their linspace ranges, s and c from the min and max of the grid's
      sin and cos over its thetas (np.sin and np.cos of gathered thetas
      in g_kernel give the same floats).  That encloses the exact
      kernels at every float input of the block.
    - A float sample differs from the exact kernel at its inputs by its
      own rounding, so the enclosure is widened by _SAMPLE_PAD = 2^-40.
      With u = 2^-53, |x|, |y| <= 21/8, |c| <= 1/2 and s >= sin(pi/3),
      so den >= 9/16: each float factor (c - x)^2 + s^2 is within
      relative 4u of the exact one, den within 9u, and the quotient
      adds u.  The float numerator -s(1 - xy) is within
      |xy| u + 2 |1 - xy| u <= 23u of the exact one, and
      -x - y + c(1 + xy) within 26u.  Over den that is at most 47u,
      plus 10u times |g|, |g'| <= 16.4: under 220u, or 2^-45, so the
      pad holds it 37 times over.  (The enclosure also follows
      g_kernel's order of operations, so it holds the float samples
      even without the pad; the pad does not rest on that.)
    - Each box keeps four incumbents, the min and max of g and of g',
      seeded by _SEED_POINTS points per axis, both ends included.  A
      block is dropped when its enclosure cannot strictly beat any
      incumbent, or when i > j throughout it (g and g' are symmetric
      in x and y, bit for bit); the others are bisected across their
      widest index range.
    - A block no range of which is longer than _LEAF_WIDTH is a leaf:
      g_kernel and gp_kernel evaluate its samples with i <= j.  No
      dropped sample could beat the incumbents, which are samples
      themselves, so they end as the grid's extrema.
    """
    report = Report(title=f"g/g' ranges on a {GG_GRID}^3 grid")
    cases = [
        ("g on value box", G_RANGE_VALUE),
        ("g' on value box", GP_RANGE_VALUE),
        ("g on conjugate box", G_RANGE_CONJ),
        ("g' on conjugate box", GP_RANGE_CONJ),
    ]
    extrema = [r for box in _grid_extrema([VALUE_BOX, CONJ_BOX], GG_GRID) for r in box]
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

def _common_prefix(a: bytes, b: bytes, cap: int) -> int:
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
    words = sorted({word[i:] + word[:i] for word in (node.period for node in nodes)
                    for i in range(len(word))})
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
    stack = [((2, 1, 5), 3, 1, 2)]
    while stack:
        triple, q, ql, qr = stack.pop()
        if q > qmax:
            continue
        out.append((q, triple[2]))
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


def _trend_check(name: str, ratios: Sequence[float], target: float) -> CheckResult:
    """Does ``ratios`` tend to ``target`` on average?  The signed
    deviation, averaged over each window of :func:`_window_means`, must
    shrink strictly in size from each window to the next.

    The mean of |deviation| would not do: Markov numbers of equal q
    spread in log c (c has about 0.418 q decimal digits on the Fibonacci
    branch and 0.383 q on the Pell branch), so log(c_n) sqrt(C/n) keeps
    a spread of about 0.025 about its limit however far the sequence
    goes, and the mean |deviation| levels off at it (0.0225 from depth
    700 on) while the signed mean still falls.  A sequence that stays
    off its limit, or drifts away, keeps or grows its window means.
    """
    means = _window_means(np.asarray(ratios) - target)
    shrinking = all(abs(b) < abs(a) for a, b in zip(means, means[1:]))
    return CheckResult(
        name=name,
        status="pass" if shrinking else "fail",
        measured=means[-1],
        details="window mean deviations " + ", ".join(f"{m:+.4f}" for m in means),
    )


def asymptotics_report(depth: int) -> Report:
    """Convergence trends of the denominator and Markov-number growth.

    Trends are reported, not thresholded: each must pass
    :func:`_trend_check` over TREND_WINDOWS windows.  Depths above
    MAX_ASYMPTOTICS_DEPTH raise ValueError before any enumeration.
    """
    if depth > MAX_ASYMPTOTICS_DEPTH:
        raise ValueError(f"depth {depth} exceeds {MAX_ASYMPTOTICS_DEPTH}, "
                         "the deepest asymptotics report")
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
    report.add(_trend_check("q_n / sqrt(n) -> pi sqrt(2/3)", qs / np.sqrt(ns), Q_GROWTH))
    report.add(_trend_check("log(c_n) sqrt(C/n) -> 1",
                            logc * math.sqrt(ZAGIER_C) / np.sqrt(ns), 1.0))
    report.add(_trend_check("log(c_n)/q_n -> sqrt(3)/(pi sqrt(2C))", logc[2:] / qs[2:],
                            math.sqrt(3.0) / (math.pi * math.sqrt(2.0 * ZAGIER_C))))
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
    # In floats: past half the largest float the powers are 0, not an OverflowError.
    k = float(k0)
    turn = coef / 4.0 * CONTRACTION ** (2 * k - 3)
    middle = coef / k * CONTRACTION ** (2 * k - 1)
    top = coef / (k + 1) * CONTRACTION ** (2 * k)
    pure = coef / (k + 3) * CONTRACTION ** (2 * k - 5)
    return (turn, middle, top, pure)


def theorem2_constants(
    k0: int,
    re_envelope: tuple[float, float] | None = None,
    im_envelope: tuple[float, float] | None = None,
) -> BoundChain:
    """Evaluate the aggregate-error and value-bound chain at level k0.

    Envelopes default to the computed J/q ranges over levels <= 12;
    pass freshly computed ones to rederive the chain from scratch.
    """
    if k0 < 2:
        raise ValueError("k0 must be >= 2")
    if k0 > sys.float_info.max:
        raise ValueError(f"k0 must be at most {sys.float_info.max:g}, the largest float")
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
