"""Per-node derivations that the tree no longer runs, and the word and
node API that only the tests call, kept as test oracles.

The tree takes each node's c by one Vieta step over its Farey
interval's ends.  These re-derive the node's data independently: the
triple by Vieta involutions from the root, in the triple form of
vieta_step with the Markov equation checked at each step, k by a
modular inverse, the form from (c, k) with its discriminant checked,
and the word's period matrix, whose trace is 3c by Cohn's identity.  farey_mismatches checks the Farey
neighbour identity and the mediant, which the tree relies on and does
not check, at any node below the tips.

Words are plain bytes in markovj, checked by the tree that builds them.
What used to be API on them and on the nodes, and is now read only by
the tests, lives here as plain functions:

- checked_word: the digit check that cf.Period ran on construction;
- least_rotation: Period.canonical (Booth's algorithm);
- parse_period: the inverse of cf.format_period;
- digit_sum and cycle_length: the Period properties;
- period_matrix: the word's matrix, which tree nodes carried;
- eval_periodic: cf.eval_periodic, a word's first rotation value, as
  the float of its 40-digit periodic_value;
- node_k, node_form and node_triple: the TreeNode properties k, form
  and triple, read off the word's matrix and the node's neighbours;
- joined_word: a node's word by the join rule the tree once ran, the
  oracle of cf.markov_word;
- envelope_from_values: analysis.envelope_from_values;
- average_integral: integrals.average_integral;
- truncation_error_bound: jfunction.truncation_error_bound;
- euler_j_coefficients: jfunction.j_coefficients by the route it once
  took, Delta as q times the 24th power of the Euler product.

periodic_value, coincidence_gaps and coincidence_ratio are the
60-digit decimal oracle of analysis.coincidence_bound: every rotation's
value, and a scan of every pair of rotations.

exact_arc_rule and exact_truncation_constant compute, to 40 digits in
decimal arithmetic, the rule and the truncation constant K that
integrals._rule builds in floats, so that a test can measure how far
each of them is from exact.
"""

import math
import re
from dataclasses import dataclass
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

from markovj.cf import PeriodError
from markovj.integrals import ARC_HI, ARC_LO, _rule
from markovj.jfunction import ARC_MIN_IM, SERIES_ORDER, j_coefficients, j_eval
from markovj.tree import TreeError


@dataclass(frozen=True)
class MarkovTriple:
    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        a, b, c = self.a, self.b, self.c
        if min(a, b, c) < 1:
            raise TreeError(f"triple must be positive: {(a, b, c)}")
        if a * a + b * b + c * c != 3 * a * b * c:
            raise TreeError(f"not a Markov triple: {(a, b, c)}")

    def __iter__(self):
        return iter((self.a, self.b, self.c))


def vieta_step(t: MarkovTriple, step: str) -> MarkovTriple:
    """The child of t = (a, b, c) on ``step``: (c, b, 3bc - a) on L and
    (a, c, 3ac - b) on R, checked against the Markov equation."""
    a, b, c = t
    return MarkovTriple(c, b, 3 * b * c - a) if step == "L" else MarkovTriple(a, c, 3 * a * c - b)


def vieta_triple(path: str) -> MarkovTriple:
    """The triple at tree path ``path`` by Vieta involutions from the
    root (2, 1, 5), each step checked against the Markov equation."""
    triple = MarkovTriple(2, 1, 5)
    for step in path:
        triple = vieta_step(triple, step)
    return triple


def markov_k(t: MarkovTriple) -> int:
    """The unique 0 <= k < c with a*k = b (mod c)."""
    a, b, c = t
    if c == 1:
        return 0
    try:
        k = (b * pow(a, -1, c)) % c
    except ValueError as exc:
        raise TreeError(f"a={a} not invertible mod c={c}") from exc
    if (k * k + 1) % c != 0:
        raise TreeError(f"c={c} does not divide k^2+1 for k={k}")
    return k


def markov_form(c: int, k: int) -> tuple[int, int, int]:
    """The quadratic form [c, 3c-2k, l-3k] with l = (k^2+1)/c."""
    if c < 1:
        raise TreeError("c must be >= 1")
    if (k * k + 1) % c != 0:
        raise TreeError(f"c={c} does not divide k^2+1={k * k + 1}")
    ell = (k * k + 1) // c
    form = (c, 3 * c - 2 * k, ell - 3 * k)
    a, b, cf = form
    if b * b - 4 * a * cf != 9 * c * c - 4:
        raise TreeError(f"form {form} does not have discriminant 9c^2-4")
    return form


def markov_irrational(c: int, k: int) -> float:
    """(3c - 2k + sqrt(9c^2 - 4)) / (2c), good to ~1e-15 relative.

    Works for arbitrarily large c: both summands stay in (0, 3] as
    exact Fractions until the final correctly-rounded float conversion.
    """
    if c < 1 or not 0 <= k < c:
        raise TreeError(f"bad (c, k) = ({c}, {k})")
    rational = float(Fraction(3 * c - 2 * k, 2 * c))
    return rational + math.sqrt(float(Fraction(9 * c * c - 4, 4 * c * c)))


def markov_constant(c: int) -> float:
    """sqrt(9 - 4/c^2), the Lagrange/Markov constant of the node."""
    if c < 1:
        raise TreeError("c must be >= 1")
    return math.sqrt(9.0 - 4.0 / (float(c) * float(c)))


def checked_word(digits) -> bytes:
    """``digits`` as a word, one byte per digit, or PeriodError unless
    it is a nonempty sequence of integers in {2, 3, 4}.  A bytes object
    is returned as it is; anything else is iterated, so that an int is
    refused rather than read as a length, and a numpy array gives its
    digits, not its raw buffer."""
    try:
        word = digits if type(digits) is bytes else bytes(iter(digits))
    except (TypeError, ValueError) as exc:
        raise PeriodError(f"period digits must be integers in {{2,3,4}}: {exc}") from None
    if not word or word.translate(None, b"\2\3\4"):
        raise PeriodError("period must be a nonempty word over {2,3,4}, "
                          f"not one over {sorted(set(word))}")
    return word


def least_rotation(word: bytes) -> bytes:
    """The least rotation of ``word``, by Booth's O(q) algorithm (K. S.
    Booth, Inf. Proc. Lett. 10, 1980).  Two words are rotations of each
    other iff their least rotations are equal."""
    s = word * 2
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
    return word[k:] + word[:k]


_RUN_RE = re.compile(r"^(\d+)(?:_(\d+))?$")


def parse_period(text: str) -> bytes:
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
    return checked_word(digits)


def digit_sum(word: bytes) -> int:
    return sum(word)


def cycle_length(word: bytes) -> int:
    """Length of the simple-form cycle, sum(a_i - 1)."""
    return sum(word) - len(word)


def period_matrix(word: bytes) -> tuple[tuple[int, int], tuple[int, int]]:
    """Product of the step matrices [[a,-1],[1,0]], exact integers.

    det = 1 always.  For the word of a node with Markov number c it is
    ((3c + k, -c), (l + 3k, -k)) with k^2 + 1 = lc, so its trace is 3c
    (Cohn, Approach to Markoff's minimal forms through modular
    functions, Ann. Math. 1955).  The matrix of a joined word u + v is
    the product of u's and v's.
    """
    a, b, c, d = 1, 0, 0, 1
    for digit in word:
        a, b, c, d = a * digit + b, -a, c * digit + d, -c
    return ((a, b), (c, d))


def eval_periodic(word: bytes) -> float:
    """Value of the purely periodic expansion, the word's first rotation
    value: the float of its 40-digit periodic_value, independent of the
    float sweep of cf._rotation_values.  A parabolic word (trace 2, all
    digits 2) has the value 1 at which no sweep contracts, and is
    refused with PeriodError as cf refuses it."""
    (a, _), (_, d) = period_matrix(word)
    if a + d == 2:
        raise PeriodError(f"parabolic word {word!r}")
    return float(periodic_value(word, 40))


def periodic_value(word: bytes, digits: int = 60) -> Decimal:
    """The value of the purely periodic expansion of ``word`` to
    ``digits`` significant digits: the fixed point > 1 of its matrix
    ((a, b), (c, d)), a root of c x^2 + (d - a) x - b = 0.  Of the two
    forms of that root, the one without cancellation is taken."""
    (a, b), (c, d) = period_matrix(word)
    with localcontext() as ctx:
        ctx.prec = digits
        root = Decimal((a + d) ** 2 - 4).sqrt()
        return (a - d + root) / (2 * c) if a >= d else 2 * b / (d - a + root)


def coincidence_gaps(words, digits: int = 60) -> dict[int, tuple[Decimal, str, str]]:
    """For each r = 1 to digits - 1 that occurs, the largest |u - v| over
    the pairs of rotations of ``words``, (name, word) pairs, that share
    exactly r leading digits, with the names of that pair's words, the
    smaller value first: a scan of every pair, each value to ``digits``
    digits."""
    rotations = []
    for name, word in words:
        text = word * (digits // len(word) + 2)
        rotations += [(text[s:s + digits], name, periodic_value(word[s:] + word[:s], digits))
                      for s in range(len(word))]
    gaps: dict[int, tuple[Decimal, str, str]] = {}
    with localcontext() as ctx:
        ctx.prec = digits
        for i, (key_a, name_a, u) in enumerate(rotations):
            for key_b, name_b, v in rotations[i + 1:]:
                r = 0
                while r < digits and key_a[r] == key_b[r]:
                    r += 1
                if 0 < r < digits and abs(u - v) > gaps.get(r, (0,))[0]:
                    gaps[r] = (abs(u - v),) + ((name_a, name_b) if u < v else (name_b, name_a))
    return gaps


def coincidence_ratio(gaps, digits: int = 60) -> tuple[Decimal, int, str, str]:
    """The largest |u - v| / (10 phi^(-2(r-1))) of coincidence_gaps, with
    its r and the pair's names."""
    with localcontext() as ctx:
        ctx.prec = digits
        phi_squared = ((1 + Decimal(5).sqrt()) / 2) ** 2
        return max((gap * phi_squared ** (r - 1) / 10, r, a, b)
                   for r, (gap, a, b) in gaps.items())


def node_k(node) -> int:
    """The 0 <= k < c with c | k^2 + 1 that the node's word gives."""
    return -period_matrix(node.period)[1][1]


def node_form(node) -> tuple[int, int, int]:
    """The quadratic form (c, 3c - 2k, l - 3k), l = (k^2 + 1)/c, of
    discriminant 9c^2 - 4, with the node's c and with k and l read off
    its word's matrix."""
    _, (m10, m11) = period_matrix(node.period)
    c, k = node.c, -m11
    ell = m10 - 3 * k
    return (c, 3 * c - 2 * k, ell - 3 * k)


def joined_word(node, words: dict) -> bytes:
    """The node's word by the join rule: 3 and 2 4 at the tips,
    2 3^level 4 down the branch from the left tip, and otherwise the
    right neighbour's word followed by the left's.  ``words`` keeps
    every word made, by path, for the next call to reuse."""
    word = words.get(node.path)
    if word is None:
        if node.left is None:
            word = b"\3" if node.p == 0 else b"\2\4"
        elif node.left.p == 0:
            word = b"\2" + b"\3" * node.level + b"\4"
        else:
            word = joined_word(node.right, words) + joined_word(node.left, words)
        words[node.path] = word
    return word


def node_triple(node) -> tuple[int, int, int]:
    """(right.c, left.c, c): the Markov numbers of the node's Farey
    neighbours and its own; (1, 1, c) at the tips."""
    if node.left is None:
        return (1, 1, node.c)
    return (node.right.c, node.left.c, node.c)


def farey_mismatches(node) -> list[str]:
    """What breaks the Farey structure at ``node``, which has two
    neighbours: "neighbours" unless right.p left.q - left.p right.q = 1
    (Farey neighbours, in increasing order), and "mediant" unless p/q
    is their mediant."""
    left, right = node.left, node.right
    found = []
    if right.p * left.q - left.p * right.q != 1:
        found.append("neighbours")
    if (node.p, node.q) != (left.p + right.p, left.q + right.q):
        found.append("mediant")
    return found


def envelope_from_values(values) -> tuple[tuple[float, float], tuple[float, float]]:
    """min/max of Re(J/q) and Im(J/q) over computed values."""
    res = [v.J_over_q.real for v in values]
    ims = [v.J_over_q.imag for v in values]
    return (min(res), max(res)), (min(ims), max(ims))


def average_integral(tol: float) -> float:
    """The arc average integral of j(e^(i theta)) over [pi/3, 2pi/3], by
    the rule of integrals._rule, which must agree within ``tol``
    relative with an independent 40-point Gauss-Legendre sum."""
    import numpy as np

    # h w j(z) = -i g conj(z), as g = h w j(z) i z and |z| = 1.
    g, zbar = _rule()[:2]
    value = complex((-1j * g * zbar).sum())
    h = 0.5 * (ARC_HI - ARC_LO)
    x, w = np.polynomial.legendre.leggauss(40)
    z = np.exp(1j * (0.5 * (ARC_LO + ARC_HI) + h * x))
    check = complex((h * w * j_eval(z, j_coefficients(SERIES_ORDER))).sum())
    assert abs(value - check) <= tol * abs(value)
    return value.real


def euler_j_coefficients(order: int) -> tuple[int, ...]:
    """c_{-1}, ..., c_order of j = E4^3 / Delta, with Delta = q prod
    (1 - q^m)^24 and the Euler product by the pentagonal number theorem,
    in plain truncated-series arithmetic."""
    n = order + 1

    def mul(a, b):
        return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(n + 1)]

    def sigma3(m):
        return sum(d**3 for d in range(1, m + 1) if m % d == 0)

    e4 = [1] + [240 * sigma3(m) for m in range(1, n + 1)]
    e4_cubed = mul(mul(e4, e4), e4)
    euler = [1] + [0] * n
    k = 1
    while k * (3 * k - 1) // 2 <= n:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= n:
                euler[g] += -1 if k % 2 else 1
        k += 1
    eta24 = [1] + [0] * n
    for _ in range(24):
        eta24 = mul(eta24, euler)
    quot = []
    for m in range(n + 1):
        quot.append(e4_cubed[m] - sum(eta24[m - i] * quot[i] for i in range(m)))
    return tuple(quot)


def truncation_error_bound(order: int, y: float) -> float:
    """Upper bound on |sum_{m > order} c_m e^(-2 pi m y)|.

    Uses the growth envelope c_m <= e^(4 pi sqrt m), summing terms
    until a geometric tail bound takes over.
    """
    if not y >= ARC_MIN_IM:
        raise ValueError("y below the admissible strip")
    total = 0.0
    m = order + 1
    while True:
        term = math.exp(4.0 * math.pi * math.sqrt(m) - 2.0 * math.pi * m * y)
        total += term
        # Ratio of consecutive terms is below exp(2 pi / sqrt(m) - 2 pi y).
        ratio = math.exp(2.0 * math.pi / math.sqrt(m) - 2.0 * math.pi * y)
        if ratio < 1.0 and term * ratio / (1.0 - ratio) < 1e-3 * max(total, 1e-300):
            total += term * ratio / (1.0 - ratio)
            return total
        m += 1
        if m > order + 10_000:
            return math.inf


def _decimal_pi() -> Decimal:
    """pi to the current decimal precision (the recipe of the decimal
    module's documentation)."""
    lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    return +s


def _decimal_cos_sin(x: Decimal) -> tuple[Decimal, Decimal]:
    """cos x and sin x by their Taylor series, for |x| <= 4."""
    tiny = Decimal(10) ** -getcontext().prec
    cos = sin = Decimal(0)
    term, k = Decimal(1), 0  # x^k / k!
    while abs(term) > tiny:
        if k % 4 == 0:
            cos += term
        elif k % 4 == 1:
            sin += term
        elif k % 4 == 2:
            cos -= term
        else:
            sin -= term
        k += 1
        term = term * x / k
    return cos, sin


def exact_arc_rule(points: int, series, digits: int = 40):
    """The ``points``-point Gauss-Legendre rule on the arc
    theta = pi/2 + h x, h = pi/6, with the j-series ``series``
    (c_-1, c_0, ...), to ``digits`` digits: per node (x, y, g) with
    z = x + iy = e^(i theta) and g = h w j(z) i z as a (re, im) pair.
    The nodes are the roots of the Legendre polynomial, by Newton's
    method from Tricomi's estimates, and w = 2/((1 - x^2) P_n'(x)^2)."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        pi = _decimal_pi()
        h = pi / 6

        def legendre(x):
            p0, p1 = Decimal(1), x
            for k in range(2, points + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            return p1, points * (x * p1 - p0) / (x * x - 1)

        rule = []
        for m in range(points, 0, -1):
            x = Decimal(math.cos(math.pi * (m - 0.25) / (points + 0.5)))
            step = Decimal(1)
            while abs(step) > Decimal(10) ** -(digits + 5):
                p, dp = legendre(x)
                step = p / dp
                x -= step
            _, dp = legendre(x)
            weight = 2 / ((1 - x * x) * dp * dp)
            zx, zy = _decimal_cos_sin(pi / 2 + h * x)
            # q = e^(-2 pi y) e^(2 pi i x); j = sum_k c_k q^k by Horner in
            # q, then times 1/q.
            radius = (-2 * pi * zy).exp()
            qc, qs = _decimal_cos_sin(2 * pi * zx)
            qr, qi = radius * qc, radius * qs
            acc_r, acc_i = Decimal(0), Decimal(0)
            for c in reversed(series):
                acc_r, acc_i = acc_r * qr - acc_i * qi + c, acc_r * qi + acc_i * qr
            inv = 1 / (radius * radius)
            jr, ji = (acc_r * qr + acc_i * qi) * inv, (acc_i * qr - acc_r * qi) * inv
            scale = h * weight
            # g = scale j i z, with i z = -y + i x.
            g = (scale * (-jr * zy - ji * zx), scale * (jr * zx - ji * zy))
            rule.append((+zx, +zy, (+g[0], +g[1])))
        return rule


def exact_truncation_constant(rho: float, points: int, series, digits: int = 40) -> Decimal:
    """The per-state truncation constant K of integrals._rule, to
    ``digits`` digits from the float ``rho``:
    h (64/15) rho^(-2n) / (rho^2 - 1) 2 e^b j_max / y_min, with h = pi/6,
    a = h (rho + 1/rho)/2, b = h (rho - 1/rho)/2, y_min = e^(-b) cos a
    and j_max = e^(2 pi e^b) + sum_{k >= 0} c_k e^(-2 pi k y_min)."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        pi = _decimal_pi()
        h, rho = pi / 6, Decimal(rho)
        a, b = h * (rho + 1 / rho) / 2, h * (rho - 1 / rho) / 2
        y_min = (-b).exp() * _decimal_cos_sin(a)[0]
        j_max = (2 * pi * b.exp()).exp() + sum(
            c * (-2 * pi * k * y_min).exp() for k, c in enumerate(series[1:]))
        return +(h * Decimal(64) / 15 / rho ** (2 * points) / (rho * rho - 1)
                 * 2 * b.exp() * j_max / y_min)
