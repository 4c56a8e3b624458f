"""Per-node derivations that the tree no longer runs, and the word and
node API that only the tests call, kept as test oracles.

The tree reads c off each node's period matrix.  These re-derive the
node's data independently: the triple by Vieta involutions with the
Markov equation checked, k by a modular inverse, the form from (c, k)
with its discriminant checked.  farey_mismatches checks the Farey
neighbour identity and the mediant, which the tree relies on and does
not check, at any node below the tips.

Words are plain bytes in markovj, checked by the tree that builds them.
What used to be API on them and on the nodes, and is now read only by
the tests, lives here as plain functions:

- checked_word: the digit check that cf.Period ran on construction;
- least_rotation: Period.canonical (Booth's algorithm);
- parse_period: the inverse of cf.format_period;
- digit_sum and cycle_length: the Period properties;
- node_k, node_form and node_triple: the TreeNode properties k, form
  and triple, read off the node's matrix and its neighbours;
- envelope_from_values: analysis.envelope_from_values;
- average_integral: integrals.average_integral.
"""

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from markovj.cf import PeriodError
from markovj.integrals import RULE_POINTS, _rule
from markovj.tree import TreeError, vieta_children


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


def vieta_triple(path: str) -> MarkovTriple:
    """The triple at tree path ``path`` by Vieta involutions from the
    root (2, 1, 5), each step checked against the Markov equation."""
    triple = MarkovTriple(2, 1, 5)
    for step in path:
        triple = MarkovTriple(*vieta_children(triple)["LR".index(step)])
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


def node_k(node) -> int:
    """The 0 <= k < c with c | k^2 + 1 that the node's word gives."""
    return -node.matrix[1][1]


def node_form(node) -> tuple[int, int, int]:
    """The quadratic form (c, 3c - 2k, l - 3k), l = (k^2 + 1)/c, of
    discriminant 9c^2 - 4, read off the node's matrix."""
    c, k = node.c, node_k(node)
    ell = node.matrix[1][0] - 3 * k
    return (c, 3 * c - 2 * k, ell - 3 * k)


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
    the value rule of integrals._rule, whose difference from the check
    rule must be within ``tol`` relative to the value."""
    wj, n = _rule()[-1], RULE_POINTS[0]
    value, check = complex(wj[:n].sum()), complex(wj[n:].sum())
    assert abs(value - check) <= tol * abs(value)
    return value.real
