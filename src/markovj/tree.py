"""The Markov triple tree, the parallel Farey tree, and per-node data.

Triples (a, b, c) solve a^2 + b^2 + c^2 = 3abc and grow by Vieta
involutions; Farey fractions grow by mediants of the interval
endpoints.  Nodes are keyed by their tree path (a word over L/R) so
that a failure of the unicity conjecture could never corrupt lookups.
The two tips (1,1,1) <-> 0/1 and (1,1,2) <-> 1/2 are level-0 boundary
nodes.

Memory note: Markov numbers grow doubly exponentially with depth (the
largest c has 56 decimal digits at depth 9 and 237 at depth 12; the
digit count grows by a factor of about phi per level, so depth 24 is
about 7.6e4 digits); keep ``depth`` modest unless you know what you are
doing.  Period words are bytes, one per digit, checked once on
construction: 21.5 MB of words in the tree of depth 15.  The words of
the tree of depth d total about 1.5 * 3^d bytes, so build_tree refuses
depths above MAX_DEPTH (581 MB of words at 18, 5.2 GB at 20).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .cf import Period, conjunction

__all__ = [
    "MarkovTriple",
    "FareyFraction",
    "TreeNode",
    "TreeError",
    "vieta_children",
    "joins_neighbours",
    "farey_median",
    "markov_k",
    "markov_form",
    "markov_irrational",
    "markov_constant",
    "build_tree",
    "node_at",
    "walk_path",
    "find_fraction",
    "TIP_LEFT",
    "TIP_RIGHT",
    "ROOT",
]


#: The deepest tree build_tree builds, and the deepest level find_fraction searches.
MAX_DEPTH = 18
MAX_LEVEL = 200


class TreeError(ValueError):
    """Raised for invalid triples, fractions, or paths."""


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

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.c})"


@dataclass(frozen=True)
class FareyFraction:
    p: int
    q: int

    def __post_init__(self) -> None:
        if self.q < 1 or self.p < 0:
            raise TreeError(f"bad fraction {self.p}/{self.q}")
        if math.gcd(self.p, self.q) != 1:
            raise TreeError(f"fraction {self.p}/{self.q} not reduced")
        if 2 * self.p > self.q:
            raise TreeError(f"fraction {self.p}/{self.q} outside [0, 1/2]")

    def as_fraction(self) -> Fraction:
        return Fraction(self.p, self.q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def _vieta_child(t: MarkovTriple, step: str) -> MarkovTriple:
    """Left child (c, b, 3bc - a) for step "L", right child (a, c, 3ac - b)
    for "R"."""
    a, b, c = t
    if step == "L":
        return MarkovTriple(c, b, 3 * b * c - a)
    return MarkovTriple(a, c, 3 * a * c - b)


def vieta_children(t: MarkovTriple) -> tuple[MarkovTriple, MarkovTriple]:
    """Left child (c, b, 3bc - a) and right child (a, c, 3ac - b)."""
    return _vieta_child(t, "L"), _vieta_child(t, "R")


def farey_median(x: FareyFraction, y: FareyFraction) -> FareyFraction:
    """Mediant of two Farey neighbours; rejects non-neighbours."""
    p, q = x.p + y.p, x.q + y.q
    if math.gcd(p, q) != 1:
        raise TreeError(f"mediant of {x} and {y} is reducible: not neighbours")
    return FareyFraction(p, q)


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


@dataclass(frozen=True)
class TreeNode:
    """One vertex of the tree with all its attached arithmetic data.

    ``left`` and ``right`` are the endpoints of the node's Farey
    interval: the two predecessors whose fractions it is the mediant of
    (``None`` at the tips).  They take no part in equality, hashing or
    repr, so none of those walks up the tree.
    """

    path: str
    level: int
    triple: MarkovTriple
    farey: FareyFraction
    period: Period
    k: int
    form: tuple[int, int, int]
    left: TreeNode | None = field(compare=False, repr=False)
    right: TreeNode | None = field(compare=False, repr=False)

    @property
    def c(self) -> int:
        return self.triple.c

    @property
    def q(self) -> int:
        return self.farey.q

    def __str__(self) -> str:
        label = self.path or ("root" if self.level == 1 else "tip")
        return f"<node {label} {self.farey}>"


def _make_node(path: str, level: int, triple: MarkovTriple, farey: FareyFraction,
               period: Period, left: TreeNode | None = None,
               right: TreeNode | None = None) -> TreeNode:
    k = markov_k(triple)
    form = markov_form(triple.c, k)
    if len(period) != farey.q:
        raise TreeError(
            f"period length {len(period)} != Farey denominator {farey.q} at {path!r}"
        )
    return TreeNode(path=path, level=level, triple=triple, farey=farey,
                    period=period, k=k, form=form, left=left, right=right)


TIP_LEFT = _make_node("0/1", 0, MarkovTriple(1, 1, 1), FareyFraction(0, 1),
                      Period((3,)))
TIP_RIGHT = _make_node("1/2", 0, MarkovTriple(1, 1, 2), FareyFraction(1, 2),
                       Period((2, 4)))
ROOT = _make_node("", 1, MarkovTriple(2, 1, 5), FareyFraction(1, 3),
                  Period((2, 3, 4)), TIP_LEFT, TIP_RIGHT)


def joins_neighbours(left: TreeNode | None) -> bool:
    """Whether the node whose Farey interval starts at ``left`` has for
    word its neighbours' words joined, the right one first.  The tips
    (no left neighbour) and the branch down from the left tip, root
    included, do not: their words are 3, 2 4 and 2 3^level 4."""
    return left is not None and left is not TIP_LEFT


def _child(node: TreeNode, step: str) -> TreeNode:
    """One step down the tree: the child's interval is the left or the
    right half of the node's, split at the node."""
    if step == "L":
        left, right = node.left, node
    else:
        left, right = node, node.right
    level = node.level + 1
    farey = farey_median(left.farey, right.farey)
    period = (conjunction(right.period, left.period) if joins_neighbours(left)
              else Period((2,) + (3,) * level + (4,)))
    return _make_node(node.path + step, level, _vieta_child(node.triple, step),
                      farey, period, left, right)


def walk_path(path: str) -> Iterator[TreeNode]:
    """Yield the nodes from the root down along ``path``."""
    if any(s not in "LR" for s in path):
        raise TreeError(f"path must be a word over L/R: {path!r}")
    node = ROOT
    yield node
    for step in path:
        node = _child(node, step)
        yield node


def node_at(path: str) -> TreeNode:
    """The node at tree path ``path`` ('' is the root (2,1,5) <-> 1/3)."""
    for node in walk_path(path):
        pass
    return node


def build_tree(depth: int) -> list[TreeNode]:
    """All nodes with level <= depth plus the two level-0 tips.

    Breadth-first order: tips, then the 2^(n-1) nodes of each level n.
    Depths outside [1, MAX_DEPTH] raise TreeError.
    """
    if depth < 1:
        raise TreeError("depth must be >= 1")
    if depth > MAX_DEPTH:
        raise TreeError(f"depth {depth} exceeds {MAX_DEPTH}: its words alone "
                        f"would take over {1.5 * 3 ** (MAX_DEPTH + 1) / 1e9:.2g} GB")
    nodes = [TIP_LEFT, TIP_RIGHT, ROOT]
    frontier = [ROOT]
    for _ in range(2, depth + 1):
        frontier = [_child(node, step) for node in frontier for step in "LR"]
        nodes.extend(frontier)
    return nodes


def find_fraction(p: int, q: int) -> TreeNode:
    """Locate the node with Farey fraction p/q by mediant search.

    Raises TreeError naming the nearest enclosing nodes when p/q is not
    on the tree (not reduced, outside [0, 1/2], or below MAX_LEVEL).
    """
    if q < 1:
        raise TreeError("denominator must be positive")
    if math.gcd(p, q) != 1:
        g = math.gcd(p, q)
        raise TreeError(f"{p}/{q} is not reduced (equals {p // g}/{q // g})")
    target = Fraction(p, q)
    if target == 0:
        return TIP_LEFT
    if target == Fraction(1, 2):
        return TIP_RIGHT
    if not 0 < target < Fraction(1, 2):
        raise TreeError(
            f"{p}/{q} lies outside (0, 1/2); nearest valid nodes are 0/1 and 1/2"
        )
    node = ROOT
    while node.level <= MAX_LEVEL:
        value = node.farey.as_fraction()
        if target == value:
            return node
        node = _child(node, "L" if target < value else "R")
    raise TreeError(
        f"{p}/{q} not found within {MAX_LEVEL} levels; "
        f"nearest nodes are {node.left.farey} and {node.right.farey}"
    )
