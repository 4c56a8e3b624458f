"""The Markov triple tree, the parallel Farey tree, and per-node data.

Triples (a, b, c) solve a^2 + b^2 + c^2 = 3abc and grow by Vieta
involutions; Farey fractions grow by mediants of the interval
endpoints.  Nodes are keyed by their tree path (a word over L/R) so
that a failure of the unicity conjecture could never corrupt lookups.
The two tips (1,1,1) <-> 0/1 and (1,1,2) <-> 1/2 are level-0 boundary
nodes.

Each node carries the period matrix M of its word (cf.period_matrix),
which is ((3c + k, -c), (l + 3k, -k)) with k^2 + 1 = lc (Cohn, Approach
to Markoff's minimal forms through modular functions, Ann. Math. 1955).
A joined word's M is the product of its neighbours' matrices.  c, k and
the form are read off M, with no per-node modular arithmetic, and every
node checks Cohn's identity trace M = 3c.

Memory note: Markov numbers grow doubly exponentially with depth (the
largest c has 56 decimal digits at depth 9 and 237 at depth 12; the
digit count grows by a factor of about phi per level, so depth 24 is
about 7.6e4 digits); each node holds four integers of about the size
of its c in M.  Period words are bytes, one per digit, checked once on
construction: 21.5 MB of words in the tree of depth 15.  The words of
the tree of depth d total about 1.5 * 3^d bytes, so build_tree refuses
depths above MAX_DEPTH (581 MB of words at 18, 5.2 GB at 20).  Along
one path the word length q grows like the Fibonacci numbers, so no
node is built whose word is longer than MAX_Q, the longest of that
tree, and no path goes below MAX_LEVEL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .cf import Period, _mat_mul, conjunction, period_matrix

__all__ = [
    "FareyFraction",
    "TreeNode",
    "TreeError",
    "vieta_children",
    "joins_neighbours",
    "farey_median",
    "build_tree",
    "node_at",
    "walk_path",
    "find_fraction",
    "TIP_LEFT",
    "TIP_RIGHT",
    "ROOT",
]


#: The deepest tree build_tree builds, and the deepest level find_fraction
#: searches and walk_path walks to.
MAX_DEPTH = 18
MAX_LEVEL = 200
#: The longest word of build_tree(MAX_DEPTH), at the zigzag path RLRL...R:
#: the Fibonacci number F(MAX_DEPTH + 3).  No node's word is longer.
MAX_Q = 10_946


class TreeError(ValueError):
    """Raised for invalid fractions or paths, or a node failing its checks."""


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


def vieta_children(t: tuple[int, int, int]) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Left child (c, b, 3bc - a) and right child (a, c, 3ac - b)."""
    a, b, c = t
    return (c, b, 3 * b * c - a), (a, c, 3 * a * c - b)


def farey_median(x: FareyFraction, y: FareyFraction) -> FareyFraction:
    """Mediant of two Farey neighbours; rejects non-neighbours."""
    p, q = x.p + y.p, x.q + y.q
    if math.gcd(p, q) != 1:
        raise TreeError(f"mediant of {x} and {y} is reducible: not neighbours")
    return FareyFraction(p, q)


@dataclass(frozen=True)
class TreeNode:
    """One vertex of the tree with all its attached arithmetic data.

    ``matrix`` is the period matrix M of the word; c, k, the form and
    the triple are read off it.  ``left`` and ``right`` are the
    endpoints of the node's Farey interval: the two predecessors whose
    fractions it is the mediant of (``None`` at the tips).  They take no
    part in equality, hashing or repr, so none of those walks up the
    tree.
    """

    path: str
    level: int
    farey: FareyFraction
    period: Period
    matrix: tuple[tuple[int, int], tuple[int, int]]
    left: TreeNode | None = field(compare=False, repr=False)
    right: TreeNode | None = field(compare=False, repr=False)

    @property
    def c(self) -> int:
        return -self.matrix[0][1]

    @property
    def k(self) -> int:
        """The 0 <= k < c with c | k^2 + 1 that the word gives."""
        return -self.matrix[1][1]

    @property
    def form(self) -> tuple[int, int, int]:
        """The quadratic form (c, 3c - 2k, l - 3k), l = (k^2 + 1)/c, of
        discriminant 9c^2 - 4."""
        c, k = self.c, self.k
        ell = self.matrix[1][0] - 3 * k
        return (c, 3 * c - 2 * k, ell - 3 * k)

    @property
    def triple(self) -> tuple[int, int, int]:
        """(right.c, left.c, c): the Markov numbers of the node's Farey
        neighbours and its own; (1, 1, c) at the tips."""
        if self.left is None:
            return (1, 1, self.c)
        return (self.right.c, self.left.c, self.c)

    @property
    def q(self) -> int:
        return self.farey.q

    def __str__(self) -> str:
        label = self.path or ("root" if self.level == 1 else "tip")
        return f"<node {label} {self.farey}>"


def _make_node(path: str, level: int, farey: FareyFraction, period: Period,
               matrix: tuple[tuple[int, int], tuple[int, int]],
               left: TreeNode | None, right: TreeNode | None) -> TreeNode:
    (m00, m01), (_, m11) = matrix
    if m00 + m11 != -3 * m01:
        raise TreeError(f"period matrix of {path!r} has trace {m00 + m11}, "
                        f"not 3c = {-3 * m01}")
    if len(period) != farey.q:
        raise TreeError(
            f"period length {len(period)} != Farey denominator {farey.q} at {path!r}"
        )
    return TreeNode(path=path, level=level, farey=farey, period=period, matrix=matrix,
                    left=left, right=right)


def _from_word(path: str, level: int, farey: FareyFraction, digits: tuple[int, ...],
               left: TreeNode | None = None, right: TreeNode | None = None) -> TreeNode:
    """A node whose word is not its neighbours' words joined: M from the word."""
    period = Period(digits)
    return _make_node(path, level, farey, period, period_matrix(period), left, right)


TIP_LEFT = _from_word("0/1", 0, FareyFraction(0, 1), (3,))
TIP_RIGHT = _from_word("1/2", 0, FareyFraction(1, 2), (2, 4))
ROOT = _from_word("", 1, FareyFraction(1, 3), (2, 3, 4), TIP_LEFT, TIP_RIGHT)


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
    path, level = node.path + step, node.level + 1
    farey = farey_median(left.farey, right.farey)
    if farey.q > MAX_Q:
        raise TreeError(f"node {farey} (path {path!r}): its word of {farey.q} "
                        f"digits exceeds {MAX_Q}, the longest in build_tree({MAX_DEPTH})")
    if not joins_neighbours(left):
        return _from_word(path, level, farey, (2,) + (3,) * level + (4,), left, right)
    return _make_node(path, level, farey, conjunction(right.period, left.period),
                      _mat_mul(right.matrix, left.matrix), left, right)


def walk_path(path: str) -> Iterator[TreeNode]:
    """Yield the nodes from the root down along ``path``, which may
    reach at most level MAX_LEVEL."""
    if any(s not in "LR" for s in path):
        raise TreeError(f"path must be a word over L/R: {path!r}")
    if len(path) >= MAX_LEVEL:
        raise TreeError(f"a path of {len(path)} steps reaches level {len(path) + 1}, "
                        f"below the deepest level {MAX_LEVEL}")
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
