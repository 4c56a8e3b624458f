"""The Markov triple tree, the parallel Farey tree, and per-node data.

Triples (a, b, c) solve a^2 + b^2 + c^2 = 3abc and grow by Vieta
involutions; Farey fractions grow by mediants of the interval
endpoints.  A node's fraction is two plain ints p and q, each the sum
of its neighbours'.  Farey neighbours have right.p left.q -
left.p right.q = 1, so every mediant is reduced and in [0, 1/2]; only
the fractions a caller passes to find_fraction are checked.  Nodes are
keyed by their tree path (a word over L/R) so that a failure of the
unicity conjecture could never corrupt lookups.
The two tips (1,1,1) <-> 0/1 and (1,1,2) <-> 1/2 are level-0 boundary
nodes.  build_tree lists the nodes in the order of p/q, which is the
in-order of the tree: 0/1 first and 1/2 last.

A node carries its Markov number c, Vieta's step over the ends of its
Farey interval and the end of its parent's that it drops:
c = 3 c_left c_right - c_dropped, exact at any size (Aigner, Markov's
Theorem and 100 Years of the Uniqueness Conjecture, 2013, ch. 3).
_child and denominator_sequence take every step by this rule.

Memory note: no node keeps its word (bytes, one per digit) or its
text.  A word is made from the node's p/q when read (cf.markov_word),
and period_texts joins the neighbours' texts, holding one per level and
one per tip, so build_tree holds neither and `markovj tree` makes only
the words of the tips and of the branch down from the left tip.  A
tree holds its nodes and their c's, whose digit count grows by about
phi per level (237 digits at depth 12): `markovj --depth 18 tree` lists
2^18 + 1 nodes in 7-11 s at 185 MB, and each level doubles them, so
build_tree refuses depths above MAX_DEPTH.
Along one path the word length q grows like the Fibonacci numbers, so
no node is built whose word would be longer than MAX_Q, the longest of
that tree, and no path goes below MAX_LEVEL.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from .cf import format_period, markov_word

__all__ = [
    "TreeNode",
    "TreeError",
    "joins_neighbours",
    "period_texts",
    "build_tree",
    "node_at",
    "walk_path",
    "find_fraction",
    "denominator_sequence",
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
    """Raised for invalid fractions, paths or depths, or a node whose
    word would be longer than MAX_Q."""


class TreeNode:
    """One vertex of the tree with all its attached arithmetic data.

    ``p``/``q`` is the node's Farey fraction and ``c`` its Markov number.
    ``left`` and ``right`` are the endpoints of the node's Farey
    interval: the two predecessors whose fractions it is the mediant of
    (``None`` at the tips).  Nodes are equal by path, level, p, q and c,
    not by the links, so no comparison walks up the tree; they have no
    hash.  The word, ``period``, is no field: cf.markov_word builds it
    from p/q when read, and no node keeps it.
    """

    __slots__ = ("path", "level", "p", "q", "c", "left", "right")

    def __init__(self, path: str, level: int, p: int, q: int, c: int,
                 left: TreeNode | None, right: TreeNode | None) -> None:
        self.path, self.level, self.p, self.q, self.c = path, level, p, q, c
        self.left, self.right = left, right

    def __eq__(self, other: object) -> bool:
        if type(other) is not TreeNode:
            return NotImplemented
        return ((self.path, self.level, self.p, self.q, self.c)
                == (other.path, other.level, other.p, other.q, other.c))

    @property
    def period(self) -> bytes:
        """The node's word, one byte per digit (cf.markov_word)."""
        return markov_word(self.p, self.q)


def joins_neighbours(left: TreeNode | None) -> bool:
    """Whether the node whose Farey interval starts at ``left`` has for
    word its neighbours' words joined, the right one first.  The tips
    (no left neighbour) and the branch down from the left tip, root
    included, do not: their words are 3 and 2 4 at the tips and
    2 3^level 4 on the branch."""
    return left is not None and left is not TIP_LEFT


TIP_LEFT = TreeNode("0/1", 0, 0, 1, 1, None, None)
TIP_RIGHT = TreeNode("1/2", 0, 1, 2, 2, None, None)
ROOT = TreeNode("", 1, 1, 3, 5, TIP_LEFT, TIP_RIGHT)


def period_texts(nodes: Iterable[TreeNode]) -> Iterator[str]:
    """The compact text (cf.format_period) of each node's word, in turn.

    A joined word's text is its neighbours' texts joined by a comma, so
    no word is joined: both neighbours lie above 0/1, so the right one's
    word ends with 4 and the left one's begins with 2 (cf.markov_word),
    and no run of digits crosses the seam.  One text is held per level
    and one per tip, reused only for the same node.  A node's neighbours
    are its ancestors or the tips, and in the order of p/q a node is a
    neighbour only within its subtree, whose nodes follow one another,
    so each text is made once; any other order gets the same texts.
    """
    held: dict[int | str, tuple[TreeNode, str]] = {}

    def text(node: TreeNode) -> str:
        slot = node.level or node.path  # the tips are both level 0
        kept = held.get(slot)
        if kept is None or kept[0] is not node:
            made = (f"{text(node.right)},{text(node.left)}"
                    if joins_neighbours(node.left) else format_period(node.period))
            kept = held[slot] = node, made
        return kept[1]

    return map(text, nodes)


def _child(node: TreeNode, step: str) -> TreeNode:
    """One step down the tree: the child's interval is the left or the
    right half of the node's, split at the node, and its fraction is
    the mediant of that interval's ends.  Its Markov number is Vieta's
    step over the same ends, dropping the node's other end."""
    if step == "L":
        left, right, dropped = node.left, node, node.right
    else:
        left, right, dropped = node, node.right, node.left
    path, level = node.path + step, node.level + 1
    p, q = left.p + right.p, left.q + right.q
    if q > MAX_Q:
        raise TreeError(f"node {p}/{q} (path {path!r}): its word of {q} "
                        f"digits exceeds {MAX_Q}, the longest in build_tree({MAX_DEPTH})")
    c = 3 * left.c * right.c - dropped.c
    return TreeNode(path, level, p, q, c, left, right)


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

    In the order of p/q: 0/1, then every node, then 1/2.  Each new
    level's nodes fall one between each two neighbours of the list so
    far.  Depths outside [1, MAX_DEPTH] raise TreeError.
    """
    if depth < 1:
        raise TreeError("depth must be >= 1")
    if depth > MAX_DEPTH:
        raise TreeError(f"depth {depth} exceeds {MAX_DEPTH}: listing the {2 ** MAX_DEPTH + 1} "
                        f"nodes of depth {MAX_DEPTH} takes 7-11 s and 185 MB")
    nodes = [TIP_LEFT, ROOT, TIP_RIGHT]
    frontier = [ROOT]
    for _ in range(2, depth + 1):
        frontier = [_child(node, step) for node in frontier for step in "LR"]
        merged = nodes + frontier
        merged[::2], merged[1::2] = nodes, frontier
        nodes = merged
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
    # Reduced, with q > 0: p/q is 0/1 or 1/2 exactly when 2p is 0 or q,
    # and p/q against a node's p'/q' is p q' against p' q.
    if p == 0:
        return TIP_LEFT
    if 2 * p == q:
        return TIP_RIGHT
    if not 0 < 2 * p < q:
        raise TreeError(
            f"{p}/{q} lies outside (0, 1/2); nearest valid nodes are 0/1 and 1/2"
        )
    node = ROOT
    while node.level <= MAX_LEVEL:
        cross = p * node.q - node.p * q
        if cross == 0:
            return node
        node = _child(node, "L" if cross < 0 else "R")
    raise TreeError(
        f"{p}/{q} not found within {MAX_LEVEL} levels; "
        f"nearest nodes are {node.left.p}/{node.left.q} and {node.right.p}/{node.right.q}"
    )


def denominator_sequence(qmax: int) -> list[tuple[int, int]]:
    """All Farey denominators q <= qmax with their Markov numbers,
    sorted as the published sequence (by q, ties by Markov number).

    Walks the infinite tree down from the root with pruning: q strictly
    increases down every branch, so the search below qmax is finite,
    and a child is built only if its q is within qmax.  A node is the
    (q, c) of its interval's ends and its own, in plain tuples, not
    TreeNodes with paths and links, and takes _child's step.  The walk
    keeps its own stack, as a branch can be qmax levels deep, and one
    list of Markov numbers per q, so only those of equal q are sorted.
    """
    by_q: list[list[int]] = [[] for _ in range(max(qmax + 1, 0))]
    ends = (TIP_LEFT.q, TIP_LEFT.c), (TIP_RIGHT.q, TIP_RIGHT.c)
    for q, c in ends:
        if q <= qmax:
            by_q[q].append(c)
    stack = [(*ends, ROOT.q, ROOT.c)] if ROOT.q <= qmax else []
    while stack:
        left, right, q, c = stack.pop()
        by_q[q].append(c)
        (q_left, c_left), (q_right, c_right) = left, right
        if q + q_left <= qmax:
            stack.append((left, (q, c), q + q_left, 3 * c_left * c - c_right))
        if q + q_right <= qmax:
            stack.append(((q, c), right, q + q_right, 3 * c * c_right - c_left))
    return [(q, c) for q, cs in enumerate(by_q) for c in sorted(cs)]
