import math
import random
import sys
import tracemalloc
from types import SimpleNamespace
from typing import Iterator

import pytest

from markov_oracles import (
    MarkovTriple,
    checked_word,
    digit_sum,
    farey_mismatches,
    joined_word,
    markov_constant,
    markov_form,
    markov_irrational,
    markov_k,
    node_form,
    node_k,
    node_triple,
    period_matrix,
    vieta_step,
    vieta_triple,
)
from markovj import tree
from markovj.cf import markov_word
from markovj.tree import (
    MAX_DEPTH,
    MAX_LEVEL,
    MAX_Q,
    ROOT,
    TIP_LEFT,
    TIP_RIGHT,
    TreeError,
    TreeNode,
    build_tree,
    find_fraction,
    joins_neighbours,
    node_at,
    period_texts,
)


def replaced(node: TreeNode, **changes) -> TreeNode:
    """A copy of ``node`` with ``changes`` made, built by the constructor."""
    return TreeNode(*(changes.get(name, getattr(node, name)) for name in TreeNode.__slots__))


class TestTriples:
    def test_equation_enforced(self):
        with pytest.raises(TreeError):
            MarkovTriple(2, 3, 5)
        with pytest.raises(TreeError):
            MarkovTriple(0, 1, 1)

    def test_children_of_root(self):
        left, right = (vieta_step(MarkovTriple(2, 1, 5), step) for step in "LR")
        assert tuple(left) == (5, 1, 13)
        assert tuple(right) == (2, 5, 29)
        # The tree's step computes one child alone, from its interval's ends.
        assert node_triple(tree._child(ROOT, "L")) == (5, 1, 13)
        assert node_triple(tree._child(ROOT, "R")) == (2, 5, 29)

    def test_tree_children_are_vieta_children(self):
        # The interval-ends rule, c = 3 c_left c_right - c_dropped, gives
        # the triple rule's child at every node.
        for node in build_tree(8):
            if node.level > 1:
                parent = node_at(node.path[:-1])
                kept = vieta_step(MarkovTriple(*node_triple(parent)), node.path[-1])
                assert node_triple(node) == tuple(kept), node.path

    def test_markov_numbers_to_depth_three(self):
        got = sorted(n.c for n in build_tree(3))
        assert got == [1, 2, 5, 13, 29, 34, 169, 194, 433]


class TestFarey:
    def test_validation(self):
        # Every fraction of the tree is reduced and lies in [0, 1/2].
        for node in build_tree(12):
            assert math.gcd(node.p, node.q) == 1 and 0 <= 2 * node.p <= node.q, node.path

    def test_median(self):
        # Each node's neighbours are Farey neighbours in increasing order,
        # and its fraction is their mediant.
        for node in build_tree(12)[1:-1]:
            assert farey_mismatches(node) == [], node.path

    @pytest.mark.parametrize("x, y", [((1, 5), (1, 2)), ((1, 2), (1, 3)), ((1, 4), (1, 2))],
                             ids=["reduced_mediant", "reversed", "reducible_mediant"])
    def test_median_of_non_neighbours_refused(self, x, y):
        # 1/5 and 1/2 have the reduced mediant 2/7, but 1*5 - 1*2 = 3.
        left, right = SimpleNamespace(p=x[0], q=x[1]), SimpleNamespace(p=y[0], q=y[1])
        node = SimpleNamespace(p=x[0] + y[0], q=x[1] + y[1], left=left, right=right)
        assert farey_mismatches(node) == ["neighbours"]

    def test_depth_three_fractions(self):
        got = {f"{n.p}/{n.q}" for n in build_tree(3)}
        assert got == {"0/1", "1/2", "1/3", "1/4", "2/5", "1/5", "2/7", "3/8", "3/7"}

    def test_mutated_fraction_fails_the_oracle(self):
        node = node_at("RL")
        assert farey_mismatches(replaced(node, p=node.p + 1)) == ["mediant"]


class TestFormData:
    def test_root_k_and_form(self):
        assert markov_k(MarkovTriple(2, 1, 5)) == 3
        assert markov_form(5, 3) == (5, 9, -7)

    def test_tip_k(self):
        assert markov_k(MarkovTriple(1, 1, 1)) == 0
        assert markov_k(MarkovTriple(1, 1, 2)) == 1

    def test_form_discriminant(self):
        for node in build_tree(6):
            a, b, c = node_form(node)
            assert b * b - 4 * a * c == 9 * node.c**2 - 4
            assert (node_k(node)**2 + 1) % node.c == 0

    def test_irrational(self):
        assert markov_irrational(5, 3) == pytest.approx(
            (9 + math.sqrt(221)) / 10, rel=1e-14
        )
        with pytest.raises(TreeError):
            markov_irrational(5, 7)

    def test_constant(self):
        assert markov_constant(1) == pytest.approx(math.sqrt(5), rel=1e-15)
        assert markov_constant(5) == pytest.approx(math.sqrt(9 - 4 / 25), rel=1e-15)


def oracle_mismatches(node) -> list[str]:
    """The data of ``node`` that differ from the oracles: its triple
    by Vieta involutions from the root (the Markov equation checked on
    the way), k by a modular inverse, the form from (c, k), and Cohn's
    identity trace M = 3c for the matrix M of the node's word."""
    if node.level:
        triple = vieta_triple(node.path)
    else:
        triple = MarkovTriple(1, 1, node.c)
    k = markov_k(triple)
    (m00, _), (_, m11) = period_matrix(node.period)
    want = {"triple": tuple(triple), "c": triple.c, "k": k,
            "form": markov_form(triple.c, k), "trace": 3 * node.c}
    got = {"triple": node_triple(node), "c": node.c, "k": node_k(node),
           "form": node_form(node), "trace": m00 + m11}
    return [name for name, value in want.items() if got[name] != value]


class TestCohnMatrix:
    def test_every_node_to_depth_twelve_matches_the_oracles(self):
        nodes = build_tree(12)
        assert len(nodes) == 4097
        for node in nodes:
            assert oracle_mismatches(node) == [], node.path

    def test_seeded_samples_at_depth_fourteen_match_the_oracles(self):
        rng = random.Random(14)
        for _ in range(40):
            node = node_at("".join(rng.choice("LR") for _ in range(13)))
            assert node.level == 14
            assert oracle_mismatches(node) == [], node.path

    def test_one_digit_change_in_a_joined_word_fails_the_trace(self):
        checked = 0
        for node in build_tree(6):
            if not joins_neighbours(node.left):
                continue
            word = node.period
            for i, digit in enumerate(word):
                for other in {2, 3, 4} - {digit}:
                    changed_word = word[:i] + bytes([other]) + word[i + 1:]
                    (a, _), (_, d) = period_matrix(changed_word)
                    assert a + d != 3 * node.c, (node.path, i, other)
                    checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("mutation", ["plus_one", "other_root", "neighbour"])
    def test_mutated_c_fails_the_oracle(self, mutation):
        # The other root of the Markov equation, 3ab - c, and a
        # neighbour's c are Markov numbers, so only the path can tell.
        for node in build_tree(5)[1:-1]:
            a, b, c = node_triple(node)
            wrong = {"plus_one": c + 1, "other_root": 3 * a * b - c, "neighbour": b}[mutation]
            assert oracle_mismatches(replaced(node, c=wrong)), node.path

    def test_deep_markov_numbers_are_vieta_steps(self, monkeypatch):
        # One Vieta step per level, through tree._child, matches the
        # triple walked from the root, at seeded paths of levels 50-200.
        # Each step computes the one child it takes.
        calls = []
        child = tree._child

        def counting(node, step):
            calls.append(node)
            assert step in ("L", "R")
            return child(node, step)

        monkeypatch.setattr(tree, "_child", counting)
        for path in deep_paths():
            calls.clear()
            node = node_at(path)
            assert len(calls) == len(path), path
            assert node_triple(node) == tuple(vieta_triple(path)), path


def deep_paths() -> list[str]:
    """Three seeded paths to each of levels 50, 100, 150 and MAX_LEVEL.
    Random ends around one long run keep q below MAX_Q (at most 4 687
    here, with c of up to 1 824 digits)."""
    rng = random.Random(50)
    paths = []
    for level in (50, 100, 150, MAX_LEVEL):
        for _ in range(3):
            head, tail = ("".join(rng.choice("LR") for _ in range(3)) for _ in range(2))
            paths.append(head + rng.choice("LR") * (level - 7) + tail)
    return paths


def seeded_nodes(count: int = 200) -> Iterator[TreeNode]:
    """The nodes of ``count`` seeded reduced fractions p/q in (0, 1/2),
    q < 2000, that find_fraction finds above MAX_LEVEL."""
    rng, found = random.Random(36), 0
    while found < count:
        q = rng.randrange(3, 2000)
        p = rng.randrange(1, (q + 1) // 2)
        if math.gcd(p, q) != 1:
            continue
        try:
            node = find_fraction(p, q)
        except TreeError:  # below MAX_LEVEL
            continue
        yield node
        found += 1


class TestPeriodTexts:
    def test_draining_depth_fourteen_holds_a_text_per_level(self, monkeypatch):
        # Depth 14's texts total about 15 MB; the walk holds at most one
        # per level and one per tip, and makes each text once.
        nodes = build_tree(14)
        formatted = []
        format_period = tree.format_period

        def counting(word):
            formatted.append(None)
            return format_period(word)

        monkeypatch.setattr(tree, "format_period", counting)
        tracemalloc.start()
        try:
            count = sum(1 for _ in period_texts(nodes))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == len(nodes)
        assert peak < 1e6
        # Every other text is a join: only the tips, the root and the
        # branch down from the left tip are formatted from their words.
        assert len(formatted) == sum(not joins_neighbours(node.left) for node in nodes) == 14 + 2


class TestHeldWords:
    def test_no_node_keeps_its_word(self):
        # Depth 13's words total 2 391 486 bytes; reading them all leaves
        # none held.
        nodes = build_tree(13)
        assert sum(node.q for node in nodes) == 2_391_486
        assert not hasattr(nodes[1], "__dict__")
        tracemalloc.start()
        try:
            for node in nodes:
                node.period
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 64 * 1024


class TestMarkovWord:
    """cf.markov_word against the join rule, joined_word."""

    def test_every_node_to_depth_fourteen(self):
        words = {}
        for node in build_tree(14):
            assert markov_word(node.p, node.q) == joined_word(node, words), node.path

    def test_seeded_fractions(self):
        words = {}
        for node in seeded_nodes():
            assert markov_word(node.p, node.q) == joined_word(node, words), (node.p, node.q)

    def test_deep_paths(self):
        words = {}
        for path in deep_paths() + ["R" * (MAX_LEVEL - 1), "L" * (MAX_LEVEL - 1)]:
            node = node_at(path)
            assert node.period == joined_word(node, words), path

    @pytest.mark.parametrize("p, q", [(3, 5), (1, 1), (-1, 3), (1, 0), (0, 0), (-1, -2)])
    def test_outside_zero_to_half_is_refused(self, p, q):
        # No mediant of the descent is ever p/q there, and its words grow.
        with pytest.raises(ValueError, match=rf"^{p}/{q} lies outside \[0, 1/2\]"):
            markov_word(p, q)

    @pytest.mark.parametrize("p, q", [(2, 6), (0, 2), (2, 4), (6, 15)])
    def test_unreduced_is_refused(self, p, q):
        # The descent would stop at the reduced form of p/q, whose word is
        # shorter than q digits: 1/3's 3 digits for 2/6, 0/1's one for 0/2.
        with pytest.raises(ValueError, match=rf"^{p}/{q} is not reduced"):
            markov_word(p, q)


class TestWordEnds:
    """Every word with p >= 1 begins with 2 and ends with 4, so a joined
    node's neighbours' texts meet at 4,2 and period_texts joins them by
    a comma."""

    @staticmethod
    def assert_ends(nodes):
        for node in nodes:
            if node.p:
                word = node.period
                assert (word[0], word[-1]) == (2, 4), (node.path, node.p, node.q)

    def test_every_node_to_depth_fourteen(self):
        self.assert_ends(build_tree(14))

    def test_deep_paths(self):
        self.assert_ends(map(node_at, deep_paths()))

    def test_seeded_fractions(self):
        self.assert_ends(seeded_nodes())


class TestStructure:
    def test_period_length_and_digit_sum(self):
        for node in build_tree(14):
            word = node.period
            assert len(word) == node.q
            assert digit_sum(word) == 3 * node.q

    def test_words_are_checked_bytes(self):
        # The tree's words are plain bytes, each one the oracle accepts.
        for node in build_tree(8):
            word = node.period
            assert type(word) is bytes
            assert checked_word(list(word)) == word, node.path

    def test_trace_is_three_c(self):
        for node in build_tree(7):
            (a, _), (_, d) = period_matrix(node.period)
            assert a + d == 3 * node.c

    def test_node_count(self):
        assert len(build_tree(9)) == 2 + (2**9 - 1)

    def test_nodes_are_equal_by_their_own_fields(self):
        # Equality reads path, level, p, q and c, never the links, so it
        # walks no ancestors; a node has no hash.
        node = node_at("RLR")
        assert replaced(node, left=None, right=None) == node == node_at("RLR")
        for name, value in [("path", "RLL"), ("level", 3), ("p", 0), ("q", 1), ("c", 1)]:
            assert replaced(node, **{name: value}) != node, name
        assert node != (node.path, node.level, node.p, node.q, node.c)
        with pytest.raises(TypeError, match="unhashable"):
            hash(node)

    def test_depth_bounds(self):
        # Refused before any node is built: depth 18 has 262 145 nodes,
        # and each level doubles them.
        assert MAX_DEPTH == 18
        for depth in (0, MAX_DEPTH + 1, 10**9):
            with pytest.raises(TreeError, match="depth"):
                build_tree(depth)

    def test_longest_word_is_on_the_zigzag(self):
        # The longest word of each level is at RLRL...: a Fibonacci number.
        fib = [1, 1]
        while len(fib) < MAX_DEPTH + 4:
            fib.append(fib[-1] + fib[-2])
        for depth in range(1, 12):
            longest = max(build_tree(depth), key=lambda node: node.q)
            assert longest.path == ("RL" * depth)[:depth - 1]
            assert longest.q == fib[depth + 2]
        assert MAX_Q == fib[MAX_DEPTH + 2]

    def test_longest_word_of_the_deepest_tree_is_built(self):
        node = node_at("RL" * 8 + "R")
        assert (node.level, node.q) == (MAX_DEPTH, MAX_Q)

    def test_longest_word_joins_up_to_max_q(self):
        node = node_at("RL" * 8 + "R")
        assert len(node.period) == MAX_Q

    def test_longer_word_refused_before_it_is_built(self, monkeypatch):
        words = []
        monkeypatch.setattr(tree, "markov_word", lambda p, q: words.append((p, q)))
        with pytest.raises(TreeError, match=r"^node \d+/17711 \(path 'RLRLRLRLRLRLRLRLRL'\): "
                                            r"its word of 17711 digits exceeds 10946"):
            node_at("RL" * 9)
        assert words == []

    def test_spine_word_builds_at_the_default_recursion_limit(self):
        # The word of R^n is 2 4 joined to the word of R^(n-1), and so is
        # its text, so the deepest node of the spine reads a chain of 199
        # texts on demand.
        node = node_at("R" * (MAX_LEVEL - 1))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            word = node.period
            text = next(period_texts([node]))
        finally:
            sys.setrecursionlimit(limit)
        assert (len(word), node.q) == (401, 401)
        assert word == b"\2\4" * 199 + b"\2\3\4"
        assert text == "2,4," * 199 + "2,3,4"

    def test_path_depth_budget(self):
        # Once walked 10 300 levels down the left branch for 212 s.
        assert MAX_LEVEL == 200
        assert node_at("L" * (MAX_LEVEL - 1)).level == MAX_LEVEL
        for steps in (MAX_LEVEL, 10_300):
            with pytest.raises(TreeError, match=f"^a path of {steps} steps reaches level "
                                                f"{steps + 1}, below the deepest level 200$"):
                node_at("L" * steps)

    def test_leftmost_denominators(self):
        for n in range(1, 10):
            assert node_at("L" * (n - 1)).q == n + 2


class TestLookup:
    def test_boundary_nodes(self):
        assert find_fraction(0, 1) is TIP_LEFT
        assert find_fraction(1, 2) is TIP_RIGHT
        assert find_fraction(1, 3) == ROOT

    def test_deep_fraction(self):
        node = find_fraction(74, 159)
        assert (node.p, node.q) == (74, 159)

    def test_not_reduced(self):
        with pytest.raises(TreeError, match="not reduced"):
            find_fraction(2, 4)

    def test_outside_range(self):
        with pytest.raises(TreeError, match="outside"):
            find_fraction(3, 5)

    def test_depth_budget(self):
        with pytest.raises(TreeError, match="nearest nodes are 0/1 and 1/202$"):
            find_fraction(1, 1000)
