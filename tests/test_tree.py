import math
from fractions import Fraction

import pytest

from markovj.tree import (
    MAX_DEPTH,
    ROOT,
    TIP_LEFT,
    TIP_RIGHT,
    FareyFraction,
    MarkovTriple,
    TreeError,
    build_tree,
    farey_median,
    find_fraction,
    markov_constant,
    markov_form,
    markov_irrational,
    markov_k,
    node_at,
    vieta_children,
)


class TestTriples:
    def test_equation_enforced(self):
        with pytest.raises(TreeError):
            MarkovTriple(2, 3, 5)
        with pytest.raises(TreeError):
            MarkovTriple(0, 1, 1)

    def test_children_of_root(self):
        left, right = vieta_children(MarkovTriple(2, 1, 5))
        assert tuple(left) == (5, 1, 13)
        assert tuple(right) == (2, 5, 29)

    def test_tree_children_are_vieta_children(self):
        for node in build_tree(8):
            if node.level > 1:
                parent = node_at(node.path[:-1])
                kept = vieta_children(parent.triple)["LR".index(node.path[-1])]
                assert node.triple == kept, node.path

    def test_markov_numbers_to_depth_three(self):
        got = sorted(n.c for n in build_tree(3))
        assert got == [1, 2, 5, 13, 29, 34, 169, 194, 433]


class TestFarey:
    def test_validation(self):
        with pytest.raises(TreeError):
            FareyFraction(2, 4)
        with pytest.raises(TreeError):
            FareyFraction(3, 5)

    def test_median(self):
        assert farey_median(FareyFraction(1, 3), FareyFraction(1, 2)) == FareyFraction(2, 5)
        with pytest.raises(TreeError):
            farey_median(FareyFraction(1, 4), FareyFraction(1, 2))

    def test_depth_three_fractions(self):
        got = {str(n.farey) for n in build_tree(3)}
        assert got == {"0/1", "1/2", "1/3", "1/4", "2/5", "1/5", "2/7", "3/8", "3/7"}


class TestFormData:
    def test_root_k_and_form(self):
        assert markov_k(MarkovTriple(2, 1, 5)) == 3
        assert markov_form(5, 3) == (5, 9, -7)

    def test_tip_k(self):
        assert markov_k(MarkovTriple(1, 1, 1)) == 0
        assert markov_k(MarkovTriple(1, 1, 2)) == 1

    def test_form_discriminant(self):
        for node in build_tree(6):
            a, b, c = node.form
            assert b * b - 4 * a * c == 9 * node.c**2 - 4
            assert (node.k**2 + 1) % node.c == 0

    def test_irrational(self):
        assert markov_irrational(5, 3) == pytest.approx(
            (9 + math.sqrt(221)) / 10, rel=1e-14
        )
        with pytest.raises(TreeError):
            markov_irrational(5, 7)

    def test_constant(self):
        assert markov_constant(1) == pytest.approx(math.sqrt(5), rel=1e-15)
        assert markov_constant(5) == pytest.approx(math.sqrt(9 - 4 / 25), rel=1e-15)


class TestStructure:
    def test_period_length_and_digit_sum(self):
        for node in build_tree(7):
            assert len(node.period) == node.q
            assert node.period.digit_sum == 3 * node.q

    def test_trace_is_three_c(self):
        from markovj.cf import period_matrix

        for node in build_tree(7):
            (a, _), (_, d) = period_matrix(node.period)
            assert a + d == 3 * node.c

    def test_node_count(self):
        assert len(build_tree(9)) == 2 + (2**9 - 1)

    def test_depth_bounds(self):
        # Refused before any node is built: the words of depth 19 alone
        # would take 1.7 GB.
        assert MAX_DEPTH == 18
        for depth in (0, MAX_DEPTH + 1, 10**9):
            with pytest.raises(TreeError, match="depth"):
                build_tree(depth)

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
        assert node.farey.as_fraction() == Fraction(74, 159)

    def test_not_reduced(self):
        with pytest.raises(TreeError, match="not reduced"):
            find_fraction(2, 4)

    def test_outside_range(self):
        with pytest.raises(TreeError, match="outside"):
            find_fraction(3, 5)

    def test_depth_budget(self):
        with pytest.raises(TreeError, match="nearest nodes are 0/1 and 1/202$"):
            find_fraction(1, 1000)
