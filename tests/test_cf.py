import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, strategies as st

from markov_oracles import (
    checked_word,
    cycle_length,
    eval_periodic,
    least_rotation,
    parse_period,
    period_matrix,
    periodic_value,
)
from markovj import cf, tree
from markovj.cf import (
    CONJ_MAX,
    CONJ_MIN,
    STATE_MAX,
    STATE_MIN,
    PeriodError,
    cycle_states,
    format_period,
)
from markovj.tree import TreeError, build_tree, node_at

# All-2 words are parabolic (value 1, not > 1) and outside the domain.
digit_words = st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=12).filter(
    lambda w: any(d > 2 for d in w)
).map(bytes)


@st.composite
def admissible_words(draw):
    """The domain of the cycle states: no 2 next to a 2, read cyclically.
    Blocks 3, 4, 2 3 and 2 4, joined and rotated, make every such word."""
    blocks = st.sampled_from([b"\3", b"\4", b"\2\3", b"\2\4"])
    word = b"".join(draw(st.lists(blocks, min_size=1, max_size=20)))
    k = draw(st.integers(min_value=0, max_value=len(word) - 1))
    return word[k:] + word[:k]


#: The exact oracle's own error: its floored sqrt(D) 2^64 moves a state
#: by < 2^-64, and the division rounds by half an ulp, <= 2^-52 below 4.
ORACLE_TOL = cf.STATE_ERROR + 2.0 ** -52 + 2.0 ** -64


class TestPeriod:
    """The word oracles: the digit check and rotation equality."""

    def test_rotation_equality(self):
        assert least_rotation(b"\2\3\4") == least_rotation(b"\4\2\3")
        assert least_rotation(b"\2\3\4") != least_rotation(b"\2\4\3")
        assert least_rotation(b"\2\3\4") == least_rotation(b"\3\4\2")

    def test_keeps_construction_rotation(self):
        assert checked_word((4, 2, 3)) == b"\4\2\3"

    def test_rejects_bad_digits(self):
        with pytest.raises(PeriodError):
            checked_word((2, 5))
        with pytest.raises(PeriodError):
            checked_word(())

    @pytest.mark.parametrize("digits", [(2, 300), (2, -1), (2, "2"), (2, 2.5), (), 3, "234"])
    def test_bad_input_is_a_period_error(self, digits):
        # Not a bare TypeError or ValueError from the byte conversion;
        # an int is refused, not read as a length.
        with pytest.raises(PeriodError):
            checked_word(digits)

    def test_parse_rejects_out_of_byte_digit(self):
        with pytest.raises(PeriodError):
            parse_period("2,300")

    @pytest.mark.parametrize("dtype", [np.int64, np.int16, np.uint8])
    def test_numpy_array_is_its_digits(self, dtype):
        # Never taken as its raw buffer, which would be another word.
        assert checked_word(np.array([2, 3, 4], dtype=dtype)) == b"\2\3\4"

    def test_word_is_bytes(self):
        p = checked_word((2, 3, 4))
        assert p == b"\2\3\4"
        assert checked_word(p) is p
        assert p[::-1] == b"\4\3\2"

    def test_cycle_length(self):
        assert cycle_length(checked_word((2, 3, 4))) == 6
        assert cycle_length(checked_word((3,))) == 2

    def test_reversed(self):
        assert tuple(checked_word((2, 3, 4))[::-1]) == (4, 3, 2)


class TestSerialization:
    def test_run_length(self):
        assert format_period(b"\2\3\3\4") == "2,3_2,4"
        assert tuple(parse_period("2,3_2,4")) == (2, 3, 3, 4)
        assert tuple(parse_period("(2,3,4)")) == (2, 3, 4)

    def test_rejects_garbage(self):
        with pytest.raises(PeriodError):
            parse_period("2,x,4")

    @given(digit_words)
    def test_round_trip(self, word):
        assert parse_period(format_period(word)) == word
        assert parse_period(",".join(map(str, word))) == word


class TestTreeWords:
    def test_root_and_tips(self):
        assert tuple(node_at("").period) == (2, 3, 4)

    def test_children_of_root(self):
        assert tuple(node_at("L").period) == (2, 3, 3, 4)
        assert tuple(node_at("R").period) == (2, 4, 2, 3, 4)

    def test_level_three(self):
        assert tuple(node_at("LL").period) == (2, 3, 3, 3, 4)
        assert tuple(node_at("LR").period) == (2, 3, 4, 2, 3, 3, 4)
        assert tuple(node_at("RL").period) == (2, 4, 2, 3, 4, 2, 3, 4)
        assert tuple(node_at("RR").period) == (2, 4, 2, 4, 2, 3, 4)

    def test_leftmost_rule(self):
        assert tuple(node_at("L" * 7).period) == (2,) + (3,) * 8 + (4,)

    def test_bad_path(self):
        with pytest.raises(TreeError):
            node_at("LX")


class TestEval:
    def test_golden_values(self):
        assert eval_periodic(b"\3") == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)
        assert eval_periodic(b"\2\4") == pytest.approx(1 + math.sqrt(2) / 2, abs=1e-12)
        assert eval_periodic(b"\2\3\4") == pytest.approx(
            (21 + math.sqrt(221)) / 22, abs=1e-12
        )

    @given(digit_words)
    def test_fixed_point_of_own_map(self, digits):
        x = eval_periodic(digits)
        y = x
        for d in reversed(digits):
            y = d - 1.0 / y
        assert y == pytest.approx(x, abs=1e-9)

    def test_parabolic_word_is_refused(self):
        # All-2 words have the parabolic value 1, at which no sweep
        # contracts: refused before a digit is read, the word named as
        # text.
        with pytest.raises(PeriodError):
            eval_periodic(b"\2\2")
        for refuse in (cf._rotation_values, cycle_states):
            word = _CountingWord(b"\2\2")
            with pytest.raises(PeriodError, match="parabolic word 2_2:"):
                refuse(word)
            assert word.reads == 0

    @pytest.mark.parametrize("digits, text", [
        (b"\3\2\2\4", "word 3,2_2,4 is not admissible: a 2 is next to a 2"),
        (b"\2\3\4\2", "word 2,3,4,2 is not admissible: a 2 is next to a 2"),
        (bytes([2, 2, 2, 3, 2, 2, 3, 2, 2, 2, 2]),
         "word 2_3,3,2_2,3,2_4 is not admissible: a 2 is next to a 2"),
        (b"\3\5\4", "word [3, 5, 4] is not a nonempty word over 2, 3, 4"),
        (b"\2\2\2", "parabolic word 2_3: every rotation value is 1"),
        (b"", "word [] is not a nonempty word over 2, 3, 4"),
    ], ids=["2-2-inside", "2-at-both-ends", "runs-of-2", "digit-5", "all-2", "empty"])
    def test_word_that_is_not_admissible_is_refused(self, digits, text):
        # One line naming the word, before any digit is read.
        for refuse in (cf._rotation_values, cycle_states):
            word = _CountingWord(digits)
            with pytest.raises(PeriodError) as info:
                refuse(word)
            assert str(info.value) == text
            assert word.reads == 0

    def test_tree_words_are_admissible(self):
        # Every word and reversal to depth 14 (32 770 words): digits 2, 3
        # and 4, and no 2 next to a 2, read cyclically.  In each word a
        # 2 has a 4 before it (never a 3).
        nodes = build_tree(14)
        assert len(nodes) == 16385
        for node in nodes:
            assert b"\3\2" not in node.period * 2
            for word in (node.period, node.period[::-1]):
                assert not word.translate(None, b"\2\3\4") and b"\2\2" not in word * 2

    def test_proved_minima(self):
        # Every rotation value to depth 12 lies in the box of
        # _rotation_values' proof: above 3/2 at a 2, above 2 at a 3 or 4,
        # and below 4.
        for node in build_tree(12):
            for word in (node.period, node.period[::-1]):
                values = np.array(cf._rotation_values(word))
                digits = np.frombuffer(word, np.uint8)
                assert values[digits == 2].min(initial=2.0) > 1.5, node.path
                assert values[digits > 2].min() > 2.0, node.path
                assert values.max() < 4.0, node.path

    def test_one_sweep_per_word(self):
        # A warm-up of 53 steps, then one sweep of the q
        # positions: whole sweeps until T_0 settled read the level-12
        # zigzag word 1 220 times.
        period = node_at("RLRLRLRLRLR").period
        for digits in (period, b"\3"):
            word = _CountingWord(digits)
            cf._rotation_values(word)
            assert word.reads <= len(digits) + 64

    def test_rotation_values_reach_rounding(self):
        # Every rotation value of every word to depth 8 and of its
        # reversal within 2 ulps (4.5e-16 relative) of its 40-digit
        # value; a stop at a step below 1e-14 left 9.0e-16 at
        # 2,3_2,4,2,3_2,4,2,3_2,4,2,3_3,4.
        for node in build_tree(8):
            for digits in (node.period, node.period[::-1]):
                got = cf._rotation_values(digits)
                for k in range(len(digits)):
                    exact = periodic_value(digits[k:] + digits[:k], 40)
                    assert abs(Decimal(got[k]) - exact) <= Decimal("4.5e-16") * exact


class _CountingWord(bytes):
    """A word that counts the reads of its digits by indexing."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


class TestMatrix:
    def test_traces(self):
        # trace = 3c for the words of Markov numbers 1, 2, 5.
        assert sum(period_matrix(b"\3")[i][i] for i in (0, 1)) == 3
        assert sum(period_matrix(b"\2\4")[i][i] for i in (0, 1)) == 6
        assert sum(period_matrix(b"\2\3\4")[i][i] for i in (0, 1)) == 15

    @given(digit_words)
    def test_unit_determinant(self, digits):
        (a, b), (c, d) = period_matrix(digits)
        assert a * d - b * c == 1

    @given(digit_words)
    def test_fixed_point_matches_eval(self, digits):
        (a, b), (c, d) = period_matrix(digits)
        w = ((a - d) + math.sqrt((a + d) ** 2 - 4)) / (2 * c)
        assert w == pytest.approx(eval_periodic(digits), abs=1e-9)


class TestCycleStates:
    def test_count_is_digit_sum_minus_length(self):
        for digits in [b"\3", b"\2\4", b"\2\3\4", b"\2\3\3\4"]:
            states = cycle_states(digits)
            assert len(states) == sum(d - 1 for d in digits)

    def test_tip_states_are_golden_section(self):
        states = cycle_states(b"\3")
        phi = (1 + math.sqrt(5)) / 2
        assert states.values[0] == pytest.approx(phi, abs=1e-12)
        assert states.values[1] == pytest.approx(phi - 1, abs=1e-12)

    def test_boxes_over_tree_words(self):
        # The value and conjugate boxes hold for tree periods (not for
        # arbitrary digit words).
        for node in build_tree(6):
            states = cycle_states(node.period)
            for value, conj in zip(states.values, states.conj_values):
                assert STATE_MIN - 1e-12 <= value <= STATE_MAX + 1e-12
                assert CONJ_MIN - 1e-12 <= conj <= CONJ_MAX + 1e-12

    def test_reversed_word_swaps_and_negates_states(self):
        # The orientation convention of the integrals module: the
        # reversed word's geodesic is the forward one run backwards, so
        # its values are the forward conjugates negated, and its
        # conjugates the forward values negated, in reverse order and
        # bit for bit.
        for node in build_tree(10):
            forward = cycle_states(node.period)
            backward = cycle_states(node.period[::-1])
            assert np.array_equal(backward.values, -forward.conj_values[::-1]), node.path
            assert np.array_equal(backward.conj_values, -forward.values[::-1]), node.path

    def test_exact_cross_check_long_period(self):
        # Length-28 cycle; a float walk drifts ~1e-6 here, the exact
        # walk must still confirm the proved states at ORACLE_TOL.
        _assert_oracle_agrees(node_at("L" * 11).period)

    def test_period_and_its_digits_give_identical_states(self):
        # The tree's word and the same digits rebuilt by the oracle.
        period = node_at("RLRLRLRLRLR").period
        assert len(period) == 610
        from_period = cycle_states(period)
        from_digits = cycle_states(checked_word(tuple(period)))
        # A uint8 cumsum of the digits would wrap and move the a0's.
        assert np.ceil(from_period.values).tolist() == _leading_integers(period)
        for field in ("values", "conj_values"):
            got, want = getattr(from_period, field), getattr(from_digits, field)
            assert got.tobytes() == want.tobytes()


def _leading_integers(digits):
    """The leading integer a0 of each state, in walk order: a_i - 1 down
    to 1 at each position i.  A state a0 - 1/t has t > 1, so a0 is the
    ceiling of its value."""
    return [a0 for last in digits for a0 in range(last - 1, 0, -1)]


def _reference_cycle_states(digits):
    """The quadratic-time enumeration: one eval_periodic per rotation."""
    states = []
    for i in range(len(digits)):
        tail = digits[i + 1 :] + digits[: i + 1]
        last = tail[-1]
        t = eval_periodic(tail)
        t_rev = eval_periodic(tail[-2::-1] + tail[-1:])
        for a0 in range(last - 1, 0, -1):
            states.append((a0, a0 - 1.0 / t, -((last - a0) - 1.0 / t_rev)))
    return states


def _loop_cycle_states(digits):
    """The per-state loop over the same sweeps (same arithmetic as the
    array version, so the results must be bit-identical)."""
    values = cf._rotation_values(digits)
    rev = cf._rotation_values(digits[::-1])
    states = []
    for i, last in enumerate(digits):
        t, t_rev = values[(i + 1) % len(digits)], rev[-i]
        for a0 in range(last - 1, 0, -1):
            states.append((a0, a0 - 1.0 / t, -((last - a0) - 1.0 / t_rev)))
    return states


def _assert_equals_loop(digits):
    states = cycle_states(digits)
    a0, values, conj = zip(*_loop_cycle_states(digits))
    assert list(a0) == _leading_integers(digits) == np.ceil(states.values).tolist()
    assert np.array_equal(states.values, values)
    assert np.array_equal(states.conj_values, conj)


def _rotations(digits):
    return [digits[i:] + digits[:i] for i in range(len(digits))]


def _exact_cycle(period: bytes, values: list[float], check_tol: float) -> float:
    """Check ``values`` against the simple-form cycle walk run exactly,
    and return their largest distance from it.

    The walk starts at w - 1, w the attracting fixed point of the
    period matrix, and applies z -> z-1 (z >= 1) or z -> z/(1-z).  Each
    z = (P + sqrt(D))/Q is kept as the integer pair (P, Q) with Q > 0
    and Q | D - P^2: the reduction cycle of a binary quadratic form of
    discriminant D (Zagier, Zetafunktionen und quadratische Koerper,
    1981).  The walk must close after exactly len(values) steps.
    """
    (a, _b), (c, d) = period_matrix(period)
    disc = (a + d) ** 2 - 4
    root = math.isqrt(disc << 128)  # floor(sqrt(D) * 2^64)
    # D = t^2 - 4 with trace t >= 3 is never a square, so z >= 1 iff
    # sqrt(D) > Q - P iff Q - P <= floor(sqrt(D)).
    floor_sqrt = root >> 64
    p, q = a - d - 2 * c, 2 * c
    start, worst = (p, q), 0.0
    for value in values:
        # int / int is correctly rounded at any size.
        exact = ((p << 64) + root) / (q << 64)
        worst = max(worst, abs(value - exact))
        if worst > check_tol:
            raise PeriodError(
                f"cycle state mismatch for {format_period(period)}: "
                f"{value} vs exact {exact}"
            )
        if q - p <= floor_sqrt:
            p -= q
        else:
            p = q - p
            q, rem = divmod(p * p - disc, q)
            if rem:
                raise PeriodError(f"inexact cycle step for {format_period(period)}")
            p -= q
    if (p, q) != start:
        raise PeriodError(
            f"cycle of {format_period(period)} did not close after {len(values)} steps"
        )
    return worst


def _assert_oracle_agrees(period) -> float:
    """The exact walk confirms the states of ``period`` and of its
    reversal at ORACLE_TOL; return their largest distance from it.  The
    conjugates of a word are its reversal's values, negated and in
    reverse order, so they are confirmed too."""
    worst = 0.0
    for p in (period, period[::-1]):
        states = cycle_states(p)
        worst = max(worst, _exact_cycle(p, states.values.tolist(), ORACLE_TOL),
                    _exact_cycle(p[::-1], (-states.conj_values[::-1]).tolist(), ORACLE_TOL))
    return worst


class TestExactOracle:
    def test_agrees_on_every_node_to_depth_nine(self):
        for node in build_tree(9):
            _assert_oracle_agrees(node.period)

    def test_largest_certified_bound(self):
        # The worst distance from the exact cycle, oracle rounding and
        # all, on every node to depth 9, at L^11 and at q = 1597 lies
        # within the proved bound.
        nodes = build_tree(9) + [node_at("L" * 11), node_at("RLRLRLRLRLRLR")]
        worst = max(_assert_oracle_agrees(node.period) for node in nodes)
        assert 0.0 < worst <= cf.STATE_ERROR


block_words = st.builds(
    lambda block, k: bytes(block * k),
    st.sampled_from([(2, 3), (2, 4, 2, 3, 4), (3,), (2, 3, 3, 4)]),
    st.integers(min_value=1, max_value=8),
)


class TestOneSweepStates:
    @given(admissible_words())
    def test_matches_per_rotation_reference(self, digits):
        states = cycle_states(digits)
        reference = _reference_cycle_states(digits)
        assert len(states) == len(reference)
        assert [a0 for a0, _, _ in reference] == _leading_integers(digits)
        assert np.ceil(states.values).tolist() == _leading_integers(digits)
        for value, conj, (_, ref_value, ref_conj) in zip(
                states.values, states.conj_values, reference):
            assert abs(value - ref_value) <= 2e-15
            assert abs(conj - ref_conj) <= 2e-15

    @given(st.one_of(admissible_words(), block_words))
    def test_arrays_equal_per_state_loop(self, digits):
        _assert_equals_loop(digits)

    def test_arrays_equal_per_state_loop_on_tree_words(self):
        for node in build_tree(7):
            _assert_equals_loop(node.period[::-1])

    def test_makes_no_eval_periodic_call(self, monkeypatch):
        # cf keeps no per-rotation evaluation: cycle_states makes its two
        # sweeps, of the word and of its reversal, and nothing else.
        assert not hasattr(cf, "eval_periodic")
        sweep, sweeps = cf._rotation_values, []
        monkeypatch.setattr(cf, "_rotation_values",
                            lambda digits: sweeps.append(digits) or sweep(digits))
        period = node_at("RL").period[::-1]
        cycle_states(period)
        assert sweeps == [period, period[::-1]]

    def test_deep_node_exact_check(self):
        # Level 14, q = 1597, c has 621 digits: far beyond float range,
        # so the exact walk must never convert c to a float.
        node = node_at("RLRLRLRLRLRLR")
        assert (node.level, node.q, len(str(node.c))) == (14, 1597, 621)
        _assert_oracle_agrees(node.period)
        assert len(cycle_states(node.period)) == cycle_length(node.period)

    def test_needs_no_period_matrix(self):
        # No big-integer matrix at runtime, even at q = 1597: neither cf
        # nor tree has one (the oracle's is in the tests), and c is the
        # node's only integer of c's size.
        assert not hasattr(cf, "period_matrix") and not hasattr(tree, "_mat_mul")
        node = node_at("RLRLRLRLRLRLR")
        assert list(type(node).__slots__) == \
            ["path", "level", "p", "q", "c", "left", "right"]
        cycle_states(node.period[::-1])


class TestExactCheckFires:
    def test_walk_that_does_not_close(self, monkeypatch):
        # The matrix of (3, 3, 2) starts a walk of length 5; six steps
        # of it cannot return to the start.
        other = period_matrix(b"\3\3\2")
        monkeypatch.setitem(globals(), "period_matrix", lambda digits: other)
        values = cycle_states(b"\2\3\4").values.tolist()
        with pytest.raises(PeriodError, match="did not close") as info:
            _exact_cycle(b"\2\3\4", values, math.inf)
        assert "cycle of 2,3,4 did not close" in str(info.value)


class TestCanonical:
    """The oracle least_rotation (Booth's algorithm)."""

    @given(st.one_of(digit_words, block_words))
    def test_least_rotation(self, digits):
        assert least_rotation(digits) == min(_rotations(digits))

    @given(st.one_of(digit_words, block_words), st.integers(min_value=0))
    def test_rotation_invariance(self, digits, shift):
        k = shift % len(digits)
        assert least_rotation(digits) == least_rotation(digits[k:] + digits[:k])

    def test_lazy(self):
        # A word carries no rotation state: its least rotation is
        # computed when asked for.
        assert least_rotation(b"\2\4\2\3\4") == b"\2\3\4\2\4"

    def test_tree_does_not_canonicalise(self):
        # The tree keeps each word in the rotation it was built with.
        word = node_at("RLRLRLRL").period
        assert word[:3] == b"\2\4\2"
        assert least_rotation(word) != word
