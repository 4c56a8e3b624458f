import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from markovj import cf
from markovj.cf import (
    CONJ_MAX,
    CONJ_MIN,
    STATE_MAX,
    STATE_MIN,
    Period,
    PeriodError,
    conjunction,
    cycle_states,
    eval_periodic,
    format_period,
    join_texts,
    parse_period,
    period_matrix,
)
from markovj.tree import TreeError, node_at

# All-2 words are parabolic (value 1, not > 1) and outside the domain.
digit_words = st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=12).filter(
    lambda w: any(d > 2 for d in w)
)
# Words as runs of equal digits, so that long runs (counts of two digits
# in the compact text) and runs meeting at a seam are common.
run_words = st.lists(st.tuples(st.sampled_from([2, 3, 4]), st.integers(1, 12)),
                     min_size=1, max_size=12).map(
    lambda runs: [d for d, count in runs for _ in range(count)]
)


class TestPeriod:
    def test_rotation_equality(self):
        assert Period((2, 3, 4)) == Period((4, 2, 3))
        assert Period((2, 3, 4)) != Period((2, 4, 3))
        assert hash(Period((2, 3, 4))) == hash(Period((3, 4, 2)))

    def test_keeps_construction_rotation(self):
        assert Period((4, 2, 3)).digits == (4, 2, 3)

    def test_rejects_bad_digits(self):
        with pytest.raises(PeriodError):
            Period((2, 5))
        with pytest.raises(PeriodError):
            Period(())

    @pytest.mark.parametrize("digits", [(2, 300), (2, -1), (2, "2"), (2, 2.5), (), 3, "234"])
    def test_bad_input_is_a_period_error(self, digits):
        # Not a bare TypeError or ValueError from the byte conversion;
        # an int is refused, not read as a length.
        with pytest.raises(PeriodError):
            Period(digits)

    def test_parse_rejects_out_of_byte_digit(self):
        with pytest.raises(PeriodError):
            parse_period("2,300")

    @pytest.mark.parametrize("dtype", [np.int64, np.int16, np.uint8])
    def test_numpy_array_is_its_digits(self, dtype):
        # Never taken as its raw buffer, which would be another word.
        assert Period(np.array([2, 3, 4], dtype=dtype)).digits == (2, 3, 4)

    def test_word_is_bytes(self):
        p = Period((2, 3, 4))
        assert p.word == b"\2\3\4"
        assert Period(p.word) == p
        assert conjunction(p, p).word == p.word * 2
        assert p.reversed().word == b"\4\3\2"

    def test_cycle_length(self):
        assert Period((2, 3, 4)).cycle_length == 6
        assert Period((3,)).cycle_length == 2

    def test_reversed(self):
        assert Period((2, 3, 4)).reversed().digits == (4, 3, 2)


class TestSerialization:
    def test_run_length(self):
        assert format_period(Period((2, 3, 3, 4))) == "2,3_2,4"
        assert parse_period("2,3_2,4").digits == (2, 3, 3, 4)
        assert parse_period("(2,3,4)").digits == (2, 3, 4)

    def test_rejects_garbage(self):
        with pytest.raises(PeriodError):
            parse_period("2,x,4")

    @given(digit_words)
    def test_round_trip(self, digits):
        p = Period(tuple(digits))
        assert parse_period(format_period(p)).digits == p.digits
        assert parse_period(",".join(map(str, p.digits))).digits == p.digits

    @given(run_words, run_words)
    @example([3], [3])
    @example([2], [4])
    @example([3] * 10, [3] * 11)
    @example([2, 3, 3], [3, 3, 4])
    @example([4, 2], [2, 4, 4])
    @example([2] + [3] * 12 + [4], [4] * 10 + [2])
    def test_joined_texts(self, left, right):
        a, b = Period(left), Period(right)
        assert join_texts(format_period(a), format_period(b)) == format_period(conjunction(a, b))

    def test_joined_texts_merge_at_the_seam(self):
        assert join_texts("2,3_2", "3,4") == "2,3_3,4"
        assert join_texts("3_9", "3") == "3_10"
        assert join_texts("2,4", "2,3,4") == "2,4,2,3,4"


class TestTreeWords:
    def test_root_and_tips(self):
        assert node_at("").period.digits == (2, 3, 4)

    def test_children_of_root(self):
        assert node_at("L").period.digits == (2, 3, 3, 4)
        assert node_at("R").period.digits == (2, 4, 2, 3, 4)

    def test_level_three(self):
        assert node_at("LL").period.digits == (2, 3, 3, 3, 4)
        assert node_at("LR").period.digits == (2, 3, 4, 2, 3, 3, 4)
        assert node_at("RL").period.digits == (2, 4, 2, 3, 4, 2, 3, 4)
        assert node_at("RR").period.digits == (2, 4, 2, 4, 2, 3, 4)

    def test_leftmost_rule(self):
        assert node_at("L" * 7).period.digits == (2,) + (3,) * 8 + (4,)

    def test_bad_path(self):
        with pytest.raises(TreeError):
            node_at("LX")


def _per_position_values(digits):
    """Rotation values by the per-position rule, the reference for the
    whole-sweep rule of cf._rotation_values."""
    n = len(digits)
    prev = [math.inf] * n
    kept = [None] * n
    left = n
    x = 2.0
    for _ in range(cf.MAX_SWEEPS):
        for k in range(n - 1, -1, -1):
            x = digits[k] - 1.0 / x
            if kept[k] is None and abs(x - prev[k]) < cf.CONVERGED:
                kept[k] = x
                left -= 1
            prev[k] = x
        if not left:
            return kept
    raise AssertionError("did not converge")


class TestEval:
    def test_golden_values(self):
        assert eval_periodic((3,)) == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)
        assert eval_periodic((2, 4)) == pytest.approx(1 + math.sqrt(2) / 2, abs=1e-12)
        assert eval_periodic((2, 3, 4)) == pytest.approx(
            (21 + math.sqrt(221)) / 22, abs=1e-12
        )

    @given(digit_words)
    def test_fixed_point_of_own_map(self, digits):
        x = eval_periodic(digits)
        y = x
        for d in reversed(digits):
            y = d - 1.0 / y
        assert y == pytest.approx(x, abs=1e-9)

    def test_parabolic_word_does_not_converge(self):
        # All-2 words have the parabolic value 1, which the iteration
        # approaches too slowly; the message names the word as text.
        with pytest.raises(PeriodError, match="did not converge for 2_2$"):
            eval_periodic((2, 2))
        with pytest.raises(PeriodError, match="did not converge for 2_2$"):
            cf._rotation_values((2, 2))

    def test_sweeps_agree_with_per_position_rule(self):
        # The per-position rule keeps each value from the first sweep in
        # which it moves by less than CONVERGED; whole sweeps until T_0
        # settles may differ from it by a few ulps of values below 4.
        from markovj.tree import build_tree

        for node in build_tree(9):
            word = node.period.word
            for digits in (word, word[::-1]):
                got = cf._rotation_values(digits)
                want = _per_position_values(digits)
                assert max(abs(x - y) for x, y in zip(got, want)) < 1e-14


class TestMatrix:
    def test_traces(self):
        # trace = 3c for the words of Markov numbers 1, 2, 5.
        assert sum(period_matrix((3,))[i][i] for i in (0, 1)) == 3
        assert sum(period_matrix((2, 4))[i][i] for i in (0, 1)) == 6
        assert sum(period_matrix((2, 3, 4))[i][i] for i in (0, 1)) == 15

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
        for digits in [(3,), (2, 4), (2, 3, 4), (2, 3, 3, 4)]:
            states = cycle_states(digits)
            assert len(states) == sum(d - 1 for d in digits)

    def test_tip_states_are_golden_section(self):
        states = cycle_states((3,))
        phi = (1 + math.sqrt(5)) / 2
        assert states.values[0] == pytest.approx(phi, abs=1e-12)
        assert states.values[1] == pytest.approx(phi - 1, abs=1e-12)

    def test_boxes_over_tree_words(self):
        # The value and conjugate boxes hold for tree periods (not for
        # arbitrary digit words).
        from markovj.tree import build_tree

        for node in build_tree(6):
            states = cycle_states(node.period)
            for value, conj in zip(states.values, states.conj_values):
                assert STATE_MIN - 1e-12 <= value <= STATE_MAX + 1e-12
                assert CONJ_MIN - 1e-12 <= conj <= CONJ_MAX + 1e-12

    def test_exact_cross_check_long_period(self):
        # Length-28 cycle; a float walk drifts ~1e-6 here, the exact
        # walk must still confirm the certified states at 1e-9.
        _assert_oracle_agrees(node_at("L" * 11).period)

    def test_conjunction(self):
        assert conjunction(Period((2, 3)), Period((4,))).digits == (2, 3, 4)

    def test_period_and_its_digits_give_identical_states(self):
        period = node_at("RLRLRLRLRLR").period
        assert len(period) == 610
        from_period = cycle_states(period)
        from_digits = cycle_states(period.digits)
        assert from_period.a0.dtype == from_digits.a0.dtype == np.int64
        for field in ("a0", "values", "conj_values"):
            got, want = getattr(from_period, field), getattr(from_digits, field)
            assert got.tobytes() == want.tobytes()


def _reference_cycle_states(digits):
    """The quadratic-time enumeration: one eval_periodic per rotation."""
    states = []
    for i in range(len(digits)):
        tail = digits[i + 1 :] + digits[: i + 1]
        last = tail[-1]
        t = eval_periodic(tail)
        t_rev = eval_periodic(tail[-2::-1] + (tail[-1],))
        for a0 in range(last - 1, 0, -1):
            states.append((a0, a0 - 1.0 / t, -((last - a0) - 1.0 / t_rev)))
    return states


def _loop_cycle_states(digits):
    """The per-state loop over the same sweeps (same arithmetic as the
    array version, so the results must be bit-identical)."""
    tails = cf._rotation_values(digits[1:] + digits[:1])
    rev = cf._rotation_values(digits[::-1])
    states = []
    for i, last in enumerate(digits):
        t, t_rev = tails[i], rev[-i]
        for a0 in range(last - 1, 0, -1):
            states.append((a0, a0 - 1.0 / t, -((last - a0) - 1.0 / t_rev)))
    return states


def _assert_equals_loop(digits):
    states = cycle_states(digits)
    a0, values, conj = zip(*_loop_cycle_states(digits))
    assert states.a0.tolist() == list(a0)
    assert np.array_equal(states.values, values)
    assert np.array_equal(states.conj_values, conj)


def _rotations(digits):
    return [digits[i:] + digits[:i] for i in range(len(digits))]


def _exact_cycle(period: Period, values: list[float], check_tol: float) -> None:
    """Check ``values`` against the simple-form cycle walk run exactly.

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
    start = (p, q)
    for value in values:
        # int / int is correctly rounded at any size.
        exact = ((p << 64) + root) / (q << 64)
        if abs(value - exact) > check_tol:
            raise PeriodError(
                f"cycle state mismatch for {period}: "
                f"{value} vs exact {exact}"
            )
        if q - p <= floor_sqrt:
            p -= q
        else:
            p = q - p
            q, rem = divmod(p * p - disc, q)
            if rem:
                raise PeriodError(f"inexact cycle step for {period}")
            p -= q
    if (p, q) != start:
        raise PeriodError(
            f"cycle of {period} did not close after {len(values)} steps"
        )


def _assert_oracle_agrees(period):
    """The exact walk confirms the states of ``period`` and of its
    reversal at CHECK_TOL.  The conjugates of a word are its reversal's
    values, negated and in reverse order, so they are confirmed too."""
    for p in (period, period.reversed()):
        states = cycle_states(p)
        _exact_cycle(p, states.values.tolist(), cf.CHECK_TOL)
        _exact_cycle(p.reversed(), (-states.conj_values[::-1]).tolist(), cf.CHECK_TOL)


class TestExactOracle:
    def test_agrees_on_every_node_to_depth_nine(self):
        from markovj.tree import build_tree

        for node in build_tree(9):
            _assert_oracle_agrees(node.period)

    def test_largest_certified_bound(self, monkeypatch):
        # Far inside CHECK_TOL on every node to depth 9 and at q = 1597.
        from markovj.tree import build_tree

        bounds = []
        certify = cf._certify
        monkeypatch.setattr(cf, "_certify", lambda *args: bounds.append(certify(*args)))
        nodes = build_tree(9) + [node_at("RLRLRLRLRLRLR")]
        for node in nodes:
            cycle_states(node.period.reversed())
        assert len(bounds) == 2 * len(nodes)
        assert max(bounds) < 1e-13


block_words = st.builds(
    lambda block, k: block * k,
    st.sampled_from([(2, 3), (2, 4, 2, 3, 4), (3,), (2, 3, 3, 4)]),
    st.integers(min_value=1, max_value=8),
)


class TestOneSweepStates:
    @given(st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=40).filter(
        lambda w: any(d > 2 for d in w)))
    def test_matches_per_rotation_reference(self, digits):
        digits = tuple(digits)
        states = cycle_states(digits)
        reference = _reference_cycle_states(digits)
        assert len(states) == len(reference)
        assert states.a0.tolist() == [a0 for a0, _, _ in reference]
        for value, conj, (_, ref_value, ref_conj) in zip(
                states.values, states.conj_values, reference):
            assert abs(value - ref_value) <= 1e-13
            assert abs(conj - ref_conj) <= 1e-13

    @given(st.one_of(digit_words, block_words))
    def test_arrays_equal_per_state_loop(self, digits):
        _assert_equals_loop(tuple(digits))

    def test_arrays_equal_per_state_loop_on_tree_words(self):
        from markovj.tree import build_tree

        for node in build_tree(7):
            _assert_equals_loop(node.period.reversed().digits)

    def test_makes_no_eval_periodic_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eval_periodic called")

        monkeypatch.setattr(cf, "eval_periodic", refuse)
        cycle_states(node_at("RL").period.reversed())

    def test_deep_node_exact_check(self):
        # Level 14, q = 1597, c has 621 digits: far beyond float range,
        # so the exact walk must never convert c to a float.
        node = node_at("RLRLRLRLRLRLR")
        assert (node.level, node.q, len(str(node.c))) == (14, 1597, 621)
        _assert_oracle_agrees(node.period)
        assert len(cycle_states(node.period)) == node.period.cycle_length

    def test_needs_no_period_matrix(self, monkeypatch):
        # No big-integer matrix at runtime, even at q = 1597.
        def refuse(*args, **kwargs):
            raise AssertionError("period_matrix called")

        monkeypatch.setattr(cf, "period_matrix", refuse)
        cycle_states(node_at("RLRLRLRLRLRLR").period.reversed())


class TestExactCheckFires:
    def test_perturbed_state_is_a_mismatch(self, monkeypatch):
        sweep = cf._rotation_values

        def perturbed(digits):
            values = sweep(digits)
            values[1] += 1e-6
            return values

        monkeypatch.setattr(cf, "_rotation_values", perturbed)
        with pytest.raises(PeriodError, match="mismatch") as info:
            cycle_states(node_at("LR").period.reversed())
        # The word is named as format_period text, not as a bytes repr.
        assert "for 4,3_2,2,4,3,2:" in str(info.value)

    def test_perturbed_reversed_sweep_is_a_mismatch(self, monkeypatch):
        # Only the sweep that feeds the conjugates is off.
        sweep = cf._rotation_values
        calls = []

        def perturbed(digits):
            values = sweep(digits)
            calls.append(digits)
            if len(calls) == 2:
                values[1] += 1e-6
            return values

        monkeypatch.setattr(cf, "_rotation_values", perturbed)
        period = node_at("LR").period.reversed()
        with pytest.raises(PeriodError, match="mismatch for 4,3_2,2,4,3,2: reversed-word"):
            cycle_states(period)
        assert calls[1] == period.word[::-1]

    def test_sweep_at_or_below_one_is_refused(self, monkeypatch):
        # The conjugate cycle solves the same recursion to rounding,
        # with every value in (0, 1): only the bound lo > 1 tells it
        # from the true values.
        monkeypatch.setattr(cf, "_rotation_values", _conjugate_cycle)
        for period in (Period((3,)), node_at("LR").period.reversed()):
            x, n = _conjugate_cycle(period.word), len(period)
            assert max(abs(x[k] - (period.word[k] - 1.0 / x[(k + 1) % n]))
                       for k in range(n)) < 1e-15
            with pytest.raises(PeriodError, match="mismatch.*not above 1"):
                cycle_states(period)
        monkeypatch.setattr(cf, "_rotation_values", lambda digits: [1.0] * len(digits))
        with pytest.raises(PeriodError, match="mismatch.*not above 1"):
            cycle_states(Period((3,)))

    def test_walk_that_does_not_close(self, monkeypatch):
        # The matrix of (3, 3, 2) starts a walk of length 5; six steps
        # of it cannot return to the start.
        other = period_matrix((3, 3, 2))
        monkeypatch.setitem(globals(), "period_matrix", lambda digits: other)
        values = cycle_states((2, 3, 4)).values.tolist()
        with pytest.raises(PeriodError, match="did not close") as info:
            _exact_cycle(Period((2, 3, 4)), values, math.inf)
        assert "cycle of 2,3,4 did not close" in str(info.value)


def _conjugate_cycle(digits):
    """The repelling cycle of T_k = d_k - 1/T_{k+1}, the Galois
    conjugates of the rotation values: the inverse steps
    T_{k+1} = 1/(d_k - T_k) are attracted to it."""
    n = len(digits)
    x = [0.5] * n
    for _ in range(200):
        for k in range(n):
            x[(k + 1) % n] = 1.0 / (digits[k] - x[k])
    return x


class TestCanonical:
    @given(st.one_of(digit_words, block_words))
    def test_least_rotation(self, digits):
        digits = tuple(digits)
        assert Period(digits).canonical == min(_rotations(digits))

    @given(st.one_of(digit_words, block_words), st.integers(min_value=0))
    def test_rotation_invariance(self, digits, shift):
        digits = tuple(digits)
        k = shift % len(digits)
        p, r = Period(digits), Period(digits[k:] + digits[:k])
        assert p == r
        assert hash(p) == hash(r)

    def test_lazy(self):
        p = Period((2, 4, 2, 3, 4))
        assert "canonical" not in p.__dict__
        assert p == Period((2, 3, 4, 2, 4))
        assert p.__dict__["canonical"] == (2, 3, 4, 2, 4)

    def test_tree_does_not_canonicalise(self):
        assert "canonical" not in node_at("RLRLRLRL").period.__dict__
