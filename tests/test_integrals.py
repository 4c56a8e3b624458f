import functools
import json
import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest

from markov_oracles import average_integral, exact_arc_rule, exact_truncation_constant
import markovj.integrals as integrals
from markovj.cf import CONJ_MAX, CONJ_MIN, STATE_MAX, STATE_MIN, CycleStates, cycle_states
from markovj.integrals import (
    CACHE_FIELDS,
    METHOD,
    RHO,
    RULE_POINTS,
    RULE_ULPS,
    QuadratureError,
    cache_index,
    cache_record,
    cached_value,
    check_cache_writable,
    compute_values,
    integrate_J,
    log_epsilon,
    read_cache,
    _rule,
    write_cache,
)
from markovj.jfunction import SERIES_ORDER, j_coefficients
from markovj.tree import ROOT, TIP_LEFT, TIP_RIGHT, build_tree, node_at


@functools.cache
def _oracle_rule(series, points):
    """The nodes z and the weights h w j(z) i z of a ``points``-point
    Gauss-Legendre rule on the arc, to 30 digits and then rounded to
    floats (numpy's leggauss(200) is 5.5e-15 relative off)."""
    rule = exact_arc_rule(points, series, digits=30)
    z = np.array([complex(float(x), float(y)) for x, y, _ in rule])
    g = np.array([complex(float(gr), float(gi)) for _, _, (gr, gi) in rule])
    return z, g


def _oracle_J(node, series, points=200):
    """Brute force: a 200-point Gauss-Legendre sum for each state of the
    reversed word on its own, in complex arithmetic, then the sum over
    states."""
    z, g = _oracle_rule(series, points)
    states = cycle_states(node.period[::-1])
    z = z[:, None]
    terms = g[:, None] * (1.0 / (z - states.values) - 1.0 / (z - states.conj_values))
    return complex(terms.sum(axis=0).sum())


class TestLogEpsilon:
    def test_small_values(self):
        assert log_epsilon(1) == pytest.approx(math.log((3 + math.sqrt(5)) / 2), rel=1e-14)
        assert log_epsilon(2) == pytest.approx(math.log(3 + 2 * math.sqrt(2)), rel=1e-14)
        assert log_epsilon(5) == pytest.approx(2.703575830931402, rel=1e-14)

    def test_huge_argument(self):
        c = 10**500
        assert log_epsilon(c) == pytest.approx(math.log(3) + 500 * math.log(10), rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_epsilon(0)


class TestIntegrateJ:
    def test_left_tip(self):
        v = integrate_J(TIP_LEFT, tol=1e-10)
        assert v.J_over_q.real == pytest.approx(1359.56741044, rel=1e-9)
        assert abs(v.J_over_q.imag) < 1e-9
        assert v.j.real == pytest.approx(706.324813541, rel=1e-9)

    def test_right_tip(self):
        v = integrate_J(TIP_RIGHT, tol=1e-10)
        assert v.J_over_q.real == pytest.approx(1251.36168734, rel=1e-9)
        assert v.j.real == pytest.approx(709.892890920, rel=1e-9)

    def test_root(self):
        v = integrate_J(ROOT, tol=1e-10)
        assert v.log_eps == log_epsilon(ROOT.c) == pytest.approx(2.703575830931402, rel=1e-13)
        assert v.j == v.J / (2 * v.log_eps)
        assert v.J_over_q.imag < 0  # reference orientation

    def test_error_estimate_is_honest(self, series):
        # tol only admits a value: J and its bound are the same under any
        # tol, and the bound covers the 200-point oracle's difference.
        loose = integrate_J(ROOT, tol=1e-6)
        tight = integrate_J(ROOT, tol=1e-12)
        assert (loose.J, loose.quad_error) == (tight.J, tight.quad_error)
        assert loose.quad_error >= abs(loose.J - _oracle_J(ROOT, series))

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            integrate_J(ROOT, 0.0)

    def test_tol_is_relative(self):
        # |J| is about 1300 q, so a relative bound that this node's
        # quadrature bound meets is far below it as an absolute one.
        node = node_at("RLRLRLRLRLRLR")
        v = integrate_J(node, tol=1e-11)
        assert 1e-11 < v.quad_error <= 1e-11 * abs(v.J)
        with pytest.raises(QuadratureError):
            integrate_J(node, tol=1e-20)

    def test_error_names_the_node(self):
        node = node_at("RL")
        with pytest.raises(QuadratureError) as info:
            integrate_J(node, tol=1e-20)
        bound = re.fullmatch(r"quadrature bound (\S+) exceeds tol 1e-20 relative "
                             r"to \|value\| = \S+ at 3/8 \(path 'RL'\)", str(info.value))
        assert bound and 0.0 < float(bound[1]) < math.inf

    def test_imaginary_part_sign(self, depth9_values):
        # The tips' words are their own reversals, so their J is real and
        # the computed Im J is rounding; every other node has Im J < 0.
        for path, value in depth9_values.items():
            if path in (TIP_LEFT.path, TIP_RIGHT.path):
                assert abs(value.J.imag) <= 1e-15 * abs(value.J), path
            else:
                assert value.J.imag < 0, path


class TestFixedRule:
    def test_matches_oracle_to_depth_seven(self, series):
        for node in build_tree(7):
            J = integrate_J(node, tol=1e-10).J
            ref = _oracle_J(node, series)
            assert abs(J - ref) <= 1e-13 * abs(ref), node

    def test_matches_oracle_at_level_fourteen(self, series):
        node = node_at("RLRLRLRLRLRLR")
        assert node.q == 1597
        J = integrate_J(node, tol=1e-10).J
        ref = _oracle_J(node, series)
        assert abs(J - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("field, value", [
        ("values", -CONJ_MAX - 1e-9),
        ("values", -CONJ_MIN + 1e-9),
        ("conj_values", -STATE_MAX - 1e-9),
        ("conj_values", -STATE_MIN + 1e-9),
        ("values", math.nan),
    ])
    def test_state_outside_box_raises(self, monkeypatch, field, value):
        states = cycle_states(ROOT.period[::-1])
        arrays = {"values": states.values.copy(),
                  "conj_values": states.conj_values.copy()}
        arrays[field][2] = value
        pushed = CycleStates(**arrays)
        integrate_J(ROOT, 1e-10)  # the unpushed states pass
        monkeypatch.setattr(integrals, "cycle_states", lambda word: pushed)
        with pytest.raises(QuadratureError) as info:
            integrate_J(ROOT, 1e-10)
        assert str(info.value) == "cycle state outside the certified box at 1/3 (path '')"

    def test_forward_word_is_outside_the_box(self, monkeypatch):
        # The boxes are those of the reference (reversed) orientation.
        monkeypatch.setattr(integrals, "cycle_states", lambda word: cycle_states(word[::-1]))
        with pytest.raises(QuadratureError, match="certified box"):
            integrate_J(ROOT, 1e-10)


class TestBound:
    def test_covers_the_oracle_error_to_depth_ten(self, series):
        for node in build_tree(10):
            v = integrate_J(node, tol=1e-10)
            assert v.quad_error >= abs(v.J - _oracle_J(node, series)), node

    def test_rule_arrays_within_rule_ulps(self, series):
        # The units integrate_J's proof states for the rule's float
        # arrays, against the rule to 40 digits: x absolutely, y^2 and
        # conj(z) relatively, g relative to the absolute sum G, which
        # bounds the exact |g|; and they fit in RULE_ULPS.
        g, zbar, x, y2, G, _ = _rule()
        units = {"x": 4, "y2": 4, "zbar": 4, "g": 10}
        # x moves (x - w)^2 + y^2 by at most 2/y <= 2/sqrt(3) times its error.
        added = units["x"] * 2 / math.sqrt(3) + units["y2"] + units["zbar"] + units["g"]
        assert added <= RULE_ULPS
        with localcontext() as ctx:
            ctx.prec = 50
            u = Decimal(2) ** -53
            exact = exact_arc_rule(RULE_POINTS, series)
            assert len(exact) == len(g) == RULE_POINTS
            for m, (ex, ey, (gr, gi)) in enumerate(exact):
                Gm = Decimal(float(G[m]))
                assert abs(Decimal(float(x[m, 0])) - ex) <= units["x"] * u, m
                assert abs(Decimal(float(y2[m, 0])) - ey * ey) <= units["y2"] * u * ey * ey, m
                assert ((Decimal(zbar[m].real) - ex) ** 2 + (Decimal(zbar[m].imag) + ey) ** 2
                        ).sqrt() <= units["zbar"] * u, m
                assert ((Decimal(g[m].real) - gr) ** 2 + (Decimal(g[m].imag) - gi) ** 2
                        ).sqrt() <= units["g"] * u * Gm, m
                assert (gr * gr + gi * gi).sqrt() <= Gm, m

    def test_value_near_the_exact_rule_sum(self, series):
        # The rule's sum over the node's states, in 50 digits with the
        # rule to 40: J is within 3.2e-16 of it here, where numpy's
        # leggauss weights put it 2.7e-15 away.
        with localcontext() as ctx:
            ctx.prec = 50
            rule = exact_arc_rule(RULE_POINTS, series)
            for path in ("", "RL"):
                node = node_at(path)
                states = cycle_states(node.period[::-1])
                poles = [(Decimal(float(w)), 1) for w in states.values] + [
                    (Decimal(float(w)), -1) for w in states.conj_values]
                re = im = Decimal(0)
                for x, y, (gr, gi) in rule:
                    # sign/(z - w) = sign (x - w - iy)/((x - w)^2 + y^2)
                    kr = sum(sign * (x - w) / ((x - w) ** 2 + y * y) for w, sign in poles)
                    ki = sum(-sign * y / ((x - w) ** 2 + y * y) for w, sign in poles)
                    re, im = re + gr * kr - gi * ki, im + gr * ki + gi * kr
                exact = complex(float(re), float(im))
                assert abs(integrate_J(node, tol=1e-10).J - exact) <= 1e-15 * abs(exact), path

    def test_truncation_constant_rounded_outward(self, series):
        K = _rule()[5]
        exact = exact_truncation_constant(RHO, RULE_POINTS, series)
        assert exact <= Decimal(K) <= exact * (1 + Decimal("2e-9"))

    def test_bound_holds_both_terms(self):
        # The truncation term K l grows like the state count l, the
        # rounding term like l^2, so at q = 1597 rounding dominates.
        K = _rule()[5]
        for path, low in (("", 1.0), ("RLRLRLRLRLRLR", 10.0)):
            node = node_at(path)
            l = len(cycle_states(node.period))
            assert integrate_J(node, tol=1e-10).quad_error > low * K * l, path


class TestAverage:
    def test_value(self):
        avg = average_integral(tol=1e-9)
        assert avg == pytest.approx(753.9822368615, abs=1e-6)


class TestSeriesOrder:
    @pytest.mark.parametrize("order", [14, 20, 100, 300])
    def test_arc_weights_bit_identical_across_orders(self, monkeypatch, order):
        # Why the order is a constant: no order from 14 up changes a bit.
        fixed = _rule()[0]
        monkeypatch.setattr(integrals, "j_coefficients", lambda _: j_coefficients(order))
        assert np.array_equal(_rule.__wrapped__()[0], fixed)

    def test_order_thirteen_differs(self, monkeypatch):
        # The comparison above can fail: one order lower it does.
        fixed = _rule()[0]
        monkeypatch.setattr(integrals, "j_coefficients", lambda _: j_coefficients(13))
        assert not np.array_equal(_rule.__wrapped__()[0], fixed)

    def test_rule_built_once(self, monkeypatch):
        # Every node of a run shares the one rule; j is evaluated once.
        _rule()
        monkeypatch.setattr(integrals, "j_eval", None)
        compute_values(build_tree(3), tol=1e-9)


class TestComputeValues:
    def test_each_node_in_order_by_integrate_J(self):
        # The one value path: integrate_J per node, keyed by path.
        nodes = build_tree(3)
        values = compute_values(nodes, tol=1e-9)
        assert list(values) == [n.path for n in nodes]
        for node in nodes:
            assert values[node.path] == integrate_J(node, tol=1e-9)


class TestCache:
    def test_round_trip(self, tmp_path):
        node = node_at("R")
        value = integrate_J(node, tol=1e-8)
        path = tmp_path / "cache.jsonl"
        write_cache([cache_record(value)], path)
        records = read_cache(path)
        assert len(records) == 1
        rec = records[0]
        assert rec["path"] == "R"
        assert rec == cache_record(value)
        assert {key: type(field) for key, field in rec.items()} == CACHE_FIELDS
        assert rec["J_re"] == value.J.real
        assert (rec["series_order"], rec["method"]) == (40, METHOD)
        assert SERIES_ORDER == 40
        assert cached_value(rec, node, 1e-8) == value

    @pytest.mark.parametrize("field, other", [
        ("q", 6), ("c", "30"), ("quad_err", 1.0), ("series_order", 30),
        ("method", "gauss-legendre-16/12"), ("method", "gauss-legendre-20/16"),
    ])
    def test_cached_value_refuses_other_node_or_run(self, field, other):
        # quad_err 1.0 is a bound above the run's tol: |J| at R is about 6 300.
        node = node_at("R")
        value = integrate_J(node, tol=1e-8)
        rec = cache_record(value)
        assert cached_value(rec, node, 1e-8) == value
        assert cached_value({**rec, field: other}, node, 1e-8) is None
        assert cached_value(None, node, 1e-8) is None

    def test_index_by_path(self, tmp_path):
        values = [integrate_J(node_at(p), tol=1e-8) for p in ("L", "R")]
        path = tmp_path / "cache.jsonl"
        assert cache_index(path) == {}
        write_cache([cache_record(v) for v in values], path)
        assert cache_index(path) == {v.node.path: cache_record(v) for v in values}

    def test_interrupted_write_keeps_previous_cache(self, tmp_path):
        value = integrate_J(node_at("R"), tol=1e-8)
        other = integrate_J(node_at("L"), tol=1e-8)
        path = tmp_path / "cache.jsonl"
        write_cache([cache_record(value)], path)
        before = path.read_bytes()

        # The new write gets one record out, then is interrupted.
        def records():
            yield cache_record(other)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            write_cache(records(), path)
        assert path.read_bytes() == before
        assert read_cache(path) == [cache_record(value)]
        assert [p.name for p in tmp_path.iterdir()] == ["cache.jsonl"]

    def test_read_records_written_back_byte_for_byte(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        write_cache([cache_record(v) for v in compute_values(build_tree(3), tol=1e-8).values()],
                    path)
        before = path.read_bytes()
        write_cache(read_cache(path), path)
        assert path.read_bytes() == before

    def test_writability_check_leaves_no_file(self, tmp_path):
        check_cache_writable(tmp_path / "x.jsonl")
        assert list(tmp_path.iterdir()) == []
        missing = tmp_path / "missing" / "x.jsonl"
        with pytest.raises(FileNotFoundError, match=re.escape(f"'{missing}'") + "$"):
            check_cache_writable(missing)

    @pytest.mark.parametrize("field, value", [
        ("J_re", math.nan), ("J_im", math.inf), ("quad_err", math.nan), ("quad_err", -math.inf),
    ])
    def test_refuses_non_finite_float(self, tmp_path, field, value):
        # json reads NaN and Infinity; a NaN value once reached the table.
        rec = cache_record(integrate_J(node_at("R"), tol=1e-8))
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps(rec) + "\n" + json.dumps({**rec, field: value}) + "\n")
        with pytest.raises(ValueError) as info:
            read_cache(path)
        assert str(info.value) == f"{path} line 2 is not a schema-2 cache record"

    @pytest.mark.parametrize("bound", [-1.0, 0.0, -0.0, -5e-324])
    def test_refuses_error_bound_not_above_zero(self, tmp_path, bound):
        # A negative quad_err was once served, and value printed it;
        # integrate_J proves no bound below K l > 0.
        rec = cache_record(integrate_J(node_at("R"), tol=1e-8))
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps(rec) + "\n" + json.dumps({**rec, "quad_err": bound}) + "\n")
        with pytest.raises(ValueError) as info:
            read_cache(path)
        assert str(info.value) == f"{path} line 2 is not a schema-2 cache record"

    @pytest.mark.parametrize("field", list(CACHE_FIELDS))
    def test_refuses_record_without_field(self, tmp_path, field):
        rec = cache_record(integrate_J(node_at("R"), tol=1e-8))
        del rec[field]
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ValueError, match=" line 1 is not a schema-2 cache record$"):
            read_cache(path)

    def test_schema_check(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"schema": 999, "path": "R"}\n')
        with pytest.raises(ValueError):
            read_cache(path)

    def test_refuses_adaptive_era_cache(self, tmp_path):
        # Schema-1 records carried no tol, series order or method.
        value = integrate_J(node_at("R"), tol=1e-8)
        rec = cache_record(value)
        old = {k: v for k, v in rec.items() if k not in ("tol", "series_order", "method")}
        old["schema"] = 1
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps(old) + "\n")
        with pytest.raises(ValueError, match="schema"):
            read_cache(path)
