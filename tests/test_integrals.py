import json
import math
import pickle
import re

import numpy as np
import pytest

from markovj.cf import CONJ_MAX, CONJ_MIN, STATE_MAX, STATE_MIN, CycleStates, cycle_states
from markovj.integrals import (
    ARC_HI,
    ARC_LO,
    CACHE_FIELDS,
    METHOD,
    ArcIntegrator,
    QuadratureError,
    average_integral,
    cache_record,
    check_cache_writable,
    compute_values,
    integrate_J,
    log_epsilon,
    read_cache,
    write_cache,
)
from markovj.jfunction import j_eval
from markovj.tree import ROOT, TIP_LEFT, TIP_RIGHT, build_tree, node_at


def _oracle_J(node, series, points=200):
    """Brute force: a 200-point Gauss-Legendre sum for each state of the
    reversed word on its own, then the sum over states."""
    x, w = np.polynomial.legendre.leggauss(points)
    h = 0.5 * (ARC_HI - ARC_LO)
    z = np.exp(1j * (0.5 * (ARC_LO + ARC_HI) + h * x))
    g = h * w * j_eval(z, series) * 1j * z
    states = cycle_states(node.period.reversed())
    per_state = [
        np.sum(g * (1.0 / (z - value) - 1.0 / (z - conj)))
        for value, conj in zip(states.values, states.conj_values)
    ]
    return complex(np.sum(per_state))


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
    def test_left_tip(self, series):
        v = integrate_J(TIP_LEFT, tol=1e-10, integrator=ArcIntegrator(series))
        assert v.J_over_q.real == pytest.approx(1359.56741044, rel=1e-9)
        assert abs(v.J_over_q.imag) < 1e-9
        assert v.j.real == pytest.approx(706.324813541, rel=1e-9)

    def test_right_tip(self, series):
        v = integrate_J(TIP_RIGHT, tol=1e-10, integrator=ArcIntegrator(series))
        assert v.J_over_q.real == pytest.approx(1251.36168734, rel=1e-9)
        assert v.j.real == pytest.approx(709.892890920, rel=1e-9)

    def test_root(self, series):
        v = integrate_J(ROOT, tol=1e-10, integrator=ArcIntegrator(series))
        assert v.log_eps == pytest.approx(2.703575830931402, rel=1e-13)
        assert v.j == v.J / (2 * v.log_eps)
        assert v.J_over_q.imag < 0  # reference orientation

    def test_error_estimate_is_honest(self, series):
        integ = ArcIntegrator(series)
        loose = integrate_J(ROOT, tol=1e-6, integrator=integ)
        tight = integrate_J(ROOT, tol=1e-12, integrator=integ)
        assert abs(loose.J - tight.J) <= max(loose.quad_error, 1e-9) * 10

    def test_rejects_bad_tol(self, series):
        with pytest.raises(ValueError):
            integrate_J(ROOT, 0.0, ArcIntegrator(series))

    def test_tol_is_relative(self, series):
        # |J| is about 1300 q, so a relative bound that a rounding-level
        # estimate meets is far below it as an absolute one.
        integ = ArcIntegrator(series)
        node = node_at("RLRLRLRLRLRLR")
        v = integrate_J(node, tol=1e-13, integrator=integ)
        assert 1e-13 < v.quad_error <= 1e-13 * abs(v.J)
        with pytest.raises(QuadratureError):
            integrate_J(node, tol=1e-20, integrator=integ)

    def test_error_names_the_node(self, series):
        node = node_at("RL")
        with pytest.raises(QuadratureError) as info:
            integrate_J(node, tol=1e-20, integrator=ArcIntegrator(series))
        assert str(info.value).endswith(" at 3/8 (path 'RL')")
        assert 0.0 < info.value.estimate < math.inf

    def test_error_survives_pickle(self):
        err = QuadratureError("estimate 2 exceeds tol at 3/8 (path 'RL')", 2.0)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is QuadratureError
        assert str(back) == str(err)
        assert back.estimate == 2.0

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
        integ = ArcIntegrator(series)
        for node in build_tree(7):
            J = integrate_J(node, tol=1e-10, integrator=integ).J
            ref = _oracle_J(node, series)
            assert abs(J - ref) <= 1e-13 * abs(ref), node

    def test_matches_oracle_at_level_fourteen(self, series):
        node = node_at("RLRLRLRLRLRLR")
        assert node.q == 1597
        J = integrate_J(node, tol=1e-10, integrator=ArcIntegrator(series)).J
        ref = _oracle_J(node, series)
        assert abs(J - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("field, value", [
        ("values", -CONJ_MAX - 1e-9),
        ("values", -CONJ_MIN + 1e-9),
        ("conj_values", -STATE_MAX - 1e-9),
        ("conj_values", -STATE_MIN + 1e-9),
        ("values", math.nan),
    ])
    def test_state_outside_box_raises(self, series, field, value):
        states = cycle_states(ROOT.period.reversed())
        arrays = {"values": states.values.copy(),
                  "conj_values": states.conj_values.copy()}
        arrays[field][2] = value
        pushed = CycleStates(a0=states.a0, **arrays)
        integ = ArcIntegrator(series)
        integ.integrate_states(states, 1e-10)  # the unpushed states pass
        with pytest.raises(QuadratureError, match="certified box"):
            integ.integrate_states(pushed, 1e-10)

    def test_forward_word_is_outside_the_box(self, series):
        # The boxes are those of the reference (reversed) orientation.
        with pytest.raises(QuadratureError, match="certified box"):
            ArcIntegrator(series).integrate_states(cycle_states(ROOT.period), 1e-10)


class TestAverage:
    def test_value(self, series):
        avg = average_integral(tol=1e-9, integrator=ArcIntegrator(series))
        assert avg == pytest.approx(753.9822368615, abs=1e-6)


class TestComputeValues:
    def test_parallel_matches_serial(self, series):
        nodes = build_tree(3)
        serial = compute_values(nodes, tol=1e-9, series=series, jobs=1)
        parallel = compute_values(nodes, tol=1e-9, series=series, jobs=2)
        assert serial.keys() == parallel.keys()
        for path in serial:
            assert serial[path].J == pytest.approx(parallel[path].J, rel=1e-12)

    def test_no_empty_chunks(self, series, monkeypatch):
        import concurrent.futures

        workers, chunks = [], []

        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                chunks.extend(items)
                return map(fn, chunks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        nodes = build_tree(1)
        values = compute_values(nodes, 1e-9, series, 8)
        assert list(values) == [n.path for n in nodes]
        assert workers == [3]
        assert [len(chunk) for chunk, _, _ in chunks] == [1, 1, 1]


class TestCache:
    def test_round_trip(self, tmp_path, series):
        node = node_at("R")
        value = integrate_J(node, tol=1e-8, integrator=ArcIntegrator(series))
        path = tmp_path / "cache.jsonl"
        write_cache([value], path)
        records = read_cache(path)
        assert len(records) == 1
        rec = records[0]
        assert rec["path"] == "R"
        assert rec == cache_record(value)
        assert {key: type(field) for key, field in rec.items()} == CACHE_FIELDS
        assert rec["J_re"] == value.J.real
        assert (rec["tol"], rec["series_order"], rec["method"]) == (1e-8, 40, METHOD)

    def test_interrupted_write_keeps_previous_cache(self, tmp_path, series, monkeypatch):
        import markovj.integrals as integrals

        integ = ArcIntegrator(series)
        value = integrate_J(node_at("R"), tol=1e-8, integrator=integ)
        other = integrate_J(node_at("L"), tol=1e-8, integrator=integ)
        path = tmp_path / "cache.jsonl"
        write_cache([value], path)
        before = path.read_bytes()

        # The new write gets one record out, then is interrupted.
        records = iter([cache_record(other)])

        def failing_record(v):
            rec = next(records, None)
            if rec is None:
                raise KeyboardInterrupt
            return rec

        monkeypatch.setattr(integrals, "cache_record", failing_record)
        with pytest.raises(KeyboardInterrupt):
            write_cache([other, value], path)
        assert path.read_bytes() == before
        assert read_cache(path) == [cache_record(value)]
        assert [p.name for p in tmp_path.iterdir()] == ["cache.jsonl"]

    def test_writability_check_leaves_no_file(self, tmp_path):
        check_cache_writable(tmp_path / "x.jsonl")
        assert list(tmp_path.iterdir()) == []
        missing = tmp_path / "missing" / "x.jsonl"
        with pytest.raises(FileNotFoundError, match=re.escape(f"'{missing}'") + "$"):
            check_cache_writable(missing)

    def test_schema_check(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"schema": 999, "path": "R"}\n')
        with pytest.raises(ValueError):
            read_cache(path)

    def test_refuses_adaptive_era_cache(self, tmp_path, series):
        # Schema-1 records carried no tol, series order or method.
        value = integrate_J(node_at("R"), tol=1e-8, integrator=ArcIntegrator(series))
        rec = cache_record(value)
        old = {k: v for k, v in rec.items() if k not in ("tol", "series_order", "method")}
        old["schema"] = 1
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps(old) + "\n")
        with pytest.raises(ValueError, match="schema"):
            read_cache(path)
