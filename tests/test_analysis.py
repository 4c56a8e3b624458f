import math
from types import SimpleNamespace

import pytest

from markovj import analysis
from markovj.analysis import (
    CONTRACTION,
    BoundChain,
    asymptotics_report,
    check_interlacing,
    check_J_recursion,
    check_q_recursion,
    coincidence_bound,
    coincidence_envelope,
    decompose_path,
    denominator_sequence,
    envelope_from_values,
    g_kernel,
    gg_prime_ranges,
    theorem2_constants,
)
from markovj.tree import TIP_LEFT, TIP_RIGHT, TreeError, build_tree, node_at


class TestDecompose:
    def test_pure_left_branch(self):
        dec = decompose_path("LLL")
        assert dec.m == 1
        assert dec.turn_levels == (1,)
        assert dec.turn_pred is TIP_LEFT
        assert dec.immediate_pred.level == 3

    def test_single_turn(self):
        dec = decompose_path("RL")
        assert dec.turn_levels == (1, 2)
        assert dec.turn_pred.path == ""
        assert dec.immediate_pred.path == "R"

    def test_root(self):
        dec = decompose_path("")
        assert {dec.immediate_pred, dec.turn_pred} == {TIP_LEFT, TIP_RIGHT}

    def test_q_identity(self):
        dec = decompose_path("RLLRL")
        qs = dec.qs
        assert qs[-1] == qs[-2] + qs[dec.turn_levels[-1] - 1]

    def test_accepts_node(self):
        assert decompose_path(node_at("RL")) == decompose_path("RL")

    def test_prefix_lookup_matches_walk(self):
        decs = list(analysis._decompositions(6))
        assert [d.node.path for d in decs] == [
            n.path for n in build_tree(6) if n.level >= 2]
        for dec in decs:
            assert dec == decompose_path(dec.node.path)


class TestQRecursion:
    def test_passes_to_depth_eight(self):
        report = check_q_recursion(8)
        assert report.passed

    def test_failure_raises_tree_error(self, monkeypatch):
        monkeypatch.setattr(analysis, "_mat_mul", lambda A, B: ((0, 0), (0, 0)))
        with pytest.raises(TreeError, match="matrix recursion fails"):
            check_q_recursion(4)

    def test_figure_examples(self):
        assert node_at("RL").q == 8 == node_at("R").q + node_at("").q
        assert node_at("LR").q == 7 == node_at("L").q + node_at("").q


class TestInterlacing:
    def test_small_depth(self, depth9_values):
        report = check_interlacing(depth9_values, 4)
        assert report.passed
        assert "0 violation" in report.checks[0].details

    def test_segment_mode(self, depth9_values):
        report = check_interlacing(depth9_values, 4, tol=1e-6, mode="segment")
        assert report.checks[0].name.startswith("segment")

    def test_missing_values(self):
        with pytest.raises(KeyError):
            check_interlacing({}, 3)


class TestJRecursion:
    def test_small_depth(self, depth9_values):
        report = check_J_recursion(depth9_values, 5)
        assert report.passed
        assert report.checks[0].measured < 1.0

    @staticmethod
    def _synthetic(ratios):
        """Values for build_tree(3) with J = 0 except at the given level-3
        leaves, whose delta is then the given multiple of the bound."""
        values = {n.path: SimpleNamespace(J=0j) for n in build_tree(3)}
        bound = analysis.RE_DELTA_COEF * CONTRACTION ** 4
        for path, ratio in ratios.items():
            values[path] = SimpleNamespace(J=complex(ratio * bound, 0.0))
        return values

    def test_names_argmax_after_smaller_increase(self):
        # The ratio first increases at LL, then peaks at RR.
        check = check_J_recursion(self._synthetic({"LL": 0.1, "RR": 0.5}), 3).checks[0]
        assert check.status == "pass"
        assert check.measured == pytest.approx(0.5)
        assert "'RR'" in check.details
        assert "'LL'" not in check.details

    def test_names_argmax_and_violation(self):
        check = check_J_recursion(self._synthetic({"LL": 0.1, "RR": 3.0}), 3).checks[0]
        assert check.status == "fail"
        assert check.details.endswith("at 'RR', violation at 'RR'")


class TestGGPrime:
    def test_zero_at_unit_product(self):
        assert g_kernel(1.0, 1.0, math.pi / 2) == 0.0

    def test_ranges(self):
        report = gg_prime_ranges(grid=120)
        assert report.passed

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            gg_prime_ranges(grid=50)


class TestCoincidence:
    def test_envelope(self):
        assert coincidence_envelope(1) == 10.0
        phi = (1 + math.sqrt(5)) / 2
        assert coincidence_envelope(3) == pytest.approx(10 * phi**-4, rel=1e-12)

    def test_report(self):
        report = coincidence_bound(depth=5, samples=200)
        assert report.passed

    def test_contraction_constant(self):
        assert CONTRACTION == pytest.approx(2 / (1 + math.sqrt(5)), rel=1e-15)


class TestAsymptotics:
    def test_sequence_head(self):
        seq = denominator_sequence(5)
        assert [q for q, _ in seq] == [1, 2, 3, 4, 5, 5]
        assert seq[4] == (5, 29) and seq[5] == (5, 34)

    def test_report_passes(self):
        report = asymptotics_report(depth=30)
        assert report.passed


class TestBoundChain:
    def test_published_constants(self):
        chain = theorem2_constants(12)
        assert isinstance(chain, BoundChain)
        assert chain.re_delta_bound == pytest.approx(1.41173, abs=1e-3)
        assert chain.im_delta_bound == pytest.approx(1.23611, abs=1e-3)
        assert chain.J_sqrtn_re[0] == pytest.approx(3206.24623, abs=1e-3)
        assert chain.J_sqrtn_re[1] == pytest.approx(3491.04708, abs=1e-3)
        assert chain.J_sqrtn_im[0] == pytest.approx(-4.40533, abs=1e-3)
        assert chain.J_sqrtn_im[1] == pytest.approx(3.170734, abs=1e-3)
        assert chain.j_re[0] == pytest.approx(681.50081, abs=1e-3)
        assert chain.j_re[1] == pytest.approx(742.03641, abs=1e-3)
        assert chain.j_im[0] == pytest.approx(-0.93637, abs=1e-3)
        assert chain.j_im[1] == pytest.approx(0.67396, abs=1e-3)

    def test_aggregate_structure(self):
        chain = theorem2_constants(12)
        t = chain.re_terms
        assert chain.re_delta_bound == max(t[0] + t[1] + t[2], t[3])

    def test_rejects_small_k0(self):
        with pytest.raises(ValueError):
            theorem2_constants(1)

    def test_computed_envelope_mode(self, depth9_values):
        re_env, im_env = envelope_from_values(depth9_values.values())
        chain = theorem2_constants(12, re_envelope=re_env, im_envelope=im_env)
        published = theorem2_constants(12)
        assert chain.j_re[0] == pytest.approx(published.j_re[0], abs=2e-3)
        assert chain.j_im[0] == pytest.approx(published.j_im[0], abs=2e-3)


class TestReports:
    def test_json_and_text(self):
        report = check_q_recursion(3)
        assert '"passed": true' in report.to_json()
        assert "PASS" in report.to_text()
