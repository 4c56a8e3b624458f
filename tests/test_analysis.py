import math
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    denominator_sequence,
    envelope_from_values,
    g_kernel,
    gg_prime_ranges,
    gp_kernel,
    theorem2_constants,
)
from markovj.tree import (
    ROOT,
    TIP_LEFT,
    TIP_RIGHT,
    TreeError,
    build_tree,
    farey_median,
    node_at,
    walk_path,
)


def _cap(path: str, qmax: int = 10_000) -> str:
    """The longest prefix of ``path`` whose node has q <= qmax.

    A uniformly random 30-step path has median q near 5e5, and its
    Markov number some 2e5 digits, too big to build in a test."""
    lq, rq, q = 1, 2, 3
    for i, step in enumerate(path):
        lq, rq = (lq, q) if step == "L" else (q, rq)
        q = lq + rq
        if q > qmax:
            return path[:i]
    return path


def _turn_rule_pair(path: str) -> set[str]:
    """Paths of the two predecessors by the turn-level rule: the parent,
    and the node above the path's last turn (the branch tip on a pure
    branch); the root's are the two tips."""
    if not path:
        return {TIP_LEFT.path, TIP_RIGHT.path}
    base = TIP_RIGHT if path.startswith("R") else TIP_LEFT
    chain = [base, *walk_path(path)]  # chain[i] is the node of level i
    n = len(path) + 1
    turns = [1] + [i + 1 for i in range(1, len(path)) if path[i - 1] != path[i]]
    return {chain[n - 1].path, chain[turns[-1] - 1].path}


paths = st.text(alphabet="LR", max_size=30).map(_cap)


class TestDecompose:
    """A node splits into its two predecessors u and v, the endpoints of
    its Farey interval, which every node records."""

    def test_pure_left_branch(self):
        node = node_at("LLL")
        assert node.left is TIP_LEFT
        assert node.right.path == "LL" and node.right.level == 3

    def test_single_turn(self):
        node = node_at("RL")
        assert node.left.path == ""
        assert node.right.path == "R"

    def test_root(self):
        assert ROOT.left is TIP_LEFT and ROOT.right is TIP_RIGHT
        assert TIP_LEFT.left is TIP_LEFT.right is None
        assert TIP_RIGHT.left is TIP_RIGHT.right is None

    def test_q_identity(self):
        node = node_at("RLLRL")
        assert node.q == node.left.q + node.right.q

    @given(paths)
    @settings(deadline=None)
    def test_node_is_mediant_of_neighbours(self, path):
        node = node_at(path)
        assert node.farey == farey_median(node.left.farey, node.right.farey)
        assert node.q == node.left.q + node.right.q

    @given(paths)
    @settings(deadline=None)
    def test_neighbours_match_turn_rule(self, path):
        node = node_at(path)
        assert {node.left.path, node.right.path} == _turn_rule_pair(path)

    def test_build_tree_agrees_with_node_at(self):
        for node in build_tree(6)[2:]:  # the tips have no L/R path
            walked = node_at(node.path)
            assert (walked.left, walked.right) == (node.left, node.right)


class TestQRecursion:
    def test_passes_to_depth_eight(self):
        report = check_q_recursion(build_tree(8))
        assert report.passed

    def test_failure_raises_tree_error(self, monkeypatch):
        monkeypatch.setattr(analysis, "_mat_mul", lambda A, B: ((0, 0), (0, 0)))
        with pytest.raises(TreeError, match="matrix recursion fails"):
            check_q_recursion(build_tree(4))

    def test_figure_examples(self):
        assert node_at("RL").q == 8 == node_at("R").q + node_at("").q
        assert node_at("LR").q == 7 == node_at("L").q + node_at("").q


class TestInterlacing:
    def test_small_depth(self, depth9_values):
        report = check_interlacing(depth9_values, build_tree(4))
        assert report.passed
        assert "0 violation" in report.checks[0].details

    def test_missing_values(self):
        with pytest.raises(KeyError):
            check_interlacing({}, build_tree(3))


class TestJRecursion:
    def test_small_depth(self, depth9_values):
        report = check_J_recursion(depth9_values, build_tree(5))
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
        values = self._synthetic({"LL": 0.1, "RR": 0.5})
        check = check_J_recursion(values, build_tree(3)).checks[0]
        assert check.status == "pass"
        assert check.measured == pytest.approx(0.5)
        assert "'RR'" in check.details
        assert "'LL'" not in check.details

    def test_names_argmax_and_violation(self):
        values = self._synthetic({"LL": 0.1, "RR": 3.0})
        check = check_J_recursion(values, build_tree(3)).checks[0]
        assert check.status == "fail"
        assert check.details.endswith("at 'RR', violation at 'RR'")


class TestGGPrime:
    def test_zero_at_unit_product(self):
        assert g_kernel(1.0, 1.0, math.pi / 2) == 0.0

    def test_ranges(self):
        report = gg_prime_ranges()
        assert report.passed

    @staticmethod
    def _brute_force_extrema(kernel, box, grid):
        """Reference: the pointwise kernel on the whole box, one theta at a time."""
        xs = np.linspace(box[0], box[1], grid)
        vmin, vmax = math.inf, -math.inf
        for theta in np.linspace(math.pi / 3.0, 2.0 * math.pi / 3.0, grid):
            vals = kernel(xs[:, None], xs[None, :], theta)
            vmin = min(vmin, float(vals.min()))
            vmax = max(vmax, float(vals.max()))
        return vmin, vmax

    @pytest.mark.parametrize("grid", [100, 200])
    def test_fused_sampler_equals_kernels(self, grid, monkeypatch):
        expected = [self._brute_force_extrema(kernel, box, grid)
                    for box in (analysis.VALUE_BOX, analysis.CONJ_BOX)
                    for kernel in (g_kernel, gp_kernel)]
        got = (analysis._box_extrema(analysis.VALUE_BOX, grid)
               + analysis._box_extrema(analysis.CONJ_BOX, grid))
        assert got == expected
        monkeypatch.setattr(analysis, "GG_GRID", grid)
        report = gg_prime_ranges()
        assert [c.measured for c in report.checks] == [lo for lo, _ in expected]

    def test_no_cube_sized_array(self):
        # One (200, 200) float array is 320 kB; a 200^3 one would be 64 MB.
        tracemalloc.start()
        try:
            gg_prime_ranges()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestCoincidence:
    def test_envelope(self):
        assert coincidence_envelope(1) == 10.0
        phi = (1 + math.sqrt(5)) / 2
        assert coincidence_envelope(3) == pytest.approx(10 * phi**-4, rel=1e-12)

    def test_report(self):
        report = coincidence_bound(build_tree(5))
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

    def test_sequence_needs_no_deep_recursion(self):
        # The leftmost branch is qmax levels deep; a recursive walk
        # overflowed the stack near qmax = 990.
        frames, frame = 0, sys._getframe()
        while frame is not None:
            frames, frame = frames + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frames + 50)
        try:
            seq = denominator_sequence(300)
        finally:
            sys.setrecursionlimit(limit)
        assert len(seq) == 13700 and seq[-1][0] == 300

    def test_markov_numbers_beyond_float_range(self):
        # At depth 400 the largest c has 168 digits, so 9c^2 - 4
        # overflows a float; log eps must come from the integer c.
        report = asymptotics_report(depth=400)
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
        report = check_q_recursion(build_tree(3))
        assert '"passed": true' in report.to_json()
        assert "PASS" in report.to_text()
