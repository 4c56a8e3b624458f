import cmath
import functools
import hashlib
import math
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from markov_oracles import (
    coincidence_gaps,
    coincidence_ratio,
    envelope_from_values,
    farey_mismatches,
)
from markovj import analysis
from markovj.integrals import log_epsilon
from markovj.analysis import (
    CONTRACTION,
    BoundChain,
    asymptotics_report,
    check_interlacing,
    check_J_recursion,
    check_q_recursion,
    coincidence_bound,
    coincidence_envelope,
    gg_prime_ranges,
    theorem2_constants,
)
from markovj.tree import (
    ROOT,
    TIP_LEFT,
    TIP_RIGHT,
    TreeError,
    build_tree,
    denominator_sequence,
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
        assert farey_mismatches(node) == []

    @given(paths)
    @settings(deadline=None)
    def test_neighbours_match_turn_rule(self, path):
        node = node_at(path)
        assert {node.left.path, node.right.path} == _turn_rule_pair(path)

    def test_build_tree_agrees_with_node_at(self):
        for node in build_tree(6)[1:-1]:  # the tips have no L/R path
            walked = node_at(node.path)
            assert (walked.left, walked.right) == (node.left, node.right)


class TestQRecursion:
    def test_passes_to_depth_eight(self):
        report = check_q_recursion(build_tree(8))
        assert report.passed

    def test_reads_the_path_through_parent_links(self):
        # The nodes need not hold their path prefixes; the deepest node
        # of the path carries its largest coefficient.
        alone = check_q_recursion([node_at("RLLRRL")]).checks[0].details
        along = check_q_recursion(list(walk_path("RLLRRL"))).checks[0].details
        assert (alone, along) == ("1 nodes verified, max coefficient 12 at 'RLLRRL'",
                                  "6 nodes verified, max coefficient 12 at 'RLLRRL'")

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


def _numpy_kernels(x, y, theta):
    """g and g' by numpy, in the order of operations of the array kernels
    the search once evaluated (``** 2`` of an array is x * x)."""
    s, c = np.sin(theta), np.cos(theta)
    den = ((c - x) ** 2 + s * s) * ((c - y) ** 2 + s * s)
    return -s * (1.0 - x * y) / den, (-x - y + c * (1.0 + x * y)) / den


#: The extremizers of g and g' on the state boxes, all on x = y at an
#: end of the arc, from a multistart L-BFGS-B run: (box, part, sign,
#: x = y, theta, extremum), sign 1 for a least value and -1 for a
#: greatest.
EXTREMIZERS = [
    (analysis.VALUE_BOX, "g", 1, 3 / 8, math.pi / 3, -1.26964157),
    (analysis.VALUE_BOX, "g", -1, 1.5320889, math.pi / 3, 0.354112475),
    (analysis.VALUE_BOX, "g'", 1, 0.8152075, math.pi / 3, -1.106359287),
    (analysis.VALUE_BOX, "g'", -1, 29 / 12, math.pi / 3, -0.0722184297),
    (analysis.CONJ_BOX, "g", 1, -2 / 5, 2 * math.pi / 3, -1.25945523),
    (analysis.CONJ_BOX, "g", -1, -1.5320889, 2 * math.pi / 3, 0.354112475),
    (analysis.CONJ_BOX, "g'", 1, -21 / 8, 2 * math.pi / 3, 0.0470550943),
    (analysis.CONJ_BOX, "g'", -1, -0.8152075, 2 * math.pi / 3, 1.106359287),
]
#: The index of each part in the (g, g') pairs of the kernels.
PARTS = {"g": 0, "g'": 1}


@functools.cache
def _proved_range(box, part):
    """The proved lower and upper bounds of g or g' over ``box``."""
    (vmin, _), (vmax, _) = analysis._extrema(box)[PARTS[part]]
    return vmin - analysis.GG_MARGIN, vmax + analysis.GG_MARGIN


class TestGGPrime:
    def test_zero_at_unit_product(self):
        assert analysis._diagonal(1.0, 0.0)[0] == 0.0 == _numpy_kernels(1.0, 1.0, math.pi / 2)[0]

    @pytest.mark.parametrize("part", [0, 1], ids=["g_kernel", "gp_kernel"])
    def test_scalar_and_array_calls_agree(self, part):
        # The closed forms on x = y = s and the numpy kernels of the grid
        # oracle below are one function, to the rounding of a value of F.
        theta = 1.8408131400379806
        scalar = analysis._diagonal(-0.5, math.cos(theta))[part]
        array = _numpy_kernels(np.array([-0.5]), np.array([-0.5]), np.array([theta]))[part]
        assert abs(scalar - array[0]) <= 2.0**-45

    @settings(deadline=None, max_examples=100)
    @given(s=st.floats(*analysis.CONJ_BOX) | st.floats(*analysis.VALUE_BOX),
           theta=st.floats(math.pi / 3.0, 2.0 * math.pi / 3.0))
    def test_kernels_are_one_over_w(self, s, theta):
        # g' + i g = z/(z - s)^2 = 1/w with w = z - 2s + s^2 conj(z), z = e^(i theta).
        z = cmath.exp(1j * theta)
        g, gp = analysis._diagonal(s, math.cos(theta))
        assert abs(complex(gp, g) - z / (z - s) ** 2) <= 4e-15
        assert abs(complex(gp, g) - 1.0 / (z - 2.0 * s + s * s * z.conjugate())) <= 4e-15

    @settings(deadline=None, max_examples=100)
    @given(s=st.floats(*analysis.VALUE_BOX) | st.floats(*analysis.CONJ_BOX),
           theta=st.floats(math.pi / 3.0, 2.0 * math.pi / 3.0))
    def test_mirror_identity(self, s, theta):
        # F(-s, -s, pi - theta) = -conj F(s, s, theta): g(-s, -c) = g(s, c)
        # and g'(-s, -c) = -g'(s, c), in the closed forms to the last bit.
        z, mirror = cmath.exp(1j * theta), cmath.exp(1j * (math.pi - theta))
        assert abs(mirror / (mirror + s) ** 2 + (z / (z - s) ** 2).conjugate()) <= 4e-15
        g, gp = analysis._diagonal(s, math.cos(theta))
        assert analysis._diagonal(-s, -math.cos(theta)) == (g, -gp)

    @pytest.mark.parametrize("cubic, named", [
        ((0.0, -3.0, 1.0), 2.0 * math.cos(2.0 * math.pi / 9.0)),
        ((-6.0, 3.0, 1.0), 2.0 - 2.0 * math.sqrt(3.0) * math.sin(math.pi / 9.0)),
        ((0.0, -3.0, -1.0), 2.0 * math.cos(math.pi / 9.0)),
        ((6.0, 3.0, -1.0), None),
    ], ids=["g-top", "gp-top", "g-bottom", "gp-bottom"])
    def test_cubic_roots(self, cubic, named):
        # Each root leaves a residual of a few ulps of the cubic's terms,
        # the three are numpy's, and the named edge critical point is one
        # of them.
        a, b, d = cubic
        roots = sorted(analysis._cubic_roots(*cubic))
        for r in roots:
            terms = abs(r) ** 3 + abs(a) * r * r + abs(b * r) + abs(d)
            assert abs(((r + a) * r + b) * r + d) <= 8 * 2.0**-52 * terms
        assert roots == pytest.approx(sorted(np.roots([1.0, *cubic]).real), abs=1e-13)
        assert named is None or min(abs(r - named) for r in roots) <= 1e-15

    @pytest.mark.parametrize("box", [analysis.VALUE_BOX, analysis.CONJ_BOX], ids=["value", "conj"])
    def test_nine_candidates_on_each_box(self, box, monkeypatch):
        # Four corners, c*(lo) and c*(hi), and three cubic roots, all in
        # the box and on the arc.
        points, diagonal = [], analysis._diagonal
        monkeypatch.setattr(analysis, "_diagonal",
                            lambda s, c: points.append((s, c)) or diagonal(s, c))
        analysis._extrema(box)
        assert len(set(points)) == len(points) == 9
        assert all(box[0] <= s <= box[1] and -0.5 <= c <= 0.5 for s, c in points)

    @pytest.mark.parametrize("box", [(0.35, 29 / 12), (3 / 8, 6.9), (-6.9, -2 / 5),
                                     (-0.5, 29 / 12)],
                             ids=["low", "high", "mirrored-high", "straddling"])
    def test_box_outside_the_proof_is_refused(self, box, monkeypatch):
        monkeypatch.setattr(analysis, "VALUE_BOX", box)
        refusal = rf"^the g/g' range proof does not cover the box \[{box[0]}, "
        with pytest.raises(ValueError, match=refusal):
            gg_prime_ranges()

    def test_ranges(self):
        report = gg_prime_ranges()
        assert report.passed
        assert [c.measured for c in report.checks] == [
            _proved_range(box, part)[0] for box in (analysis.VALUE_BOX, analysis.CONJ_BOX)
            for part in PARTS]

    @staticmethod
    def _brute_force_extrema(part, box, grid):
        """Reference: numpy kernels on the whole box, one theta at a time."""
        xs = np.linspace(box[0], box[1], grid)
        vmin, vmax = math.inf, -math.inf
        for theta in np.linspace(math.pi / 3.0, 2.0 * math.pi / 3.0, grid):
            vals = _numpy_kernels(xs[:, None], xs[None, :], theta)[part]
            vmin = min(vmin, float(vals.min()))
            vmax = max(vmax, float(vals.max()))
        return vmin, vmax

    @pytest.mark.parametrize("grid", [2, 3, 7, 37, 100, 101, 200])
    def test_proved_ranges_hold_the_grid_extrema(self, grid):
        for box in (analysis.VALUE_BOX, analysis.CONJ_BOX):
            for name, part in PARTS.items():
                lo, hi = _proved_range(box, name)
                vmin, vmax = self._brute_force_extrema(part, box, grid)
                assert lo - 2.0**-45 <= vmin and vmax <= hi + 2.0**-45

    @pytest.mark.parametrize("box, part, sign, x, theta, extremum", EXTREMIZERS,
                             ids=[f"{'value' if b is analysis.VALUE_BOX else 'conj'}-"
                                  f"{p}-{'min' if s == 1 else 'max'}"
                                  for b, p, s, *_ in EXTREMIZERS])
    def test_proved_ranges_hold_the_continuous_extrema(self, box, part, sign, x, theta,
                                                       extremum):
        # The grid's greatest g on the value box, 0.354110, falls short of
        # the 0.3541125 that g reaches.
        value, at = analysis._extrema(box)[PARTS[part]][0 if sign == 1 else 1]
        assert value == pytest.approx(extremum, abs=1e-8)
        assert at == pytest.approx((x, x, theta), abs=1e-7)
        assert value == pytest.approx(_numpy_kernels(*at)[PARTS[part]], abs=2.0**-45)
        proved = _proved_range(box, part)[0 if sign == 1 else 1]
        assert proved == value - sign * analysis.GG_MARGIN
        assert sign * proved <= sign * _numpy_kernels(x, x, theta)[PARTS[part]] + 2.0**-45

    @settings(deadline=None, max_examples=100)
    @given(box=st.sampled_from([analysis.VALUE_BOX, analysis.CONJ_BOX]), data=st.data())
    def test_kernel_is_a_mean_over_the_diagonal(self, box, data):
        # F(x, y, theta) is the divided difference of h(s) = z/(z - s), so
        # the mean of h'(s) = F(s, s, theta) over [x, y], here by a
        # 40-point Gauss-Legendre rule.  F's parts off the diagonal then
        # lie between the proved bounds of g and g' on it.
        x, y = sorted(data.draw(st.lists(st.floats(*box), min_size=2, max_size=2, unique=True)))
        theta = data.draw(st.floats(math.pi / 3.0, 2.0 * math.pi / 3.0))
        z = cmath.exp(1j * theta)
        nodes, weights = np.polynomial.legendre.leggauss(40)
        s = (x + y) * 0.5 + (y - x) * 0.5 * nodes
        mean = complex(np.dot(weights, z / (z - s) ** 2)) * 0.5
        F = z / ((z - x) * (z - y))
        assert abs(F - mean) <= 1e-14
        for part, value in (("g", F.imag), ("g'", F.real)):
            lo, hi = _proved_range(box, part)
            assert lo - 2.0**-45 <= value <= hi + 2.0**-45

    @pytest.mark.parametrize("side", [0, 1], ids=["min", "max"])
    def test_stated_endpoint_past_the_proved_extremum_fails(self, side, monkeypatch):
        # One pad past the proved bound, beyond the 5e-5 rounding slack.
        proved = _proved_range(analysis.VALUE_BOX, "g")[side]
        stated = list(analysis.G_RANGE_VALUE)
        stated[side] = proved + (5e-5 + analysis.GG_MARGIN) * (1 if side == 0 else -1)
        monkeypatch.setattr(analysis, "G_RANGE_VALUE", tuple(stated))
        report = gg_prime_ranges()
        assert [c.status for c in report.checks] == ["fail", "pass", "pass", "pass"]
        relation = ">=" if side == 0 else "<="
        assert f"proved {relation} {proved:.6f}" in report.checks[0].details

    def test_loose_endpoint_fails_near(self, monkeypatch):
        lo, hi = analysis.GP_RANGE_CONJ
        monkeypatch.setattr(analysis, "GP_RANGE_CONJ", (lo - 0.03 * (hi - lo), hi))
        report = gg_prime_ranges()
        assert [c.status for c in report.checks] == ["pass", "pass", "pass", "fail"]
        assert report.checks[3].details.endswith("endpoints within 2%: False")

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

    @pytest.mark.parametrize("k0", range(1, 61))
    def test_tail_is_closed_form(self, k0):
        # sum_{k >= k0} 10 phi^(-2(k-1)) = 10 phi^(-(2k0-3)); 2 000 terms
        # leave out less than phi^(-4000) of it.
        tail = math.fsum(coincidence_envelope(k) for k in range(k0, k0 + 2000))
        assert tail == pytest.approx(10.0 * CONTRACTION ** (2 * k0 - 3), rel=1e-12, abs=0)

    def test_report(self):
        report = coincidence_bound(build_tree(5))
        assert report.passed

    @pytest.mark.parametrize("depth, rotations", [(4, 123), (5, 366)])
    def test_equals_the_all_pairs_oracle(self, depth, rotations):
        # Every pair, not a sample: 400 seeded draws read 0.0088965 at
        # depth 5, where every pair reads 0.0089073.  The 60 digits of
        # the scan are past 2 q_max = 42.
        nodes = build_tree(depth)
        gaps = coincidence_gaps([(n.path, n.period) for n in nodes])
        ratio, r, a, b = coincidence_ratio(gaps)
        check = coincidence_bound(nodes).checks[0]
        assert check.measured == pytest.approx(float(ratio), rel=1e-12)
        assert check.details == (f"every pair of {rotations} rotations, sharing up to "
                                 f"{max(gaps)} digits, widest at r={r}: {a!r} and {b!r}")

    def test_every_shared_length_to_depth_six(self, monkeypatch):
        # An envelope that admits one r at a time makes the check read
        # the widest |u - v| of the pairs sharing exactly r digits.  It
        # keeps relative precision at every r, down to 3.4e-41 at r = 52,
        # where a float u - v of values near 3 would read 0.
        nodes = build_tree(6)
        gaps = coincidence_gaps([(n.path, n.period) for n in nodes])
        assert sorted(gaps) == list(range(1, 53))
        for r, (gap, a, b) in gaps.items():
            monkeypatch.setattr(analysis, "coincidence_envelope",
                                lambda k, r=r: 1.0 if k == r else math.inf)
            check = coincidence_bound(nodes).checks[0]
            assert check.measured == pytest.approx(float(gap), rel=1e-12)
            assert check.details.endswith(f"widest at r={r}: {a!r} and {b!r}")

    def test_long_shared_lengths_at_depth_seven(self, monkeypatch):
        # The longest word has 55 digits, so 112-digit keys tell every two
        # rotations apart (Fine and Wilf).  Sorted neighbours share up to
        # 86 digits, past the 60 of the keys the check once had, which
        # left 301 pairs unchecked and ended blocks on arbitrary ties.
        nodes = build_tree(7)
        gaps = coincidence_gaps([(n.path, n.period) for n in nodes], digits=112)
        assert max(gaps) == 86
        for r in range(55, 87):
            gap, a, b = gaps[r]
            monkeypatch.setattr(analysis, "coincidence_envelope",
                                lambda k, r=r: 1.0 if k == r else math.inf)
            check = coincidence_bound(nodes).checks[0]
            assert check.measured == pytest.approx(float(gap), rel=1e-12)
            assert check.details.endswith(f"widest at r={r}: {a!r} and {b!r}")

    def test_finite_at_the_longest_shared_length_to_depth_ten(self, monkeypatch):
        # 88 575 rotations, keys of 466 digits.  The widest pair at
        # r = 374 is 1.3e-291 apart, 1.05e-136 of the envelope there
        # (1.2e-155).  The two named words' rotations hold that pair, so
        # a scan of their pairs alone is its oracle.
        envelope = analysis.coincidence_envelope
        monkeypatch.setattr(analysis, "coincidence_envelope",
                            lambda k: envelope(k) if k == 374 else math.inf)
        check = coincidence_bound(build_tree(10)).checks[0]
        a, b = "RLRLRLRL", "RLRLRLRLR"
        assert check.details == (f"every pair of 88575 rotations, sharing up to 374 digits, "
                                 f"widest at r=374: {a!r} and {b!r}")
        gaps = coincidence_gaps([(p, node_at(p).period) for p in (a, b)], digits=470)
        gap, *names = gaps[374]
        assert names == [a, b]
        assert math.isfinite(check.measured)
        assert check.measured == pytest.approx(float(gap) / envelope(374), rel=1e-12)

    def test_envelope_is_normal_to_r_739(self):
        assert coincidence_envelope(739) >= sys.float_info.min > coincidence_envelope(740)

    def test_a_subnormal_envelope_is_refused(self, monkeypatch):
        monkeypatch.setattr(analysis, "coincidence_envelope", lambda k: 1e-310)
        with pytest.raises(ValueError, match=r"^coincidence envelope at r=\d+ is below the "
                                             r"least normal float$"):
            coincidence_bound(build_tree(3))

    def test_a_repeated_node_counts_once(self):
        nodes = build_tree(5)
        twice = coincidence_bound(nodes + nodes[3:9] + [nodes[0]]).to_dict()
        assert twice == coincidence_bound(nodes).to_dict()
        assert twice["checks"][0]["details"].startswith("every pair of 366 rotations, ")

    def test_empty_list(self):
        report = coincidence_bound([])
        assert report.to_dict() == {"title": "coincidence bound to depth 0", "passed": True,
                                    "checks": [{"name": "pairwise coincidence bound",
                                                "status": "pass", "measured": 0.0,
                                                "bound": 1.0, "margin": None,
                                                "details": "every pair of 0 rotations, "
                                                           "sharing up to 0 digits"}]}

    def test_passes_at_depth_seven(self):
        # 3 282 rotations, whose sorted neighbours share up to 86 digits;
        # a float max - min over the blocks reads 4.3e6 at r = 56.
        report = coincidence_bound(build_tree(7))
        check = report.checks[0]
        assert report.title == "coincidence bound to depth 7"
        assert check.status == "pass"
        assert check.measured == pytest.approx(0.0089073, abs=5e-8)
        assert check.details == ("every pair of 3282 rotations, sharing up to 86 digits, "
                                 "widest at r=1: '0/1' and 'RRRRRR'")

    @pytest.mark.parametrize("depth, rotations, top", [(8, 9843, 141), (9, 29526, 230)])
    def test_no_sorted_neighbours_tie(self, depth, rotations, top):
        # 60-digit keys tied 4 732 and 22 825 sorted neighbours here and
        # left their pairs unchecked.
        check = coincidence_bound(build_tree(depth)).checks[0]
        assert check.status == "pass"
        assert check.details == (f"every pair of {rotations} rotations, sharing up to {top} "
                                 f"digits, widest at r=1: '0/1' and {'R' * (depth - 1)!r}")

    def test_rotations_sort_as_digit_tuples(self):
        # Rotations are sorted by their first 2 q_max digits read as one
        # big-endian int, so the ints must sort exactly as the digits, and
        # no two of them tie.
        words = {node.period for node in build_tree(6)}
        cap = 2 * max(map(len, words))
        assert cap == 68
        keys = [((w[i:] + w[:i]) * cap)[:cap] for w in words for i in range(len(w))]
        assert len(keys) == len(set(keys)) == 1095
        assert sorted(keys, key=lambda k: int.from_bytes(k, "big")) == sorted(keys, key=tuple)

    def test_contraction_constant(self):
        assert CONTRACTION == pytest.approx(2 / (1 + math.sqrt(5)), rel=1e-15)


class TestAsymptotics:
    def test_sequence_head(self):
        seq = denominator_sequence(5)
        assert [q for q, _ in seq] == [1, 2, 3, 4, 5, 5]
        assert seq[4] == (5, 29) and seq[5] == (5, 34)

    @pytest.mark.parametrize("qmax", range(3, 15))
    def test_sequence_is_the_trees_denominators(self, qmax):
        # q grows by at least one a level, from 3 at the root, so every
        # q <= qmax is at level qmax - 2 or above: build_tree's nodes,
        # stepped by _child, hold them all.
        want = sorted((n.q, n.c) for n in build_tree(qmax - 2) if n.q <= qmax)
        assert denominator_sequence(qmax) == want

    def test_sequence_is_pinned(self):
        # The 13 700 denominators up to q = 300, pinned.
        assert hashlib.sha256(repr(denominator_sequence(300)).encode()).hexdigest() == (
            "db323ad62ec8f2cf936289208966ab654a28ad91da347ed726efb38520cdf37c")

    def test_sequence_holds_no_q_above_qmax(self):
        # Every qmax below 2 once gave [(1, 1), (2, 2)].
        assert {qmax: denominator_sequence(qmax) for qmax in range(-2, 3)} == {
            -2: [], -1: [], 0: [], 1: [(1, 1)], 2: [(1, 1), (2, 2)]}

    def test_report_passes(self):
        report = asymptotics_report(depth=30)
        assert report.passed

    def test_log_eps_check_reads_as_from_log_epsilon(self):
        # The log eps check reuses the log c of the growth trends; its
        # window means stay those of log_epsilon(c), bit for bit, on both
        # sides of c = 2^256, where log_epsilon drops its correction.
        seq = denominator_sequence(402)
        assert seq[-1][1] >> 256 and not seq[2][1] >> 256
        slope = math.sqrt(3.0) / (math.sqrt(2.0 * analysis.ZAGIER_C) * math.pi)
        assert analysis.LOG_EPS_SLOPE == slope
        deviations = [abs(le - (slope * q + math.log(1.5))) / le
                      for q, le in ((q, log_epsilon(c)) for q, c in seq[2:])]
        means = analysis._window_means(deviations)
        check = asymptotics_report(400).checks[-1]
        assert check.name == "log eps ~ slope q + log(3/2)"
        assert check.measured == means[-1]
        assert check.details == "window deviations " + ", ".join(f"{m:.4f}" for m in means)

    def test_report_dict_keeps_every_check_field(self):
        # A check's JSON record holds every field, in declaration order.
        check = asymptotics_report(3).to_dict()["checks"][0]
        assert check == {"name": "ordering head", "status": "pass", "measured": None,
                         "bound": None, "margin": None, "details": "first denominators "
                         "[1, 2, 3, 4, 5, 5]"}
        assert list(check) == ["name", "status", "measured", "bound", "margin", "details"]

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_refused_before_enumerating(self, depth, monkeypatch):
        # Once a ZeroDivisionError from _window_means([]).
        def no_enumeration(qmax):
            raise AssertionError("denominators enumerated")

        monkeypatch.setattr(analysis, "denominator_sequence", no_enumeration)
        with pytest.raises(ValueError, match=r"\Adepth must be >= 1\Z"):
            asymptotics_report(depth)

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

    def test_log_c_trend_passes_at_depth_eight_hundred(self):
        # Once FAILed: the mean |deviation| levels off at the spread of
        # log c among equal q (0.0225 in the last two windows).
        report = asymptotics_report(depth=800)
        check = next(c for c in report.checks if c.name == "log(c_n) sqrt(C/n) -> 1")
        assert check.status == "pass" and report.passed
        assert -0.002 < check.measured < 0

    @pytest.mark.parametrize("depth, lone", [(1, 3), (2, 1)])
    def test_one_window_is_no_trend(self, depth, lone):
        # Depth 1 has three denominators, and log(c_n)/q_n at depth 2
        # skips the first two of four: one window each, over which a
        # trend check once passed.
        report = asymptotics_report(depth=depth)
        single = [c for c in report.checks if "one window, no trend" in c.details]
        assert len(single) == lone and {c.status for c in single} == {"info"}
        assert report.passed

    @staticmethod
    def _ratios(deviation):
        n = np.arange(1, 100_001, dtype=float)
        return 1.0 + deviation(n)

    def test_trend_with_a_spread_floor_passes(self):
        # Converging on average, with a spread of 0.03 that never shrinks.
        ratios = self._ratios(lambda n: -1 / np.sqrt(n) + 0.03 * (-1.0) ** n)
        assert analysis._trend_check("floor", ratios, 1.0).status == "pass"

    @pytest.mark.parametrize("deviation", [
        lambda n: np.full_like(n, 0.05),  # stays off its limit
        lambda n: 0.01 * np.log(n),  # drifts away
        lambda n: 0.2 * np.sin(np.log(n)),  # wanders
    ], ids=["offset", "drift", "wander"])
    def test_trend_that_does_not_converge_fails(self, deviation):
        check = analysis._trend_check("synthetic", self._ratios(deviation), 1.0)
        assert check.status == "fail", check.details


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

    def test_k0_up_to_the_largest_float(self):
        # A k0 past float range once raised OverflowError from the powers.
        for k0 in (10**8, int(sys.float_info.max)):
            chain = theorem2_constants(k0)
            assert chain.re_delta_bound == chain.im_delta_bound == 0.0
        for k0 in (int(sys.float_info.max) + 1, 10**400):
            with pytest.raises(ValueError, match="^k0 must be at most 1.79769e"):
                theorem2_constants(k0)

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
