"""Acceptance suite: one check per criterion, one printed verdict line.

Each test prints "criterion N: PASS|FAIL - <summary>" so a plain pytest
run doubles as the acceptance report.
"""

import cmath
import math

import numpy as np

from markovj import (
    average_integral,
    build_tree,
    check_interlacing,
    check_J_recursion,
    check_q_recursion,
    j_eval,
)
from markovj import analysis
from markovj.analysis import (
    asymptotics_report,
    envelope_from_values,
    gg_prime_ranges,
    theorem2_constants,
)
from markovj.cf import period_matrix
from markovj.integrals import ArcIntegrator


def verdict(capsys, num: int, ok: bool, summary: str) -> None:
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {summary}")
    assert ok, summary


def test_criterion_1_golden_tables(capsys, reference_rows, reference_values):
    """All 80 published rows reproduced to 1e-7 relative per part."""
    worst = 0.0
    for row in reference_rows:
        value = reference_values[(row["p"], row["q"])]
        for got, want in (
            (value.J_over_q.real, row["Jq"].real),
            (value.J_over_q.imag, row["Jq"].imag),
            (value.j.real, row["j"].real),
            (value.j.imag, row["j"].imag),
        ):
            err = abs(got) if want == 0 else abs(got - want) / abs(want)
            worst = max(worst, err)
    verdict(capsys, 1, worst < 1e-7, f"80 rows, worst per-part error {worst:.3g}")


def test_criterion_2_arc_average(capsys, series):
    avg = average_integral(tol=1e-9, integrator=ArcIntegrator(series))
    err = abs(avg - 753.982)
    verdict(capsys, 2, err < 1e-3, f"arc average {avg:.6f}, |diff| {err:.2g}")


def test_criterion_3_special_values(capsys, series):
    e1 = abs(j_eval(1j, series) - 1728.0)
    e2 = abs(j_eval(cmath.exp(1j * math.pi / 3), series))
    thetas = np.linspace(math.pi / 3, 2 * math.pi / 3, 1000)
    im = float(np.max(np.abs(j_eval(np.exp(1j * thetas), series).imag)))
    ok = e1 < 1e-9 and e2 < 1e-9 and im < 1e-10
    verdict(capsys, 3, ok, f"|j(i)-1728|={e1:.2g}, |j(rho)|={e2:.2g}, max arc Im={im:.2g}")


def test_criterion_4_exact_structure(capsys):
    nodes = build_tree(9)
    for node in nodes:
        a, b, c = node.triple
        assert a * a + b * b + c * c == 3 * a * b * c
        assert len(node.period) == node.q
        assert node.period.digit_sum == 3 * node.q
        (m00, _), (_, m11) = period_matrix(node.period)
        assert m00 + m11 == 3 * node.c
        assert (node.k**2 + 1) % node.c == 0
    report = check_q_recursion(build_tree(9))  # raises on any mismatch
    verdict(capsys, 4, report.passed, f"{len(nodes)} nodes, all integer identities exact")


def test_criterion_5_local_recursion_bounds(capsys, depth9_values):
    assert analysis.DELTA_SLACK == 1e-6
    report = check_J_recursion(depth9_values, build_tree(9))
    ratio = report.checks[0].measured
    verdict(capsys, 5, report.passed, f"max |delta|/bound {ratio:.3g} over levels 2..9")


def test_criterion_6_interlacing(capsys, depth9_values):
    assert (analysis.INTERLACE_TOL, analysis.INTERLACE_HARD_TOL) == (1e-9, 1e-6)
    report = check_interlacing(depth9_values, build_tree(9))
    verdict(capsys, 6, report.passed, report.checks[0].details)


def test_criterion_7_bound_chain(capsys):
    chain = theorem2_constants(12)
    targets = [
        (chain.re_delta_bound, 1.41173),
        (chain.im_delta_bound, 1.23611),
        (chain.J_sqrtn_re[0], 3206.24623),
        (chain.J_sqrtn_re[1], 3491.04708),
        (chain.J_sqrtn_im[0], -4.40533),
        (chain.J_sqrtn_im[1], 3.170734),
        (chain.j_re[0], 681.50081),
        (chain.j_re[1], 742.03641),
        (chain.j_im[0], -0.93637),
        (chain.j_im[1], 0.67396),
    ]
    worst = max(abs(got - want) for got, want in targets)
    verdict(capsys, 7, worst < 1e-3, f"10 constants at k0=12, worst |diff| {worst:.2g}")


def test_criterion_8_envelope(capsys, depth9_values, reference_values):
    # The published envelope over levels <= 12: the Re extremes sit at
    # the two tips and the Im minimum at the root, so the computed
    # depth-9 set plus the published-row fractions covers it.
    values = list(depth9_values.values()) + list(reference_values.values())
    (re_lo, re_hi), (im_lo, im_hi) = envelope_from_values(values)
    ok = (
        abs(re_lo - 1251.36168) < 1e-3
        and abs(re_hi - 1359.5674) < 1e-3
        and im_lo > -0.4813 - 1e-3
        and im_hi < 1e-3
    )
    verdict(capsys, 8, ok, f"Re(J/q) in [{re_lo:.5f}, {re_hi:.5f}], "
                   f"Im(J/q) in [{im_lo:.5f}, {im_hi:.5g}]")


def test_criterion_9_gg_ranges(capsys):
    assert analysis.GG_GRID == 200
    report = gg_prime_ranges()
    verdict(capsys, 9, report.passed, "; ".join(c.details for c in report.checks[:1]))


def test_criterion_10_asymptotics(capsys):
    report = asymptotics_report(depth=40)
    trend = [c for c in report.checks if c.status != "info"]
    ok = all(c.ok for c in trend)
    verdict(capsys, 10, ok, "windowed deviations non-increasing for q and log c trends")
