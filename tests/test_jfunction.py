import cmath
import math

import numpy as np
import pytest

from markov_oracles import euler_j_coefficients, truncation_error_bound
from markovj.jfunction import (
    ARC_MIN_IM,
    j_coefficients,
    j_eval,
)

KNOWN = [1, 744, 196884, 21493760, 864299970, 20245856256]


class TestCoefficients:
    def test_known_head(self, series):
        assert series[: len(KNOWN)] == tuple(KNOWN)

    def test_order(self, series):
        # c_{-1}, c_0, ..., c_40.
        assert type(series) is tuple
        assert len(series) == 42

    def test_growth_envelope(self, series):
        for m, c in enumerate(series[2:], start=1):
            assert c <= math.exp(4 * math.pi * math.sqrt(m))

    def test_validation(self):
        # j = 1/q + 744 + sum of c_m q^m with every c_m a positive integer.
        coefficients = j_coefficients(40)
        assert coefficients[:2] == (1, 744)
        assert all(type(c) is int and c > 0 for c in coefficients[2:])

    def test_bad_order(self):
        with pytest.raises(ValueError):
            j_coefficients(-1)

    def test_equals_the_euler_product_route(self):
        # Delta from E4 and E6 against Delta = q prod (1 - q^n)^24.  The
        # oracle's truncated arithmetic is exact to its order, so its
        # order-300 series holds every lower order's as a prefix.
        reference = euler_j_coefficients(300)
        assert reference[: len(KNOWN)] == tuple(KNOWN)
        for order in range(301):
            assert j_coefficients(order) == reference[: order + 2], order


class TestEvaluation:
    def test_special_points(self, series):
        assert abs(j_eval(1j, series) - 1728.0) < 1e-9
        assert abs(j_eval(cmath.exp(1j * math.pi / 3), series)) < 1e-9

    def test_real_on_arc(self, series):
        thetas = np.linspace(math.pi / 3, 2 * math.pi / 3, 201)
        vals = j_eval(np.exp(1j * thetas), series)
        assert np.max(np.abs(vals.imag)) < 1e-10

    def test_rejects_low_strip(self, series):
        with pytest.raises(ValueError):
            j_eval(0.5 + 0.5j, series)

    def test_rejects_nan(self, series):
        # A NaN imaginary part is not on the strip: refused, not evaluated.
        for z in (complex(0.1, math.nan), np.array([1j, complex(0.1, math.nan)])):
            with pytest.raises(ValueError, match="Im z must be"):
                j_eval(z, series)

    def test_scalar_and_array_agree(self, series):
        z = 0.3 + 1.1j
        arr = j_eval(np.array([z]), series)
        assert arr[0] == j_eval(z, series)

    def test_truncation_bound(self, series):
        # At the arc the order-40 tail is far below double precision.
        assert truncation_error_bound(40, math.sqrt(3) / 2) < 1e-40
        # Order-20 vs order-40 agree within the order-20 bound.
        short = j_coefficients(20)
        z = cmath.exp(1j * 1.2)
        diff = abs(j_eval(z, short) - j_eval(z, series))
        assert diff <= truncation_error_bound(20, z.imag) + 1e-12

    def test_bound_rejects_low_y(self):
        with pytest.raises(ValueError):
            truncation_error_bound(40, 0.5)

    def test_bound_rejects_nan_y(self):
        with pytest.raises(ValueError, match="below the admissible strip"):
            truncation_error_bound(40, math.nan)

    def test_min_im_constant(self):
        assert ARC_MIN_IM == pytest.approx(math.sqrt(3) / 2, abs=1e-8)
