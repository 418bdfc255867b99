"""Tests of djcm.validate's own helpers; the criteria themselves run in
test_acceptance."""

import math

import numpy as np
import pytest

from djcm.model import SectorCoefficients, sector_coefficients
from djcm.validate import theta_poly

from test_dynamics import random_params, theta
from test_model import fig_params


def test_theta_poly_no_drive_no_detuning():
    coeffs = SectorCoefficients(h=0.0, s=0.0, nu=0.0, v1=0.03, v2=0.05, omega_e=0.0, n=0)
    a2, a1, a0 = theta_poly(coeffs)
    assert a2 == 0.0
    assert a1 == pytest.approx(0.03**2 + 0.05**2, abs=1e-18)
    assert a0 == 0.0


def test_theta_poly_fig_row_coefficients():
    c = sector_coefficients(fig_params())
    a2, a1, a0 = theta_poly(c)
    assert a2 == pytest.approx(-0.1j, abs=1e-15)
    # 0.04^2 + (0.04*sqrt2)^2 + (0.06*sqrt2)^2 - 0.1*0 = 0.0016+0.0032+0.0072
    assert a1 == pytest.approx(0.0016 + 0.0032 + 0.0072, abs=1e-15)
    v1 = 0.04 * math.sqrt(2.0)
    v2 = 0.06 * math.sqrt(2.0)
    expected_a0 = -1j * (2 * 0.04 * v1 * v2 + v1**2 * 0.1)
    assert a0 == pytest.approx(expected_a0, abs=1e-15)


def test_theta_structure_purely_imaginary_even_coefficients():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = random_params(rng)
        c = sector_coefficients(p)
        a2, a1, a0 = theta_poly(c)
        assert a2.real == 0.0
        assert a1.imag == 0.0
        assert a0.real == 0.0
        # under z -> i*lambda the cubic becomes real up to a global factor i
        lam = rng.uniform(-3, 3)
        assert abs((theta(c, 1j * lam) * -1j).imag) < 1e-15
