import math

import numpy as np
import pytest

from djcm.dynamics import EXCITED, analytic_trajectory
from djcm.model import Kerr, ModelParams, SectorCoefficients, sector_coefficients
from djcm.spectrum import CubicPoly, sector_generator, theta_poly

from test_model import fig_params


def real_cubic_roots_bisection(b2, b1, b0):
    """Real roots of x^3 + b2 x^2 + b1 x + b0 by sign-change bracketing.

    The derivative's critical points split the axis into monotonic
    pieces, so every simple real root sits in exactly one bracket.
    """

    def val(x):
        return ((x + b2) * x + b1) * x + b0

    bound = 1.0 + max(abs(b2), abs(b1), abs(b0))
    nodes = [-bound, bound]
    disc = b2 * b2 - 3.0 * b1
    if disc > 0.0:
        nodes += [(-b2 - math.sqrt(disc)) / 3.0, (-b2 + math.sqrt(disc)) / 3.0]
    nodes = sorted(nodes)
    roots = [x for x in nodes if val(x) == 0.0]
    for lo, hi in zip(nodes, nodes[1:]):
        flo, fhi = val(lo), val(hi)
        if flo == 0.0 or fhi == 0.0 or flo * fhi > 0.0:
            continue
        a, b = lo, hi
        for _ in range(200):
            mid = 0.5 * (a + b)
            if mid == a or mid == b:
                break
            if val(a) * val(mid) <= 0.0:
                b = mid
            else:
                a = mid
        roots.append(0.5 * (a + b))
    return sorted(roots)


def lambda_cubic(coeffs, omega_e):
    """Coefficients of the real cubic in lambda obtained from z -> i*lambda."""
    poly = theta_poly(coeffs, omega_e)
    # Theta(i*lambda) = i * (-(lambda^3) + (h+s) lambda^2 + a1 lambda - g0)
    b2 = -(coeffs.h + coeffs.s)
    b1 = -poly.a1.real
    b0 = 2.0 * omega_e * coeffs.v1 * coeffs.v2 + coeffs.v1**2 * coeffs.s + coeffs.v2**2 * coeffs.h
    return b2, b1, b0


def propagator_roots(coeffs, omega_e):
    """Roots of Theta recorded by the analytic route (-i times K's eigenvalues)."""
    return analytic_trajectory(coeffs, omega_e, EXCITED, np.array([0.0])).roots


def random_params(rng):
    while True:
        w = np.sort(rng.uniform(0.0, 1.0, 3))
        if w[0] < w[1] < w[2]:
            break
    return ModelParams(
        omega_cavity=float(rng.uniform(0.0, 1.0)),
        omega_levels=tuple(float(x) for x in w),
        g1=float(rng.uniform(0.0, 0.2)),
        g2=float(rng.uniform(0.0, 0.2)),
        omega_e=float(rng.uniform(0.0, 0.2)),
        deformation=Kerr(float(rng.uniform(0.0, 0.5))),
        sector_n=int(rng.integers(0, 6)),
    )


def test_theta_poly_no_drive_no_detuning():
    coeffs = SectorCoefficients(h=0.0, s=0.0, nu=0.0, v1=0.03, v2=0.05, n=0)
    poly = theta_poly(coeffs, 0.0)
    assert poly.a2 == 0.0
    assert poly.a1 == pytest.approx(0.03**2 + 0.05**2, abs=1e-18)
    assert poly.a0 == 0.0


def test_theta_poly_fig_row_coefficients():
    c = sector_coefficients(fig_params())
    poly = theta_poly(c, 0.04)
    assert poly.a2 == pytest.approx(-0.1j, abs=1e-15)
    # 0.04^2 + (0.04*sqrt2)^2 + (0.06*sqrt2)^2 - 0.1*0 = 0.0016+0.0032+0.0072
    assert poly.a1 == pytest.approx(0.0016 + 0.0032 + 0.0072, abs=1e-15)
    v1 = 0.04 * math.sqrt(2.0)
    v2 = 0.06 * math.sqrt(2.0)
    expected_a0 = -1j * (2 * 0.04 * v1 * v2 + v1**2 * 0.1)
    assert poly.a0 == pytest.approx(expected_a0, abs=1e-15)


def test_theta_structure_purely_imaginary_even_coefficients():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = random_params(rng)
        poly = theta_poly(sector_coefficients(p), p.omega_e)
        assert poly.a2.real == 0.0
        assert poly.a1.imag == 0.0
        assert poly.a0.real == 0.0
        # under z -> i*lambda the cubic becomes real up to a global factor i
        lam = rng.uniform(-3, 3)
        assert abs((poly(1j * lam) * -1j).imag) < 1e-15


def test_solve_cubic_factorable():
    # h = s = omega_e = 0: Theta = z (z^2 + v1^2 + v2^2) = z (z^2 + 0.1^2)
    coeffs = SectorCoefficients(h=0.0, s=0.0, nu=0.0, v1=0.06, v2=0.08, n=0)
    roots = propagator_roots(coeffs, 0.0)
    expected = (-0.1j, 0.0, 0.1j)
    for got, want in zip(roots.roots, expected):
        assert got == pytest.approx(want, abs=1e-15)
    assert roots.min_pairwise_gap == pytest.approx(0.1, abs=1e-12)


def test_solve_cubic_orders_by_imaginary_part():
    c = sector_coefficients(fig_params(g1=0.06, g2=0.08, chi=0.2))
    roots = propagator_roots(c, 0.04).roots
    assert roots[0].imag < roots[1].imag < roots[2].imag


def test_solve_cubic_vieta_fig_row():
    c = sector_coefficients(fig_params())
    poly = theta_poly(c, 0.04)
    r = propagator_roots(c, 0.04)
    a, b, cc = r.roots
    assert abs((a + b + cc) - (-poly.a2)) <= 1e-12 * max(1.0, abs(poly.a2))
    assert abs(a * b * cc - (-poly.a0)) <= 1e-12 * max(1.0, abs(poly.a0))
    assert abs(a * b + a * cc + b * cc - poly.a1) <= 1e-12 * max(1.0, abs(poly.a1))


def test_solve_cubic_against_bisection_oracle_fig_rows():
    for kwargs in (
        dict(),
        dict(g1=0.06, g2=0.08, chi=0.2),
        dict(omega_e=0.08, g1=0.06, g2=0.08, chi=0.2),
    ):
        c = sector_coefficients(fig_params(**kwargs))
        p = fig_params(**kwargs)
        roots = propagator_roots(c, p.omega_e)
        oracle = real_cubic_roots_bisection(*lambda_cubic(c, p.omega_e))
        assert len(oracle) == 3
        for got, lam in zip(roots.roots, oracle):
            assert got.imag == pytest.approx(lam, abs=1e-12)
            assert abs(got.real) <= 1e-12


def test_property_sweep_roots_purely_imaginary():
    # 1000 random physical tuples, every one checked; oracle = bisection on the real cubic
    rng = np.random.default_rng(20250810)
    eps = np.finfo(float).eps
    for _ in range(1000):
        p = random_params(rng)
        c = sector_coefficients(p)
        roots = propagator_roots(c, p.omega_e)
        scale = max(1.0, max(abs(z.imag) for z in roots.roots))
        assert all(abs(z.real) <= 1e-10 * scale for z in roots.roots)
        assert roots.max_residual <= 1e-12
        b2, b1, b0 = lambda_cubic(c, p.omega_e)
        oracle = real_cubic_roots_bisection(b2, b1, b0)
        assert len(oracle) == 3
        for got, lam in zip(roots.roots, oracle):
            # both routes stop at the double-precision floor: polynomial
            # evaluation noise divided by the root's derivative magnitude
            slope = abs(np.prod([lam - other for other in oracle if other != lam])) or 1.0
            noise = 8.0 * eps * (abs(lam) ** 3 + abs(b2) * lam**2 + abs(b1 * lam) + abs(b0))
            assert abs(got.imag - lam) <= 1e-12 + noise / slope


def test_degenerate_roots_are_solved():
    # all couplings zero: Theta = z^2 (z - i s), double root at 0
    coeffs = SectorCoefficients(h=0.0, s=0.1, nu=0.1, v1=0.0, v2=0.0, n=1)
    roots = propagator_roots(coeffs, 0.0)
    assert roots.roots == (0.0, 0.0, 0.1j)
    assert roots.min_pairwise_gap == 0.0
    assert roots.max_residual == 0.0
    # fully trivial sector: triple root at 0
    coeffs = SectorCoefficients(h=0.0, s=0.0, nu=0.0, v1=0.0, v2=0.0, n=0)
    roots = propagator_roots(coeffs, 0.0)
    assert roots.roots == (0.0, 0.0, 0.0)
    assert roots.min_pairwise_gap == 0.0


def test_sector_generator_rejects_overflowed_constants():
    coeffs = SectorCoefficients(h=0.0, s=0.0, nu=0.0, v1=math.inf, v2=0.1, n=7)
    with pytest.raises(OverflowError, match="sector 7"):
        sector_generator(coeffs, 0.0)


def test_cubic_poly_evaluation_and_derivative():
    poly = CubicPoly(a2=1.0 + 0j, a1=-2.0 + 0j, a0=0.5 + 0j)
    z = 0.7 - 0.3j
    assert poly(z) == pytest.approx(z**3 + z**2 - 2 * z + 0.5, abs=1e-15)
