import math
from fractions import Fraction

import numpy as np
import pytest

from djcm.model import Kerr, ModelParams, SectorCoefficients, k_value, sector_coefficients


def fig_params(omega_e=0.04, g1=0.04, g2=0.06, chi=0.0, n=1):
    return ModelParams(
        omega_cavity=0.2,
        omega_levels=(0.3, 0.4, 0.5),
        g1=g1,
        g2=g2,
        omega_e=omega_e,
        deformation=Kerr(chi),
        sector_n=n,
    )


def test_kerr_f():
    assert Kerr(0.2).f(1) == pytest.approx(math.sqrt(1.2), abs=1e-15)


def test_kerr_f_rejects_negative_n():
    with pytest.raises(ValueError, match="photon number must be >= 0"):
        Kerr(0.2).f(-1)
    with pytest.raises(ValueError, match="photon number must be >= 0"):
        k_value(Kerr(0.2), -1)


def test_kerr_stores_chi_as_float_with_negative_zero_folded():
    for chi in (0, 0.0, -0.0):
        d = Kerr(chi)
        assert type(d.chi) is float and math.copysign(1.0, d.chi) == 1.0 and d.chi == 0.0
        assert d == Kerr(0.0)
    assert type(Kerr(1).chi) is float and Kerr(1).chi == 1.0


def test_k_value_identity_is_one():
    for n in range(20):
        assert k_value(Kerr(0.0), n) == 1.0


def test_kerr_zero_is_undeformed():
    # f = 1 exactly at chi = 0: k = 1, v_i = g_i sqrt(n+1), bit for bit
    for n in (0, 1, 2, 3, 7, 10, 342, 10**3, 123_457, 10**6):
        assert Kerr(0.0).f(n) == 1.0
        assert k_value(Kerr(0.0), n) == 1.0
        c = sector_coefficients(fig_params(g1=0.04, g2=0.06, chi=0.0, n=n))
        assert c.v1 == 0.04 * math.sqrt(n + 1)
        assert c.v2 == 0.06 * math.sqrt(n + 1)
        assert c.s == 0.2 * 1.0 - (0.4 - 0.3)
        assert c.h == c.s - c.nu


def test_k_value_kerr():
    assert k_value(Kerr(0.2), 0) == pytest.approx(1.2, abs=1e-15)
    assert k_value(Kerr(0.2), 1) == pytest.approx(2.4, abs=1e-15)


def test_k_value_matches_exact_rational():
    # 1 + chi (3n^2 + 3n + 1) in exact arithmetic on the double chi; the
    # cancelling form (n+1) f^2(n+1) - n f^2(n) was off by 1.8e-5 at n = 10^4
    # and by 1.2 at n = 10^6
    chi = 0.2
    for n in (1, 10**4, 10**6):
        exact = 1 + Fraction(chi) * (3 * n * n + 3 * n + 1)
        assert abs(Fraction(k_value(Kerr(chi), n)) - exact) / exact <= Fraction(1, 2**52), n


def test_k_value_lower_bound():
    # (n+1) f^2(n+1) - n f^2(n) = 1 + chi(3n^2+3n+1) >= 1
    rng = np.random.default_rng(7)
    for _ in range(300):
        chi = rng.uniform(0.0, 5.0)
        n = int(rng.integers(0, 50))
        assert k_value(Kerr(chi), n) >= 1.0
        assert Kerr(chi).f(n) >= 1.0


def test_kerr_f_strictly_increasing():
    d = Kerr(0.3)
    values = [d.f(n) for n in range(30)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_sector_coefficients_identity_row():
    c = sector_coefficients(fig_params())
    assert c.h == pytest.approx(0.0, abs=1e-15)
    assert c.s == pytest.approx(0.1, abs=1e-15)
    assert c.nu == pytest.approx(0.1, abs=1e-15)
    assert c.v1 == pytest.approx(0.04 * math.sqrt(2.0), abs=1e-15)
    assert c.v2 == pytest.approx(0.06 * math.sqrt(2.0), abs=1e-15)
    assert c.omega_e == 0.04


@pytest.mark.parametrize("name", ["h", "s", "nu", "v1", "v2", "omega_e"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_sector_coefficients_reject_non_finite_constants(name, bad):
    constants = dict(h=0.0, s=0.1, nu=0.1, v1=0.05, v2=0.07, omega_e=0.04, n=5)
    SectorCoefficients(**constants)
    with pytest.raises(OverflowError, match=r"^the constants of sector 5 overflow the floating-point range$"):
        SectorCoefficients(**dict(constants, **{name: bad}))


def test_sector_coefficients_kerr_row():
    c = sector_coefficients(fig_params(g1=0.06, g2=0.08, chi=0.2))
    assert c.h == pytest.approx(0.28, abs=1e-15)
    assert c.s == pytest.approx(0.38, abs=1e-15)
    assert c.v1 == pytest.approx(0.06 * math.sqrt(1.8) * math.sqrt(2.0), abs=1e-15)
    assert c.v1 == pytest.approx(0.113842, abs=1e-6)


def test_h_equals_s_minus_nu_bitwise():
    rng = np.random.default_rng(11)
    for _ in range(500):
        w = np.sort(rng.uniform(0.0, 1.0, 3))
        if not (w[0] < w[1] < w[2]):
            continue
        p = ModelParams(
            omega_cavity=float(rng.uniform(0.0, 1.0)),
            omega_levels=tuple(float(x) for x in w),
            g1=float(rng.uniform(0.0, 0.2)),
            g2=float(rng.uniform(0.0, 0.2)),
            omega_e=float(rng.uniform(0.0, 0.2)),
            deformation=Kerr(float(rng.uniform(0.0, 0.5))),
            sector_n=int(rng.integers(0, 6)),
        )
        c = sector_coefficients(p)
        assert c.h == c.s - c.nu  # exact, by construction order


def test_couplings_scale_with_f():
    p0 = fig_params(chi=0.0)
    p1 = fig_params(chi=0.2)
    c0 = sector_coefficients(p0)
    c1 = sector_coefficients(p1)
    assert c1.v1 / c0.v1 == pytest.approx(math.sqrt(1.8), rel=1e-14)


def test_params_validation():
    with pytest.raises(ValueError):
        fig_params().__class__(
            omega_cavity=0.2,
            omega_levels=(0.5, 0.4, 0.3),  # wrong ordering
            g1=0.04,
            g2=0.06,
            omega_e=0.04,
            deformation=Kerr(0.0),
            sector_n=1,
        )
    with pytest.raises(ValueError):
        ModelParams(0.2, (0.3, 0.4, 0.5), -0.1, 0.06, 0.04, Kerr(0.0), 1)
    with pytest.raises(ValueError):
        ModelParams(0.2, (0.3, 0.4, 0.5), 0.04, 0.06, 0.04, Kerr(0.0), -1)
    with pytest.raises(ValueError):
        ModelParams(0.2, (0.3, 0.4, 0.5), 0.04, 0.06, 0.04, Kerr(0.0), 1.5)
    with pytest.raises(ValueError):
        Kerr(-0.1)
    with pytest.raises(ValueError):
        ModelParams(0.2, (0.3, 0.4, float("inf")), 0.04, 0.06, 0.04, Kerr(0.0), 1)
    with pytest.raises(ValueError, match="^omega_levels must hold exactly three frequencies$"):
        ModelParams(0.2, (0.3, 0.4), 0.04, 0.06, 0.04, Kerr(0.0), 1)
