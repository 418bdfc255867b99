import math
import os
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from djcm.config import HusimiRequest, RunConfig
from djcm.dynamics import InitialCondition, solve_sector, tau_grid
from djcm.figures import FIG_SAMPLES, FIG_TAU_MAX, ROWS, row_params
from djcm.model import Kerr, ModelParams
from djcm.observables import (
    ObservableSeries,
    SERIES,
    UndefinedObservableError,
    entropy,
    g2_zero,
    husimi_q,
    inversion,
    mandel_q,
    mean_photon_number,
    populations,
    reduced_density,
    squeezing_params,
    trajectory_series,
    von_neumann_entropy,
)
from djcm.runner import husimi_panel, publish, run_simulation
from djcm.validate import _ladder_matrix

from phase_reference import OMEGA_CAVITY, OMEGA_LEVELS, REFERENCE
from test_model import fig_params

LN2 = math.log(2.0)


def amps_at_tau(params, tau):
    t = tau / params.omega_cavity
    traj = solve_sector(params, np.array([0.0, t]) if t > 0 else np.array([0.0]))
    return traj.amplitudes[-1]


def reference_number_moments(amps, params):
    """<A+A> and <(A+A)^2> summed ket by ket from the closed form
    f^2(m) = 1 + chi m^2: A+A has the eigenvalue (n+1) f^2(n+1) on |1,n+1>
    and n f^2(n) on |2,n> and |3,n>."""
    n, chi = params.sector_n, params.deformation.chi
    eigen = ((n + 1) * (1.0 + chi * (n + 1) ** 2), n * (1.0 + chi * n * n), n * (1.0 + chi * n * n))
    probs = np.abs(amps) ** 2
    m1 = sum(probs[..., i] * eigen[i] for i in range(3))
    m2 = sum(probs[..., i] * eigen[i] ** 2 for i in range(3))
    return m1, m2


def row_trajectory(tau_max=50.0, samples=800, **kwargs):
    p = fig_params(**kwargs)
    return p, solve_sector(p, np.linspace(0.0, tau_max, samples) / p.omega_cavity)


def test_populations_at_t0():
    p = fig_params()
    assert populations(amps_at_tau(p, 0.0)).tolist() == [0.0, 1.0, 0.0]


def test_populations_sum_to_one_along_trajectory():
    p, traj = row_trajectory(g1=0.06, g2=0.08, chi=0.2)
    probs = np.abs(traj.amplitudes) ** 2
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-9
    assert probs.min() >= 0.0
    assert probs.max() <= 1.0 + 1e-12


def test_inversion_zero_at_t0_and_decoupled():
    p = fig_params()
    assert inversion(amps_at_tau(p, 0.0)) == 0.0
    dec = ModelParams(0.2, (0.3, 0.4, 0.5), 0.04, 0.0, 0.0, Kerr(0.0), 1)
    traj = solve_sector(dec, np.linspace(0.0, 100.0, 101))
    assert np.max(np.abs(inversion(traj.amplitudes))) <= 1e-20


def test_inversion_bounded():
    p, traj = row_trajectory(omega_e=0.08, g1=0.06, g2=0.08, chi=0.2)
    w = trajectory_series(traj, "inversion", p)[0].values
    assert np.all(w >= -1.0) and np.all(w <= 1.0)


def test_mean_photon_number_fock_values():
    p = fig_params()
    assert mean_photon_number(amps_at_tau(p, 0.0), p) == 1.0
    # the weight 1 (1 + 0.2) rounds once, to the double nearest 1.2; the
    # square of the rounded f(1) = sqrt(1.2) would be 1.1999999999999997
    pk = fig_params(chi=0.2)
    assert mean_photon_number(amps_at_tau(pk, 0.0), pk) == 1.2


def test_mean_photon_number_bounds_and_engine_cross_check():
    p, traj = row_trajectory(g1=0.06, g2=0.08, chi=0.2)
    n = p.sector_n
    f2_up = (n + 1) * (1 + 0.2 * (n + 1) ** 2)
    f2_dn = n * (1 + 0.2 * n**2)
    amps = traj.amplitudes[::25]
    m1 = mean_photon_number(amps, p)
    assert np.all(m1 >= 0.0)
    assert np.all(m1 <= max(f2_up, f2_dn) + 1e-12)
    ref_m1, _ = reference_number_moments(amps, p)
    np.testing.assert_allclose(m1, ref_m1, rtol=1e-14, atol=0.0)


def test_g2_zero_fock_sector_is_zero():
    for chi in (0.0, 0.2):
        p = fig_params(chi=chi)
        assert g2_zero(amps_at_tau(p, 0.0), p) == 0.0


def test_g2_zero_direct_formula_n2():
    # c1 = 0, |c2|^2 + |c3|^2 = 1, undeformed n = 2: numerator 2, m1 = 2
    p = fig_params(n=2)
    amps = np.array([0.0, math.sqrt(0.5), math.sqrt(0.5)], dtype=np.complex128)
    assert g2_zero(amps, p) == pytest.approx(0.5, abs=1e-15)


def test_g2_undefined_on_empty_intensity():
    p = fig_params(n=0)
    amps = amps_at_tau(p, 0.0)
    with pytest.raises(UndefinedObservableError):
        g2_zero(amps, p)
    with pytest.raises(UndefinedObservableError):
        mandel_q(amps, p)
    # a configuration error to the CLI (exit 2), like the config-level check
    assert issubclass(UndefinedObservableError, ValueError)


def test_g2_series_nonnegative_and_sub_poissonian():
    for kwargs in (dict(), dict(g1=0.06, g2=0.08, chi=0.2), dict(omega_e=0.08, g1=0.06, g2=0.08, chi=0.2)):
        p, traj = row_trajectory(**kwargs)
        g2 = trajectory_series(traj, "g2", p)[0].values
        assert np.all(g2 >= 0.0)
        assert np.all(g2 < 1.0)  # verified sub-Poissonian everywhere on these rows


def test_reduced_density_structure():
    p = fig_params()
    rho0 = reduced_density(amps_at_tau(p, 0.0))
    assert np.allclose(rho0, np.diag([0.0, 1.0, 0.0]))
    amps = amps_at_tau(p, 30.0)
    c1, c2, c3 = amps
    rho = reduced_density(amps)
    assert np.allclose(rho, rho.conj().T, atol=1e-15)
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert rho[0, 1] == 0.0 and rho[0, 2] == 0.0
    # the ufunc, as in reduced_density: NumPy's scalar `*` skips the FMA of its array loop
    assert rho[1, 2] == np.multiply(c3, np.conj(c2))
    assert rho[2, 1] == np.multiply(c2, np.conj(c3))
    # eigenvalues are {P1, 0, 1 - P1} (rank-one upper block)
    p1 = abs(c1) ** 2
    lam = np.sort(np.linalg.eigvalsh(rho))
    assert np.allclose(lam, np.sort([p1, 0.0, 1.0 - p1]), atol=1e-12)


def test_von_neumann_entropy_values():
    p = fig_params()
    assert von_neumann_entropy(reduced_density(amps_at_tau(p, 0.0))) == 0.0
    half = np.array([math.sqrt(0.5), math.sqrt(0.5), 0.0], dtype=np.complex128)
    assert von_neumann_entropy(reduced_density(half)) == pytest.approx(LN2, abs=1e-12)
    with pytest.raises(ValueError, match=r"^density matrix has a negative eigenvalue: -1e-09$"):
        von_neumann_entropy(np.diag([1.0 + 1e-9, 0.0, -1e-9]))


def test_pure_state_entropy_has_no_sign_bit():
    # a pure state's entropy is +0.0, not -0.0: validate prints it as 0.000e+00
    pure = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1j]], dtype=np.complex128)
    s = von_neumann_entropy(reduced_density(pure))
    assert s.tolist() == [0.0, 0.0, 0.0] and not np.any(np.signbit(s))


def test_entropy_series_matches_eigen_route():
    p, traj = row_trajectory(g1=0.06, g2=0.08, chi=0.2, samples=400)
    series = trajectory_series(traj, "entropy", p)[0].values
    s_eig = von_neumann_entropy(reduced_density(traj.amplitudes[::7]))
    assert np.max(np.abs(series[::7] - s_eig)) <= 1e-10
    assert series.min() >= 0.0
    assert series.max() <= LN2 + 1e-12


def test_mandel_q_fock_values():
    for chi in (0.0, 0.2):
        p = fig_params(chi=chi)
        assert mandel_q(amps_at_tau(p, 0.0), p) == pytest.approx(-1.0, abs=1e-12)


def test_mandel_q_series_bounded_below():
    p, traj = row_trajectory(omega_e=0.08, g1=0.06, g2=0.08, chi=0.2)
    q = trajectory_series(traj, "mandel_q", p)[0].values
    assert np.all(q >= -1.0 - 1e-12)


def test_mandel_q_undeformed_envelope():
    # for n = 1 and f = 1: Q = P1 (1 - P1) / (1 + P1) - 1, derived by hand
    p, traj = row_trajectory()
    q = trajectory_series(traj, "mandel_q", p)[0].values
    p1 = np.abs(traj.amplitudes[:, 0]) ** 2
    expected = p1 * (1.0 - p1) / (1.0 + p1) - 1.0
    assert np.max(np.abs(q - expected)) <= 1e-12


def exact_weights(params) -> tuple[Fraction, Fraction, Fraction]:
    """The model's weights m f^2(m) = m (1 + chi m^2) at m = n + 1, n, n - 1,
    in exact rational arithmetic."""
    n, chi = params.sector_n, Fraction(params.deformation.chi)
    return tuple(m * (1 + chi * m * m) if m > 0 else Fraction(0) for m in (n + 1, n, n - 1))


def exact_mandel_q(probs, params) -> float:
    """Q of the populations probs, normalised, in exact rational arithmetic:
    the variance over the mean of the deformed photon number, minus one."""
    w_up, w_dn, _ = exact_weights(params)
    p1, p2, p3 = map(Fraction, probs)
    norm = p1 + p2 + p3
    mean = (w_up * p1 + w_dn * (p2 + p3)) / norm
    return float((w_up**2 * p1 + w_dn**2 * (p2 + p3)) / norm / mean - mean - 1)


@pytest.mark.parametrize("key", list(REFERENCE), ids=[f"n={key[1]:.0e}" for key in REFERENCE])
def test_mandel_q_at_large_sectors_against_60_digit_references(key):
    # the 60-digit populations of tests/phase_reference.py, rounded to
    # doubles, as real amplitudes; the reference is Q of the populations
    # mandel_q reads from them, exactly.  Measured error: 0, 2.2e-16,
    # 1.1e-16 and 1.1e-16 (n = 10^12 at chi 0; 10^4, 10^6 and 10^8 at chi
    # 0.2), so 1e-14 leaves 45x headroom; the form (m2 - m1^2) / m1 - 1
    # errs by 5.4e-4, 7.1e-5, 69 and 5.1e7 on the same rows
    chi, n, g1, g2, omega_e = key
    params = ModelParams(
        omega_cavity=OMEGA_CAVITY,
        omega_levels=tuple(OMEGA_LEVELS),
        g1=g1,
        g2=g2,
        omega_e=omega_e,
        deformation=Kerr(chi),
        sector_n=n,
    )
    amps = np.sqrt(np.array(REFERENCE[key])).astype(complex)
    reference = [exact_mandel_q(row, params) for row in populations(amps).tolist()]
    assert np.max(np.abs(mandel_q(amps, params) - reference)) <= 1e-14


def exact_s2(probs, params) -> Fraction:
    """s2 = 2<(A+A)^2> - 2<A+A> of the populations probs, unnormalised, in
    exact rational arithmetic."""
    w_up, w_dn, _ = exact_weights(params)
    p1, p2, p3 = map(Fraction, probs)
    return 2 * (w_up**2 * p1 + w_dn**2 * (p2 + p3)) - 2 * (w_up * p1 + w_dn * (p2 + p3))


def exact_g2(probs, params) -> Fraction:
    """g2(0) = <A+^2 A^2> / <A+A>^2 of the populations probs, unnormalised,
    in exact rational arithmetic."""
    w_up, w_dn, w_two = exact_weights(params)
    p1, p2, p3 = map(Fraction, probs)
    return (w_up * w_dn * p1 + w_dn * w_two * (p2 + p3)) / (w_up * p1 + w_dn * (p2 + p3)) ** 2


def s2_of(amps, params):
    _, _, s2_x, s2_p = squeezing_params(amps, params)
    assert s2_x is s2_p
    return s2_x


# fig8 draws s2 on rows 1 and 3, fig4 g2 on all three
EXACT_ON_THE_FIGURE_GRID = [("s2", s2_of, exact_s2, row) for row in ROWS] + [
    ("g2", g2_zero, exact_g2, row) for row in ROWS
]


@pytest.mark.parametrize(
    "name, observable, exact, row",
    EXACT_ON_THE_FIGURE_GRID,
    ids=[row.label if name == "s2" else f"{name}-{row.label}" for name, _, _, row in EXACT_ON_THE_FIGURE_GRID],
)
def test_s2_on_the_figure_grid_against_exact_rationals(name, observable, exact, row):
    # Measured relative error, sample by sample, on rows 1-3: s2 0, 4.6e-16
    # and 4.5e-16, so 1e-14 leaves 21x headroom; g2 4.6e-16, 6.6e-16 and
    # 6.5e-16, 15x.  Each weight is one rounding of 1 + chi m^2 (m = 1, 2
    # scale exactly), which s2's w - 1 keeps.  The form 2 m2 - 2 m1 errs by
    # 8.7e-13 on s2's row 1 (chi 0, n 1), where s2 = 4 P1 falls to 0 as m2
    # and m1 near P2 + P3
    params = row_params(row)
    amps = solve_sector(params, tau_grid(FIG_TAU_MAX, FIG_SAMPLES) / params.omega_cavity).amplitudes
    reference = np.array([float(exact(probs, params)) for probs in populations(amps).tolist()])
    assert np.all(np.abs(observable(amps, params) - reference) <= 1e-14 * np.abs(reference)), name


def test_lowering_weight_matrix_elements():
    def power(chi, k):
        # <m-k| A^k |m> at [m-k, m], on photon numbers 0..3 (sector n = 2)
        return np.linalg.matrix_power(_ladder_matrix(fig_params(chi=chi, n=2)), k)

    assert power(0.0, 1)[2, 3] == pytest.approx(math.sqrt(3.0), abs=1e-15)
    assert power(0.0, 3)[0, 3] == pytest.approx(math.sqrt(6.0), abs=1e-15)
    assert not power(0.0, 3)[:, 2].any()
    expected = math.sqrt(1 + 0.2 * 4) * math.sqrt(2.0) * math.sqrt(1.2) * 1.0
    assert power(0.2, 2)[0, 2] == pytest.approx(expected, abs=1e-15)


def test_squeezing_fock_values():
    p = fig_params()
    assert squeezing_params(amps_at_tau(p, 0.0), p) == (2.0, 2.0, 0.0, 0.0)
    pk = fig_params(chi=0.2)
    s1x, s1p, s2x, s2p = squeezing_params(amps_at_tau(pk, 0.0), pk)
    assert s1x == pytest.approx(2.4, abs=1e-14)
    assert s2x == pytest.approx(0.48, abs=1e-14)


def test_squeezing_identities_along_trajectory():
    p, traj = row_trajectory(omega_e=0.08, g1=0.06, g2=0.08, chi=0.2, samples=400)
    s1x, s1p, s2x, s2p = (s.values for s in trajectory_series(traj, "squeezing", p))
    probs = np.abs(traj.amplitudes) ** 2
    m1, m2 = reference_number_moments(traj.amplitudes, p)
    np.testing.assert_array_equal(s1x, s1p)
    np.testing.assert_array_equal(s2x, s2p)
    assert np.max(np.abs(s1x - 2.0 * m1)) <= 1e-13
    assert np.max(np.abs(s2x - 2.0 * (m2 - m1))) <= 1e-13
    assert np.all(s1x >= 0.0)


def _stacked(result):
    # functions with several outputs return a tuple of equally shaped arrays
    return np.stack(result, axis=-1) if isinstance(result, tuple) else np.asarray(result)


ARRAY_FUNCTIONS = {
    "populations": lambda amps, p: populations(amps),
    "inversion": lambda amps, p: inversion(amps),
    "mean_photon_number": mean_photon_number,
    "g2_zero": g2_zero,
    "mandel_q": mandel_q,
    "entropy": lambda amps, p: entropy(amps),
    "reduced_density": lambda amps, p: reduced_density(amps),
    "von_neumann_entropy": lambda amps, p: von_neumann_entropy(reduced_density(amps)),
    "squeezing_params": squeezing_params,
}


def test_array_functions_rows_match_stack_and_bounds():
    # seeded random normalised (T, 3) stacks over sectors 0..50 and chi in [0, 0.5]
    rng = np.random.default_rng(20250810)
    for _ in range(40):
        p = fig_params(n=int(rng.integers(0, 51)), chi=float(rng.uniform(0.0, 0.5)))
        rows = int(rng.integers(1, 40))
        amps = rng.normal(size=(rows, 3)) + 1j * rng.normal(size=(rows, 3))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        for name, fn in ARRAY_FUNCTIONS.items():
            whole = _stacked(fn(amps, p))
            by_row = [_stacked(fn(row, p)) for row in amps]
            assert by_row[0].shape == whole.shape[1:], name
            assert np.array_equal(whole, np.stack(by_row)), name
        assert np.ndim(g2_zero(amps[0], p)) == 0
        want, _ = reference_number_moments(amps, p)
        np.testing.assert_allclose(mean_photon_number(amps, p), want, rtol=1e-14, atol=0.0)
        # physical ranges, exactly on these stacks (normalised to rounding):
        # P in [0, 1], W in [-1, 1], S in [0, ln 2] (and the eigenvalue route's
        # S to 1e-12), g2 >= 0 and Q >= -1
        probs = populations(amps)
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
        assert np.all(np.abs(inversion(amps)) <= 1.0)
        s = entropy(amps)
        assert np.all(s >= 0.0) and np.all(s <= LN2)
        s_eig = von_neumann_entropy(reduced_density(amps))
        assert np.all(s_eig >= 0.0) and np.all(s_eig <= LN2 + 1e-12)
        assert np.max(np.abs(s - s_eig)) <= 1e-10
        assert np.all(g2_zero(amps, p) >= 0.0)
        assert np.all(mandel_q(amps, p) >= -1.0)


def test_series_table_matches_array_functions():
    p, traj = row_trajectory(g1=0.06, g2=0.08, chi=0.2, samples=200)
    for name, (columns, _) in SERIES.items():
        series = trajectory_series(traj, name, p)
        assert [s.name for s in series] == list(columns)
    amps = traj.amplitudes
    probs = populations(amps)
    for level in range(3):
        assert np.array_equal(trajectory_series(traj, "populations", p)[level].values, probs[:, level])
    assert np.array_equal(trajectory_series(traj, "g2", p)[0].values, g2_zero(amps, p))
    assert np.array_equal(trajectory_series(traj, "entropy", p)[0].values, entropy(amps))


def test_series_times_are_scaled(tmp_path):
    # a series holds values only; run_simulation writes it against
    # tau = omega_cavity * t, the grid the trajectory was solved on
    p, traj = row_trajectory(samples=100, tau_max=10.0)
    cfg = RunConfig(params=p, tau_max=10.0, samples=100, observables=("inversion",), svg=False)
    publish(run_simulation(cfg), str(tmp_path))
    table = np.loadtxt(tmp_path / "inversion.csv", delimiter=",", skiprows=1)
    assert table[0, 0] == 0.0
    assert table[-1, 0] == pytest.approx(10.0)
    assert np.array_equal(table[:, 1], trajectory_series(traj, "inversion", p)[0].values)


def test_observable_series_validation():
    with pytest.raises(FloatingPointError, match="series 'x' contains non-finite values"):
        ObservableSeries("x", np.array([1.0, np.nan]))
    p, traj = row_trajectory(samples=10)
    with pytest.raises(ValueError):
        trajectory_series(traj, "wigner", p)


def test_g2_series_whose_intensity_underflows_is_a_range_error():
    # <A+A> = 1e-320 is not 0, but its square underflows to 0 and g2 to 0/0
    p = fig_params(n=0)
    traj = solve_sector(p, np.array([0.0]), ic=InitialCondition(1e-160, 1.0, 0.0))
    with pytest.raises(FloatingPointError, match="series 'g2' contains non-finite values"):
        trajectory_series(traj, "g2", p)


def test_husimi_center_vanishes_for_populated_sector():
    p = fig_params()
    grid = husimi_q(p, 0.0, 3.0, 41)
    center = grid.values[20, 20]  # beta = 0
    assert center == 0.0
    assert grid.n_max == 1


def test_husimi_single_sector_normalization():
    p = fig_params(g1=0.06, g2=0.08, chi=0.2)
    for tau in (0.0, 10.0, 25.0):
        grid = husimi_q(p, tau / 0.2, 6.0, 241)
        w = np.full(241, grid.axis[1] - grid.axis[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        integral = float(w @ grid.values @ w)
        assert integral == pytest.approx(1.0, abs=0.01)
        assert grid.values.min() >= 0.0


def test_husimi_ring_shape():
    # the populated-sector distribution peaks on a circle around the origin
    p = fig_params(g1=0.06, g2=0.08, chi=0.2)
    grid = husimi_q(p, 25.0 / 0.2, 3.0, 121)
    iy, ix = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    radius = math.hypot(grid.axis[ix], grid.axis[iy])
    assert 0.5 <= radius <= 2.5
    assert grid.values[60, 60] < grid.values.max() / 10.0
    # rotational symmetry: mirror images coincide on the symmetric grid
    assert np.allclose(grid.values, grid.values[::-1, :], atol=1e-12)
    assert np.allclose(grid.values, grid.values[:, ::-1], atol=1e-12)


def test_husimi_all_sectors_initial_time_is_flat():
    # at t = 0 every sector contributes |c2|^2 = 1, so the literal sum
    # telescopes to exp(-|b|^2) * sum |b|^{2n}/n! / pi = 1/pi
    p = fig_params()
    grid = husimi_q(p, 0.0, 2.0, 31, n_max=60)
    assert np.max(np.abs(grid.values - 1.0 / math.pi)) <= 1e-10
    assert grid.n_max == 60


@pytest.mark.parametrize("row", ROWS, ids=[row.label for row in ROWS])
@pytest.mark.parametrize("tau", [0.0, 10.0, 25.0])
def test_husimi_all_sectors_centre_is_sector_0(row, tau):
    # at beta = 0, ln 0 = -inf weighs every sector n >= 1 by exp(-inf) = 0,
    # and sector 0 skips 0 x ln 0 = nan: the centre is sector 0's, bit for bit
    p = row_params(row)
    t = tau / p.omega_cavity
    centre = husimi_q(p, t, 2.0, 5, n_max=40).values[2, 2]
    assert centre == husimi_q(p, t, 2.0, 5, n_max=0).values[2, 2]
    assert centre > 0.0


def test_husimi_argument_validation():
    p = fig_params()
    with pytest.raises(ValueError):
        husimi_q(p, 0.0, 3.0, 1)
    with pytest.raises(ValueError):
        husimi_q(p, -1.0, 3.0, 11)
    for half_width in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="half_width must be finite and > 0"):
            husimi_q(p, 0.0, half_width, 11)


@pytest.mark.parametrize("n_max", [None, 2], ids=["single", "all"])
def test_husimi_range_whose_corner_overflows_raises(n_max):
    # |beta|^2 = 2e400 at the corner: the grid used to fill with nan
    p = fig_params()
    with pytest.raises(OverflowError, match=r"Husimi range .*1e\+200"):
        husimi_q(p, 1.0, 1e200, 3, n_max)
    # the largest range whose corner stays finite still gives finite values
    grid = husimi_q(p, 1.0, 9e153, 3, n_max)
    assert np.all(np.isfinite(grid.values))


# |alpha|^2 reaches 800 at the corners of [-20, 20]^2, summed up to
# n_max = ceil(800 + 10 sqrt(800)) = 1083: Poisson weights seeded with
# exp(-|alpha|^2) underflow to 0 beyond |alpha|^2 ~ 745


def test_husimi_all_sectors_flat_at_t0_at_range_20():
    p = fig_params(g1=0.06, g2=0.08, chi=0.2)
    grid = husimi_q(p, 0.0, 20.0, 41, n_max=1083)
    assert grid.n_max == 1083
    assert np.max(np.abs(grid.values - 1.0 / math.pi)) <= 1e-9


def test_husimi_all_sectors_corner_survives_at_range_20():
    p = fig_params(g1=0.06, g2=0.08, chi=0.2)
    grid = husimi_q(p, 25.0 / 0.2, 20.0, 41, n_max=1083)
    for corner in (grid.values[0, 0], grid.values[0, -1], grid.values[-1, 0], grid.values[-1, -1]):
        assert corner == pytest.approx(1.0 / math.pi, rel=1e-3)


def test_husimi_single_sector_800_normalization():
    # the number-state ring of sector 800 sits at |alpha|^2 ~ 800
    p = fig_params(g1=0.06, g2=0.08, chi=0.2, n=800)
    grid = husimi_q(p, 25.0 / 0.2, 40.0, 401)
    w = np.full(401, grid.axis[1] - grid.axis[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    assert abs(float(w @ grid.values @ w) - 1.0) <= 1e-6


def log_space_husimi(params, t, axis, n_max):
    """Sum over sectors 0..n_max (the populated sector alone for n_max None)
    from one solve_sector run per sector, each Poisson weight exponentiated
    from n ln r2 - r2 - ln n!."""
    r2 = axis[None, :] ** 2 + axis[:, None] ** 2
    with np.errstate(divide="ignore"):
        log_r2 = np.log(r2)
    grid = np.array([0.0, t]) if t > 0 else np.array([0.0])
    acc = np.zeros_like(r2)
    for n in (params.sector_n,) if n_max is None else range(n_max + 1):
        p1, p2, p3 = populations(solve_sector(replace(params, sector_n=n), grid).amplitudes[-1])
        log_w = -r2 - math.lgamma(n + 1.0)
        if n:
            log_w = log_w + n * log_r2
        acc += np.exp(log_w) * ((r2 / (n + 1.0)) * p1 + p2 + p3)
    return acc / math.pi


@settings(max_examples=20, deadline=None)
@given(
    g1=st.floats(0.0, 0.2),
    g2=st.floats(0.0, 0.2),
    omega_e=st.floats(0.0, 0.2),
    chi=st.sampled_from((0.0, 0.05, 0.2, 0.5)),
    n_max=st.one_of(st.none(), st.integers(0, 60)),
    tau=st.one_of(st.just(0.0), st.floats(1e-3, 200.0)),
    half_width=st.floats(0.5, 12.0),
)
def test_husimi_all_sectors_matches_per_sector_log_space_sum(g1, g2, omega_e, chi, n_max, tau, half_width):
    # n_max None sums the populated sector alone, on the same distinct radii
    p = fig_params(omega_e=omega_e, g1=g1, g2=g2, chi=chi)
    t = tau / p.omega_cavity
    grid = husimi_q(p, t, half_width, 17, n_max)
    ref = log_space_husimi(p, t, grid.axis, n_max)
    assert np.all(np.abs(grid.values - ref) <= 1e-12 * np.abs(ref))


@pytest.mark.parametrize("n_max", [None, 12], ids=["single-sector", "all-sectors"])
def test_husimi_csv_is_written_from_the_grid_levels(tmp_path, n_max):
    p = fig_params(g1=0.06, g2=0.08, chi=0.2)
    request = HusimiRequest(tau=25.0, range=3.0, resolution=31, n_max=n_max)
    publish(husimi_panel("husimi", "", p, request, svg=False), str(tmp_path))
    files = os.listdir(tmp_path)
    assert files == ["husimi.csv"]
    grid = husimi_q(p, 25.0 / p.omega_cavity, 3.0, 31, n_max)
    assert grid.index.shape == (31, 31)
    assert np.array_equal(grid.values, grid.levels[grid.index])
    # one level per distinct |beta|^2 of the grid
    assert grid.levels.size == np.unique(grid.axis[None, :] ** 2 + grid.axis[:, None] ** 2).size
    lines = (tmp_path / "husimi.csv").read_text().splitlines()
    assert lines[0] == "x,y,q"
    x, y, q = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]]).T
    assert np.array_equal(q.view(np.uint64), grid.values.ravel().view(np.uint64))
    assert np.array_equal(x, np.tile(grid.axis, 31)) and np.array_equal(y, np.repeat(grid.axis, 31))
