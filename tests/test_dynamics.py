import cmath
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from djcm import dynamics
from djcm.dynamics import (
    EXCITED,
    ODE_TOLERANCE,
    PHASE_ERROR_LIMIT,
    InitialCondition,
    StepBudgetError,
    StepSizeUnderflowError,
    amplitudes_ode,
    analytic_trajectory,
    propagate,
    sector_generator,
    solve_sector,
)
from djcm.figures import ROWS, row_params
from djcm.model import Kerr, ModelParams, SectorCoefficients, sector_coefficients
from djcm.validate import theta_poly

from test_model import fig_params

ROW_KWARGS = (
    dict(),
    dict(g1=0.06, g2=0.08, chi=0.2),
    dict(omega_e=0.08, g1=0.06, g2=0.08, chi=0.2),
)


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


def lambda_cubic(coeffs):
    """Coefficients of the real cubic in lambda obtained from z -> i*lambda."""
    a1 = theta_poly(coeffs)[1]
    # Theta(i*lambda) = i * (-(lambda^3) + (h+s) lambda^2 + a1 lambda - g0)
    b2 = -(coeffs.h + coeffs.s)
    b1 = -a1.real
    b0 = 2.0 * coeffs.omega_e * coeffs.v1 * coeffs.v2 + coeffs.v1**2 * coeffs.s + coeffs.v2**2 * coeffs.h
    return b2, b1, b0


def propagator_roots(coeffs):
    """Roots alpha_j = -i lambda_j of Theta from the eigenvalues of the
    generator that the analytic route diagonalises, ordered by ascending
    imaginary part."""
    return tuple(complex(z) for z in -1j * np.linalg.eigvalsh(sector_generator(coeffs))[::-1])


def min_gap(roots):
    return min(abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1 :])


def theta(coeffs, z):
    """Theta(z) = z^3 + a2 z^2 + a1 z + a0, coefficients from validate.theta_poly."""
    a2, a1, a0 = theta_poly(coeffs)
    return ((z + a2) * z + a1) * z + a0


def theta_residual(coeffs, roots):
    """max |Theta(alpha)| / max(1, |alpha|^3) over the roots."""
    return max(abs(theta(coeffs, z)) / max(1.0, abs(z) ** 3) for z in roots)


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


def tau_grid(tau_max=50.0, samples=500, omega=0.2):
    return np.linspace(0.0, tau_max, samples) / omega


def bisection_roots(coeffs):
    """Roots alpha = i*lambda of Theta from the bisection oracle on the real cubic."""
    return [1j * lam for lam in real_cubic_roots_bisection(*lambda_cubic(coeffs))]


def explicit_excited_amplitudes(coeffs, roots, t):
    """Explicit three-pole formulas for the default entry condition (0,1,0).

    Hand-written expansion of the second column of the inverted sector
    matrix over three distinct roots of Theta; the reference that the
    eigendecomposition route is checked against term for term.
    """
    al1, al2, al3 = roots
    h, s, v1, v2, omega_e = coeffs.h, coeffs.s, coeffs.v1, coeffs.v2, coeffs.omega_e
    d1 = (al1 - al2) * (al1 - al3)
    d2 = (al2 - al1) * (al2 - al3)
    d3 = (al3 - al1) * (al3 - al2)
    e1 = cmath.exp(al1 * t)
    e2 = cmath.exp(al2 * t)
    e3 = cmath.exp(al3 * t)

    c1 = -(
        (h * v2 + v1 * omega_e + 1j * al1 * v2) / d1 * e1
        + (h * v2 + v1 * omega_e + 1j * al2 * v2) / d2 * e2
        + (h * v2 + v1 * omega_e + 1j * al3 * v2) / d3 * e3
    )
    c2 = cmath.exp(-1j * s * t) * (
        (al1 * al1 - 1j * h * al1 + v1 * v1) / d1 * e1
        + (al2 * al2 - 1j * h * al2 + v1 * v1) / d2 * e2
        + (al3 * al3 - 1j * h * al3 + v1 * v1) / d3 * e3
    )
    c3 = -cmath.exp(-1j * h * t) * (
        (1j * omega_e * al1 + v1 * v2) / d1 * e1
        + (1j * omega_e * al2 + v1 * v2) / d2 * e2
        + (1j * omega_e * al3 + v1 * v2) / d3 * e3
    )
    return c1, c2, c3


def test_initial_condition_norm_check():
    InitialCondition(0.6, 0.8j, 0.0)
    with pytest.raises(ValueError):
        InitialCondition(1.0, 1.0, 0.0)


def test_sector_matrix_determinant_matches_theta():
    # the Laplace matrix M(z) = zI + iK has determinant Theta(z)
    c = sector_coefficients(fig_params(g1=0.06, g2=0.08, chi=0.2))
    for z in (0.3 + 0.1j, -0.2j, 1.0):
        m = z * np.eye(3) + 1j * sector_generator(c)
        assert np.linalg.det(m) == pytest.approx(theta(c, z), abs=1e-14)


def test_t0_returns_initial_condition_exactly():
    p = fig_params()
    ic = InitialCondition(0.5, 0.5, complex(0.5, 0.5))
    for method in ("analytic", "oracle"):
        traj = solve_sector(p, np.array([0.0, 1.0]), ic=ic, method=method)
        assert traj.amplitudes[0, 0] == ic.c1
        assert traj.amplitudes[0, 1] == ic.c2
        assert traj.amplitudes[0, 2] == ic.c3


def test_residue_weights_sum_to_initial_condition():
    # the projector residues v_j v_j^T sum to the identity, so the expansion
    # reproduces the initial condition at t -> 0 without the t = 0 pin
    c = sector_coefficients(fig_params(omega_e=0.08, g1=0.06, g2=0.08, chi=0.2))
    ic = InitialCondition(0.5, 0.5, complex(0.5, 0.5))
    traj = analytic_trajectory(c, ic, np.array([1e-300]))
    assert np.allclose(traj.amplitudes[0], ic.as_array(), rtol=0.0, atol=1e-13)


def test_closed_form_two_coupling_limit():
    # omega_e = 0 and h = s = 0: hand-integrable Rabi problem
    coeffs = SectorCoefficients(
        h=0.0, s=0.0, nu=0.0, v1=0.04 * math.sqrt(2), v2=0.06 * math.sqrt(2), omega_e=0.0, n=1
    )
    t = tau_grid(40.0, 1200)
    big_v = math.hypot(coeffs.v1, coeffs.v2)
    expected = np.stack(
        [
            -1j * (coeffs.v2 / big_v) * np.sin(big_v * t),
            1.0 - (coeffs.v2**2 / big_v**2) * (1.0 - np.cos(big_v * t)),
            -(coeffs.v1 * coeffs.v2 / big_v**2) * (1.0 - np.cos(big_v * t)),
        ],
        axis=1,
    )
    ana = analytic_trajectory(coeffs, EXCITED, t)
    assert np.max(np.abs(ana.amplitudes - expected)) <= 1e-9
    ode = amplitudes_ode(coeffs, EXCITED, t)
    assert np.max(np.abs(ode.amplitudes - expected)) <= 1e-8


def test_fully_decoupled_sector_is_constant():
    p = ModelParams(0.2, (0.3, 0.4, 0.5), 0.0, 0.0, 0.0, Kerr(0.0), 1)
    ic = InitialCondition(*(complex(1 / math.sqrt(3)),) * 3)
    traj = solve_sector(p, tau_grid(20.0, 200), ic=ic)
    # the degenerate spectrum (double root at 0) takes the analytic route too
    assert traj.method == "Analytic"
    c = sector_coefficients(p)
    assert np.array_equal(np.linalg.eigvalsh(sector_generator(c)), [-c.s, 0.0, 0.0])
    # K = diag(0, -s, 0): the largest |lambda| is s exactly
    assert traj.phase_error_bound == 2.0**-53 * c.s * traj.times[-1]
    assert np.max(np.abs(traj.amplitudes - ic.as_array())) <= 1e-12


def test_level2_decouples_without_its_couplings():
    # g2 = 0 and omega_e = 0 freeze c2 at 1
    p = ModelParams(0.2, (0.3, 0.4, 0.5), 0.04, 0.0, 0.0, Kerr(0.0), 1)
    t = tau_grid(30.0, 300)
    for method in ("analytic", "oracle"):
        traj = solve_sector(p, t, method=method)
        assert np.max(np.abs(traj.amplitudes[:, 1] - 1.0)) <= 1e-12
        assert np.max(np.abs(traj.amplitudes[:, 0])) <= 1e-12
        assert np.max(np.abs(traj.amplitudes[:, 2])) <= 1e-12


@pytest.mark.parametrize("kwargs", ROW_KWARGS)
def test_analytic_matches_ode_fig_rows(kwargs):
    p = fig_params(**kwargs)
    t = tau_grid(50.0, 700)
    ana = solve_sector(p, t, method="analytic")
    orc = solve_sector(p, t, method="oracle")
    assert ana.method == "Analytic"
    assert orc.method == "Oracle"
    assert np.max(np.abs(ana.amplitudes - orc.amplitudes)) <= 1e-6


@pytest.mark.parametrize("kwargs", ROW_KWARGS)
def test_norm_conservation_fig_rows(kwargs):
    # canonical figure sampling density (2000 points per plotted interval);
    # sparser grids let the integrator take larger steps and drift more
    p = fig_params(**kwargs)
    t = tau_grid(60.0, 2000)
    for method in ("analytic", "oracle"):
        assert solve_sector(p, t, method=method).norm_error() <= 1e-9


def test_ode_tolerance_convergence(monkeypatch):
    # amplitudes_ode reads the tolerance from dynamics.ODE_TOLERANCE
    p = fig_params(omega_e=0.08, g1=0.06, g2=0.08, chi=0.2)
    c = sector_coefficients(p)
    t = tau_grid(60.0, 400)
    oracle = amplitudes_ode(c, EXCITED, t).amplitudes

    def oracle_amplitudes(tol):
        monkeypatch.setattr(dynamics, "ODE_TOLERANCE", tol)
        return amplitudes_ode(c, EXCITED, t).amplitudes

    def norm_error(amps):
        return float(np.max(np.abs(np.sum(np.abs(amps) ** 2, axis=1) - 1.0)))

    loose = norm_error(oracle_amplitudes(1e-6))
    tight = norm_error(oracle_amplitudes(1e-12))
    assert tight < loose
    assert tight <= 1e-10
    assert np.array_equal(oracle, oracle_amplitudes(ODE_TOLERANCE))


def test_phase_convention_pinned_by_oracle():
    # the analytic c2/c3 carry e^{-i s t} / e^{-i h t}; stripping them must
    # break agreement with the ODE when the detunings are non-zero
    p = fig_params(g1=0.06, g2=0.08, chi=0.2)
    c = sector_coefficients(p)
    t = tau_grid(30.0, 400)
    ana = solve_sector(p, t, method="analytic")
    orc = solve_sector(p, t, method="oracle")
    assert np.max(np.abs(ana.amplitudes[:, 1] - orc.amplitudes[:, 1])) <= 1e-6
    shifted_c2 = ana.amplitudes[:, 1] * np.exp(1j * c.s * t)
    shifted_c3 = ana.amplitudes[:, 2] * np.exp(1j * c.h * t)
    assert np.max(np.abs(shifted_c2 - orc.amplitudes[:, 1])) > 0.1
    assert np.max(np.abs(shifted_c3 - orc.amplitudes[:, 2])) > 0.01


@pytest.mark.parametrize("kwargs", ROW_KWARGS)
def test_explicit_formulas_match_residue_construction(kwargs):
    p = fig_params(**kwargs)
    c = sector_coefficients(p)
    roots = bisection_roots(c)
    t = np.linspace(0.0, 250.0, 41)
    traj = analytic_trajectory(c, EXCITED, t)
    for ti, amps in zip(t, traj.amplitudes):
        explicit = explicit_excited_amplitudes(c, roots, ti)
        assert np.max(np.abs(amps - np.array(explicit))) <= 1e-12


def test_explicit_formulas_entry_values():
    # the three-pole expansion must honor the entry condition on its own
    p = fig_params(g1=0.06, g2=0.08, chi=0.2)
    c = sector_coefficients(p)
    c1, c2, c3 = explicit_excited_amplitudes(c, bisection_roots(c), 0.0)
    assert abs(c1) <= 1e-13
    assert abs(c2 - 1.0) <= 1e-13
    assert abs(c3) <= 1e-13


def test_explicit_formulas_random_coefficients():
    rng = np.random.default_rng(42)
    for _ in range(50):
        coeffs = SectorCoefficients(
            h=float(rng.uniform(-0.5, 0.5)),
            s=float(rng.uniform(-0.5, 0.5)),
            nu=0.0,  # nu enters the explicit/eigendecomposition paths only through h, s
            v1=float(rng.uniform(0.01, 0.3)),
            v2=float(rng.uniform(0.01, 0.3)),
            omega_e=float(rng.uniform(0.0, 0.2)),
            n=1,
        )
        t = float(rng.uniform(0.0, 100.0))
        amps = analytic_trajectory(coeffs, EXCITED, np.array([t])).amplitudes[0]
        explicit = explicit_excited_amplitudes(coeffs, bisection_roots(coeffs), t)
        assert np.max(np.abs(amps - np.array(explicit))) <= 1e-12


def test_solve_sector_defaults_to_analytic():
    traj = solve_sector(fig_params(), tau_grid(10.0, 50))
    assert traj.method == "Analytic"
    assert 0.0 < traj.phase_error_bound <= PHASE_ERROR_LIMIT
    assert traj.steps_accepted is None and traj.steps_rejected is None


def test_solve_sector_forced_analytic_solves_degenerate():
    # all couplings zero: double root at 0; the forced analytic route solves
    # it and agrees with the ODE oracle for a phased initial condition
    p = ModelParams(0.2, (0.3, 0.4, 0.5), 0.0, 0.0, 0.0, Kerr(0.0), 1)
    ic = InitialCondition(complex(0.6, 0.0), complex(0.0, 0.48), complex(0.384, 0.512))
    t = tau_grid(10.0, 50)
    ana = solve_sector(p, t, ic=ic, method="analytic")
    orc = solve_sector(p, t, ic=ic, method="oracle")
    assert ana.method == "Analytic"
    assert ana.phase_error_bound <= PHASE_ERROR_LIMIT
    assert np.min(np.diff(np.linalg.eigvalsh(sector_generator(sector_coefficients(p))))) == 0.0
    assert np.max(np.abs(ana.amplitudes - orc.amplitudes)) <= 1e-6
    assert ana.norm_error() <= 1e-12


def test_solve_sector_rejects_bad_method_and_grid():
    p = fig_params()
    for method in ("magic", "auto"):
        with pytest.raises(ValueError):
            solve_sector(p, tau_grid(10.0, 50), method=method)
    # "numpy" names the one ODE kernel; any other backend is refused
    grid = tau_grid(10.0, 50)
    oracle = solve_sector(p, grid, method="oracle").amplitudes
    assert np.array_equal(solve_sector(p, grid, method="oracle", backend="numpy").amplitudes, oracle)
    for backend in ("fortran", ""):
        with pytest.raises(ValueError, match="backend must be None or 'numpy'"):
            solve_sector(p, grid, method="oracle", backend=backend)
    with pytest.raises(ValueError):
        solve_sector(p, np.array([1.0, 2.0]))  # must start at 0
    with pytest.raises(ValueError):
        solve_sector(p, np.array([0.0, 2.0, 1.0]))  # not increasing
    with pytest.raises(ValueError):
        solve_sector(p, np.array([]))


def test_trajectory_accessors():
    p = fig_params()
    traj = solve_sector(p, tau_grid(5.0, 20))
    assert len(traj) == 20
    assert traj.amplitudes.shape == (20, 3)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(25.0)
    assert np.sum(np.abs(traj.amplitudes[5]) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_step_size_underflow():
    coeffs = SectorCoefficients(h=0.0, s=0.0, nu=0.0, v1=1e15, v2=1e15, omega_e=0.0, n=0)
    with pytest.raises(StepSizeUnderflowError, match="^sector 0 ODE oracle: step size underflow"):
        amplitudes_ode(coeffs, EXCITED, np.array([0.0, 1.0]))


def test_general_initial_condition_cross_method():
    p = fig_params(omega_e=0.08, g1=0.06, g2=0.08, chi=0.2)
    c1 = complex(0.2, 0.4)
    c2 = complex(0.0, 0.5)
    c3 = complex(math.sqrt(1.0 - abs(c1) ** 2 - abs(c2) ** 2), 0.0) * complex(0.6, 0.8)
    ic = InitialCondition(c1, c2, c3)
    t = tau_grid(40.0, 500)
    ana = solve_sector(p, t, ic=ic, method="analytic")
    orc = solve_sector(p, t, ic=ic, method="oracle")
    assert np.max(np.abs(ana.amplitudes - orc.amplitudes)) <= 1e-6
    assert ana.norm_error() <= 1e-9


def shifted_propagator(coeffs, times):
    """U(t) of the shifted amplitudes at each time: the trajectories of the
    three basis states with the rotating phases e^{-ist}, e^{-iht} removed."""
    basis = (InitialCondition(1, 0, 0), InitialCondition(0, 1, 0), InitialCondition(0, 0, 1))
    cols = [analytic_trajectory(coeffs, ic, times).amplitudes for ic in basis]
    unitary = np.stack(cols, axis=2)  # (T, 3, 3), column j evolves basis state j
    phases = np.stack([np.ones_like(times), np.exp(1j * coeffs.s * times), np.exp(1j * coeffs.h * times)], axis=1)
    return phases[:, :, None] * unitary


def test_propagator_group_property():
    # U(t1 + t2) = U(t1) U(t2) over seeded random sectors, zero couplings included
    rng = np.random.default_rng(7)
    for i in range(60):
        p = random_params(rng)
        if i % 3 == 0:
            p = replace(p, g1=0.0, g2=0.0, omega_e=0.0)
        elif i % 3 == 1:
            p = replace(p, g2=0.0, omega_e=0.0)
        c = sector_coefficients(p)
        t1, t2 = np.sort(rng.uniform(0.0, 100.0, 2))
        u1, u2, u12 = shifted_propagator(c, np.array([t1, t2, t1 + t2]))
        assert np.max(np.abs(u12 - u1 @ u2)) <= 1e-12


@pytest.mark.parametrize("tau", (10.0, 30.0, 50.0))
def test_norm_drift_large_sectors(tau):
    # every sector of the all-sector Husimi sum at range 10, row 2 of the figures
    base = fig_params(g1=0.06, g2=0.08, chi=0.2)
    t = np.array([0.0, tau / base.omega_cavity])
    worst = max(solve_sector(replace(base, sector_n=n), t).norm_error() for n in range(343))
    assert worst <= 1e-12


def test_ode_step_counts_recorded():
    p = fig_params()
    traj = solve_sector(p, tau_grid(20.0, 200), method="oracle")
    assert traj.phase_error_bound is None
    assert traj.steps_accepted > 0
    assert traj.steps_rejected >= 0



def test_stacked_propagator_rows_equal_one_sector_route():
    # one propagate call over all 343 sectors of figure row 2 gives each
    # sector the same bits as analytic_trajectory's stack of one, on a grid
    # that starts past t = 0 (where analytic_trajectory pins the sample)
    base = fig_params(g1=0.06, g2=0.08, chi=0.2)
    coeffs = [sector_coefficients(replace(base, sector_n=n)) for n in range(343)]
    generators = np.array([sector_generator(c) for c in coeffs])
    times = np.linspace(0.5, 50.0 / base.omega_cavity, 40)
    for ic in (EXCITED, InitialCondition(0.6, 0.8j, 0.0)):
        bound, shifted = propagate(generators, ic.as_array(), times)
        assert shifted.shape == (343, 3, times.size)
        trajectories = [analytic_trajectory(c, ic, times) for c in coeffs]
        # the stack's bound is the largest of the sectors' bounds
        assert bound == max(traj.phase_error_bound for traj in trajectories)
        for c, x, traj in zip(coeffs, shifted, trajectories):
            amps = traj.amplitudes
            assert np.array_equal(amps[:, 0], x[0])
            assert np.array_equal(amps[:, 1], np.exp(-1j * c.s * times) * x[1])
            assert np.array_equal(amps[:, 2], np.exp(-1j * c.h * times) * x[2])


def test_stacked_propagator_random_stack_matches_stacks_of_one():
    rng = np.random.default_rng(11)
    params = [random_params(rng) for _ in range(40)]
    generators = np.array([sector_generator(sector_coefficients(p)) for p in params])
    x0 = rng.normal(size=3) + 1j * rng.normal(size=3)
    times = np.sort(rng.uniform(0.0, 300.0, 25))
    bound, shifted = propagate(generators, x0 / np.linalg.norm(x0), times)
    bounds = []
    for k in range(len(params)):
        bound_k, shifted_k = propagate(generators[k : k + 1], x0 / np.linalg.norm(x0), times)
        assert np.array_equal(shifted[k], shifted_k[0])
        bounds.append(bound_k)
    assert bound == max(bounds)
    lam = np.linalg.eigh(generators)[0]  # the decomposition propagate makes
    assert bound == 2.0**-53 * float(np.max(np.abs(lam))) * times[-1]


# the ODE oracle (amplitudes_ode and its step loop)


@pytest.mark.parametrize("row, steps", zip(ROWS, (823, 1817, 1786)), ids=[row.label for row in ROWS])
def test_step_count_pins_the_order(row, steps):
    # with only the end point tau = 60 requested, no grid point caps the
    # step, so the attempted steps measure the method's order: a wrong
    # stage coefficient lowers it and multiplies the count (6-80x for the
    # one-digit slips tried)
    p = row_params(row)
    traj = amplitudes_ode(sector_coefficients(p), EXCITED, np.array([0.0, 60.0]) / p.omega_cavity)
    assert abs(traj.steps_accepted + traj.steps_rejected - steps) <= 0.05 * steps


def test_grid_density_does_not_change_the_solution():
    p = fig_params(g1=0.06, g2=0.08, chi=0.2)
    coeffs = sector_coefficients(p)
    coarse = amplitudes_ode(coeffs, EXCITED, np.array([0.0, 50.0]))
    fine = amplitudes_ode(coeffs, EXCITED, np.linspace(0.0, 50.0, 101))
    assert np.max(np.abs(coarse.amplitudes[-1] - fine.amplitudes[-1])) <= 1e-9


def test_single_point_grid():
    coeffs = SectorCoefficients(h=0.0, s=0.1, nu=0.1, v1=0.05, v2=0.05, omega_e=0.0, n=1)
    traj = amplitudes_ode(coeffs, EXCITED, np.array([0.0]))
    assert len(traj) == 1
    assert traj.amplitudes[0, 1] == 1.0 + 0j


PLAIN_SECTOR = SectorCoefficients(h=0.28, s=0.38, nu=0.1, v1=0.11, v2=0.15, omega_e=0.04, n=1)


def test_kernel_counts_steps():
    traj = amplitudes_ode(PLAIN_SECTOR, EXCITED, np.linspace(0.0, 100.0, 11))
    assert traj.steps_accepted >= 10
    assert np.all(np.isfinite(traj.amplitudes))


def test_kernel_rejects_steps_at_a_loose_tolerance(monkeypatch):
    # at ODE_TOLERANCE the reference rows never reject a step; at 1e-2 the
    # first step overshoots, so the controller's reject branch runs
    monkeypatch.setattr(dynamics, "ODE_TOLERANCE", 1e-2)
    c = sector_coefficients(row_params(ROWS[0]))
    t = np.array([0.0, 250.0])
    first = amplitudes_ode(c, EXCITED, t)
    assert first.steps_accepted >= 1 and first.steps_rejected >= 1
    assert np.all(np.isfinite(first.amplitudes))
    again = amplitudes_ode(c, EXCITED, t)
    assert np.array_equal(first.amplitudes, again.amplitudes)
    assert (first.steps_accepted, first.steps_rejected) == (again.steps_accepted, again.steps_rejected)


def test_kernel_nan_step_ends_as_underflow():
    # a NaN constant makes the first step NaN; the guard must end the loop.
    # SectorCoefficients refuses NaN, so the loop gets a bare record
    nan_sector = SimpleNamespace(h=math.nan, s=0.0, nu=0.0, v1=0.05, v2=0.05, omega_e=0.0)
    with pytest.raises(StepSizeUnderflowError, match="^step size underflow"):
        dynamics._dormand_prince(np.array([0.0, 1.0]), EXCITED, nan_sector)


def test_kernel_repeated_calls_are_identical():
    times = np.linspace(0.0, 100.0, 201)
    first, second = (amplitudes_ode(PLAIN_SECTOR, EXCITED, times) for _ in range(2))
    assert np.array_equal(first.amplitudes, second.amplitudes)
    assert (first.steps_accepted, first.steps_rejected) == (second.steps_accepted, second.steps_rejected)


def test_oracle_matches_analytic_on_random_sectors():
    # detunings up to |h|, |s| = 5 and sectors up to n = 300 (couplings up
    # to ~3.5), so the phases reach ~200 rad; tolerance of validate criterion 1
    rng = np.random.default_rng(2024)
    t = np.linspace(0.0, 40.0, 81)
    for _ in range(30):
        n = int(rng.integers(0, 301))
        h, s = (float(x) for x in rng.uniform(-5.0, 5.0, 2))
        g1, g2, omega_e = (float(x) for x in rng.uniform(0.0, 0.2, 3))
        coeffs = SectorCoefficients(
            h=h, s=s, nu=s - h, v1=g1 * math.sqrt(n + 1), v2=g2 * math.sqrt(n + 1), omega_e=omega_e, n=n
        )
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        ic = InitialCondition(*(complex(c) for c in z / np.linalg.norm(z)))
        ana = analytic_trajectory(coeffs, ic, t)
        ode = amplitudes_ode(coeffs, ic, t)
        assert np.max(np.abs(ana.amplitudes - ode.amplitudes)) <= 1e-6, (n, h, s)


def test_oracle_rejects_overflowed_constants():
    # the sector record refuses the constants when it is built, so the
    # oracle never steps on them
    with pytest.raises(OverflowError, match="constants of sector 4"):
        amplitudes_ode(
            SectorCoefficients(h=-math.inf, s=math.inf, nu=math.inf, v1=0.05, v2=0.05, omega_e=0.0, n=4),
            EXCITED,
            np.array([0.0, 1.0]),
        )


def test_oracle_rejects_overflowed_phases():
    # finite constants whose phase s * t leaves the floating-point range
    coeffs = SectorCoefficients(h=0.0, s=1e200, nu=1e200, v1=0.0, v2=0.0, omega_e=0.0, n=2)
    with pytest.raises(OverflowError, match="^sector 2 ODE oracle: the phases overflow the floating-point range"):
        amplitudes_ode(coeffs, EXCITED, np.array([0.0, 1e200]))


def test_step_budget_ends_the_run(monkeypatch):
    # a run that needs exactly the budget is unchanged; one step less raises
    p = fig_params(g1=0.06, g2=0.08, chi=0.2)
    coeffs = sector_coefficients(p)
    t = np.linspace(0.0, 60.0, 400) / p.omega_cavity
    full = amplitudes_ode(coeffs, EXCITED, t)
    steps = full.steps_accepted + full.steps_rejected
    assert steps < dynamics.MAX_STEPS
    monkeypatch.setattr(dynamics, "MAX_STEPS", steps)
    exact = amplitudes_ode(coeffs, EXCITED, t)
    assert np.array_equal(exact.amplitudes, full.amplitudes)
    assert (exact.steps_accepted, exact.steps_rejected) == (full.steps_accepted, full.steps_rejected)
    monkeypatch.setattr(dynamics, "MAX_STEPS", steps - 1)
    with pytest.raises(StepBudgetError, match=f"budget of {steps - 1} steps"):
        amplitudes_ode(coeffs, EXCITED, t)


# the propagator's roots alpha = -i lambda against Theta and a bisection oracle


def test_solve_cubic_factorable():
    # h = s = omega_e = 0: Theta = z (z^2 + v1^2 + v2^2) = z (z^2 + 0.1^2)
    coeffs = SectorCoefficients(h=0.0, s=0.0, nu=0.0, v1=0.06, v2=0.08, omega_e=0.0, n=0)
    roots = propagator_roots(coeffs)
    expected = (-0.1j, 0.0, 0.1j)
    for got, want in zip(roots, expected):
        assert got == pytest.approx(want, abs=1e-15)
    assert min_gap(roots) == pytest.approx(0.1, abs=1e-12)


def test_solve_cubic_orders_by_imaginary_part():
    c = sector_coefficients(fig_params(g1=0.06, g2=0.08, chi=0.2))
    roots = propagator_roots(c)
    assert roots[0].imag < roots[1].imag < roots[2].imag


def test_solve_cubic_vieta_fig_row():
    c = sector_coefficients(fig_params())
    a2, a1, a0 = theta_poly(c)
    a, b, cc = propagator_roots(c)
    assert abs((a + b + cc) - (-a2)) <= 1e-12 * max(1.0, abs(a2))
    assert abs(a * b * cc - (-a0)) <= 1e-12 * max(1.0, abs(a0))
    assert abs(a * b + a * cc + b * cc - a1) <= 1e-12 * max(1.0, abs(a1))


def test_solve_cubic_against_bisection_oracle_fig_rows():
    for kwargs in (
        dict(),
        dict(g1=0.06, g2=0.08, chi=0.2),
        dict(omega_e=0.08, g1=0.06, g2=0.08, chi=0.2),
    ):
        c = sector_coefficients(fig_params(**kwargs))
        p = fig_params(**kwargs)
        roots = propagator_roots(c)
        oracle = real_cubic_roots_bisection(*lambda_cubic(c))
        assert len(oracle) == 3
        for got, lam in zip(roots, oracle):
            assert got.imag == pytest.approx(lam, abs=1e-12)
            assert abs(got.real) <= 1e-12


def test_property_sweep_roots_purely_imaginary():
    # 1000 random physical tuples, every one checked; oracle = bisection on the real cubic
    rng = np.random.default_rng(20250810)
    eps = np.finfo(float).eps
    for _ in range(1000):
        p = random_params(rng)
        c = sector_coefficients(p)
        roots = propagator_roots(c)
        scale = max(1.0, max(abs(z.imag) for z in roots))
        assert all(abs(z.real) <= 1e-10 * scale for z in roots)
        assert theta_residual(c, roots) <= 1e-12
        b2, b1, b0 = lambda_cubic(c)
        oracle = real_cubic_roots_bisection(b2, b1, b0)
        assert len(oracle) == 3
        for got, lam in zip(roots, oracle):
            # both routes stop at the double-precision floor: polynomial
            # evaluation noise divided by the root's derivative magnitude
            slope = abs(np.prod([lam - other for other in oracle if other != lam])) or 1.0
            noise = 8.0 * eps * (abs(lam) ** 3 + abs(b2) * lam**2 + abs(b1 * lam) + abs(b0))
            assert abs(got.imag - lam) <= 1e-12 + noise / slope


def test_degenerate_roots_are_solved():
    # all couplings zero: Theta = z^2 (z - i s), double root at 0
    coeffs = SectorCoefficients(h=0.0, s=0.1, nu=0.1, v1=0.0, v2=0.0, omega_e=0.0, n=1)
    roots = propagator_roots(coeffs)
    assert roots == (0.0, 0.0, 0.1j)
    assert min_gap(roots) == 0.0
    assert theta_residual(coeffs, roots) == 0.0
    # fully trivial sector: triple root at 0
    coeffs = SectorCoefficients(h=0.0, s=0.0, nu=0.0, v1=0.0, v2=0.0, omega_e=0.0, n=0)
    roots = propagator_roots(coeffs)
    assert roots == (0.0, 0.0, 0.0)
    assert min_gap(roots) == 0.0


def test_sector_generator_rejects_overflowed_constants():
    # the sector record refuses the constant when it is built, so no
    # generator is ever made from it
    with pytest.raises(OverflowError, match="sector 7"):
        sector_generator(SectorCoefficients(h=0.0, s=0.0, nu=0.0, v1=math.inf, v2=0.1, omega_e=0.0, n=7))
