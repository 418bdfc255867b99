import math
from types import SimpleNamespace

import numpy as np
import pytest

from djcm import dynamics
from djcm.dynamics import (
    EXCITED,
    InitialCondition,
    StepBudgetError,
    StepSizeUnderflowError,
    amplitudes_ode,
    analytic_trajectory,
)
from djcm.figures import ROWS, row_params
from djcm.model import SectorCoefficients, sector_coefficients

from test_model import fig_params


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
