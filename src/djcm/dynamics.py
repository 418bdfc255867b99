"""Time evolution of the three amplitudes of one photon sector.

The shifted amplitude triple of one photon sector obeys dx/dt = -iKx
with the real symmetric generator

    K = [[0, v2, v1], [v2, -s, omega_e], [v1, omega_e, -h]].

Its Laplace-domain matrix is M(z) = zI + iK, whose determinant Theta(z)
is a monic cubic with roots alpha_j = -i lambda_j, lambda_j the
eigenvalues of K.  Two independent routes produce the same trajectory:

* the analytic path diagonalises K and evolves the shifted amplitudes as
  V exp(-i Lambda t) V^T x0, which is the residue expansion of the
  Laplace inversion over the roots of Theta; it then restores the
  rotating phases on the second and third amplitudes;
* the oracle path integrates the coupled amplitude ODEs directly with
  an adaptive Dormand-Prince 5(4) scheme.

The analytic path is the default, degenerate spectra included.  eigh
finds each lambda_j to about u max|lambda| (u = 2^-53), so each phase
lambda_j t is off by up to u max|lambda| max|t|: propagate refuses a
solve whose bound exceeds PHASE_ERROR_LIMIT.  The ODE path is the
independent cross-check.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .backend import ACTIVE
from .model import ModelParams, SectorCoefficients, sector_coefficients

__all__ = [
    "METHOD_ANALYTIC",
    "METHOD_ORACLE",
    "ODE_TOLERANCE",
    "MAX_STEPS",
    "PHASE_ERROR_LIMIT",
    "PhaseAccuracyError",
    "StepSizeUnderflowError",
    "StepBudgetError",
    "InitialCondition",
    "EXCITED",
    "Trajectory",
    "norm_drift",
    "tau_grid",
    "sector_generator",
    "propagate",
    "propagator_errors",
    "analytic_trajectory",
    "amplitudes_ode",
    "solve_sector",
]

METHOD_ANALYTIC = "Analytic"
METHOD_ORACLE = "Oracle"

# the oracle's relative and absolute error tolerance per step
ODE_TOLERANCE = 1e-10

# Attempted (accepted + rejected) steps per oracle call.  The cost of a run
# grows with |h| t, |s| t and the couplings times t, so a fast-rotating
# sector would otherwise step for hours.  The loop takes ~23 us per step
# on a 2-vCPU VM, so the budget ends such a run after ~2.3 s; validate's
# longest oracle rows take 3999 steps, 25x below it.  Every grid interval
# takes at least one accepted step, so a grid of more intervals than the
# budget is refused before the first step.
MAX_STEPS = 100_000

# the largest phase error the analytic route vouches for: validate's
# cross-method tolerance
PHASE_ERROR_LIMIT = 1e-6


class PhaseAccuracyError(ArithmeticError):
    """The analytic route's phase error bound exceeds PHASE_ERROR_LIMIT:
    double precision cannot resolve the phases lambda_j t."""


class StepSizeUnderflowError(ArithmeticError):
    """The adaptive integrator could not meet its tolerance with any
    representable step size (pathological parameters)."""


class StepBudgetError(ArithmeticError):
    """The adaptive integrator used up its fixed step budget
    (MAX_STEPS) before the end of the grid."""


@dataclass(frozen=True)
class InitialCondition:
    """Normalized amplitude triple at t = 0, complex with -0.0 parts stored as
    0.0; default: the atom enters |2>, the field is the sector's number state."""

    c1: complex = 0j
    c2: complex = 1.0 + 0j
    c3: complex = 0j

    def __post_init__(self):
        for name in ("c1", "c2", "c3"):
            object.__setattr__(self, name, complex(getattr(self, name)) + 0j)
        norm = abs(self.c1) ** 2 + abs(self.c2) ** 2 + abs(self.c3) ** 2
        if not abs(norm - 1.0) <= 1e-12:  # a NaN amplitude fails too
            raise ValueError(f"initial amplitudes must be normalized, |c|^2 = {norm!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.c1, self.c2, self.c3], dtype=np.complex128)


EXCITED = InitialCondition()


@dataclass(frozen=True)
class Trajectory:
    """Sampled sector evolution at raw times t.

    amplitudes has shape (len(times), 3): row i holds the amplitudes of
    |1,n+1>, |2,n>, |3,n> at times[i], and every observable in
    djcm.observables takes the whole array or any row of it.  The record
    holds no model constants: the caller keeps the ModelParams it solved.
    method records which route produced it.  phase_error_bound is set on
    the analytic route (see propagate), the integrator's accepted and
    rejected step counts on the oracle route.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    method: str
    phase_error_bound: float | None = None
    steps_accepted: int | None = None
    steps_rejected: int | None = None

    def __len__(self) -> int:
        return len(self.times)


def norm_drift(amps: np.ndarray) -> float:
    """max over samples of | |c1|^2+|c2|^2+|c3|^2 - 1 |, amps of shape (..., 3)."""
    return float(np.max(np.abs(np.sum(np.abs(amps) ** 2, axis=-1) - 1.0)))


def _as_grid(times, require_zero_start: bool) -> np.ndarray:
    grid = np.asarray(times, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("time grid must be a non-empty 1-D array")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("time grid must be strictly increasing")
    if require_zero_start and grid[0] != 0.0:
        raise ValueError("time grid must start at t = 0")
    return grid


def tau_grid(tau_max: float, samples: int) -> np.ndarray:
    """A run's scaled time grid: config.RunConfig checks it, runner.time_axis solves on it."""
    return np.linspace(0.0, tau_max, samples)


def sector_generator(coeffs: SectorCoefficients) -> np.ndarray:
    """Real symmetric generator K of the shifted amplitudes, dx/dt = -iKx."""
    c = coeffs
    return np.array([[0.0, c.v2, c.v1], [c.v2, -c.s, c.omega_e], [c.v1, c.omega_e, -c.h]])


@contextmanager
def propagator_errors(label: str):
    """Prefix '<label>: ' to any ArithmeticError raised inside the block, so
    every numerical range error names the solve it came from; NumPy
    floating-point overflow or an invalid operation there raises a
    FloatingPointError."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except ArithmeticError as exc:
        raise type(exc)(f"{label}: {exc}") from exc


def propagate(sectors: list[SectorCoefficients], ic: InitialCondition, times: np.ndarray) -> tuple[float, np.ndarray]:
    """Shifted amplitudes x(t) = V exp(-i Lambda t) V^T x0 of a stack of sectors.

    The one solve of the analytic route: each sector's generator
    K = V Lambda V^T (sector_generator) goes into one (N, 3, 3) stack,
    evolved from the common initial condition ic over the 1-D grid times.
    Returns the phase error bound u max|lambda| max|t| over the whole stack,
    u = 2^-53, and x, shape (N, 3, T): the residue expansion of the Laplace
    inversion, with projector residues over the poles alpha_j = -i lambda_j.
    Every sector of the stack gets the same bits as a stack of one.  At
    t = 0, x = V V^T x0 equals x0 up to round-off; those samples are pinned
    to ic, keeping the round-off (~1e-16) out of observables that are
    identically zero there.
    Raises PhaseAccuracyError, before any phase is evaluated, when the bound
    is not at most PHASE_ERROR_LIMIT; every arithmetic error opens with
    'sector <n> propagator: ' or 'sectors <a>..<b> propagator: '.
    """
    label = f"sector {sectors[0].n}" if len(sectors) == 1 else f"sectors {sectors[0].n}..{sectors[-1].n}"
    x0 = ic.as_array()
    with propagator_errors(label + " propagator"):
        lam, vec = np.linalg.eigh(np.array([sector_generator(c) for c in sectors]))
        bound = 2.0**-53 * float(np.max(np.abs(lam))) * float(np.max(np.abs(times)))
        if not bound <= PHASE_ERROR_LIMIT:
            raise PhaseAccuracyError(f"phase error bound {bound:.3g} exceeds {PHASE_ERROR_LIMIT:g}")
        weights = x0 @ vec
        x = vec @ (weights[..., None] * np.exp(-1j * (lam[..., None] * times)))
    x[..., times == 0.0] = x0[:, None]
    return bound, x


def analytic_trajectory(coeffs: SectorCoefficients, ic: InitialCondition, times) -> Trajectory:
    """Closed-form trajectory over a strictly increasing time grid.

    The shifted amplitudes come from propagate with a stack of one; the
    rotating phases are restored on the second and third amplitudes.
    Raises PhaseAccuracyError when the phases are not resolved to
    PHASE_ERROR_LIMIT (see propagate); since max|lambda| >= |s|, |h|, that
    also covers the rotating phases.
    """
    grid = _as_grid(times, require_zero_start=False)
    bound, (shifted,) = propagate([coeffs], ic, grid)
    amps = np.empty((grid.size, 3), dtype=np.complex128)
    amps[:, 0] = shifted[0]
    amps[:, 1] = np.exp(-1j * coeffs.s * grid) * shifted[1]
    amps[:, 2] = np.exp(-1j * coeffs.h * grid) * shifted[2]
    return Trajectory(times=grid, amplitudes=amps, method=METHOD_ANALYTIC, phase_error_bound=bound)


def _step_budget_error(budget: int, t_end: float) -> StepBudgetError:
    return StepBudgetError(
        f"used up its budget of {budget} steps before t = {t_end!r}; the analytic route solves these parameters"
    )


def _dormand_prince(grid: np.ndarray, ic: InitialCondition, coeffs: SectorCoefficients):
    """Adaptive Dormand-Prince 5(4) integration of the sector amplitudes over
    a strictly increasing grid; returns (out[T, 3] complex128, accepted
    steps, rejected steps).

    The right-hand side and the weighted RMS error norm are each written
    once, as inner functions called by the initial-step probe and every
    stage.  The system is only three complex amplitudes, so the loop works
    on Python float/complex scalars, with the rotating phases from
    cmath.exp: NumPy scalars would send every operation through NumPy's far
    slower scalar arithmetic.  Error control uses the mixed absolute/relative
    norm with the one tolerance ODE_TOLERANCE for both parts and a PI
    step-size controller; the fifth-order solution is propagated.  Grid
    points are hit exactly by clipping the step; no dense interpolation.
    A step that is NaN or below 1e-14 * max(1, |t|) raises
    StepSizeUnderflowError, and a run that has attempted MAX_STEPS steps
    before the last grid point raises StepBudgetError.
    """
    tol = ODE_TOLERANCE
    budget = MAX_STEPS
    hh, ss, nu = float(coeffs.h), float(coeffs.s), float(coeffs.nu)
    v1, v2, ome = float(coeffs.v1), float(coeffs.v2), float(coeffs.omega_e)
    # the phases' rates i h, i s, i nu, formed once per call
    ihh, iss, inu = 1j * hh, 1j * ss, 1j * nu

    # inner functions: they read the call's constants from the closure
    def rhs(tt, w1, w2, w3):
        ph = cmath.exp(ihh * tt)
        ps = cmath.exp(iss * tt)
        pn = cmath.exp(inu * tt)
        return (
            -1j * (v1 * ph * w3 + v2 * ps * w2),
            -1j * (v2 * ps.conjugate() * w1 + ome * pn.conjugate() * w3),
            -1j * (v1 * ph.conjugate() * w1 + ome * pn * w2),
        )

    def wrms(a1, a2, a3, m1, m2, m3):
        # component j is scaled by tol + tol * m_j, m_j an amplitude magnitude
        r1 = abs(a1) / (tol + tol * m1)
        r2 = abs(a2) / (tol + tol * m2)
        r3 = abs(a3) / (tol + tol * m3)
        return math.sqrt((r1**2 + r2**2 + r3**2) / 3.0)

    n_out = grid.shape[0]
    out = np.empty((n_out, 3), np.complex128)
    y1, y2, y3 = ic.c1, ic.c2, ic.c3
    out[0] = y1, y2, y3
    if n_out == 1:
        return out, 0, 0

    t = float(grid[0])
    t_end = float(grid[n_out - 1])
    nacc = 0
    nrej = 0

    # first derivative (also the FSAL carry)
    k11, k12, k13 = rhs(t, y1, y2, y3)

    # initial step size: standard two-probe heuristic
    m1, m2, m3 = abs(y1), abs(y2), abs(y3)
    d0 = wrms(y1, y2, y3, m1, m2, m3)
    d1 = wrms(k11, k12, k13, m1, m2, m3)
    if d0 < 1e-5 or d1 < 1e-5:
        h = 1e-6
    else:
        h = 0.01 * d0 / d1
    h = min(h, t_end - t)
    f11, f12, f13 = rhs(t + h, y1 + h * k11, y2 + h * k12, y3 + h * k13)
    d2 = wrms(f11 - k11, f12 - k12, f13 - k13, m1, m2, m3) / h
    der = max(d1, d2)
    if der > 1e-15:
        h1 = (0.01 / der) ** 0.2
    else:
        h1 = max(1e-6, h * 1e-3)
    h = min(100.0 * h, h1, t_end - t)

    safe = 0.9
    beta = 0.04
    expo1 = 0.2 - beta * 0.75
    facold = 1e-4
    rejected = False

    for i in range(1, n_out):
        target = float(grid[i])
        while t < target:
            if nacc + nrej >= budget:
                raise _step_budget_error(budget, t_end)
            # `not >=` also ends on a NaN step (non-finite derivatives)
            if not h >= 1e-14 * max(1.0, abs(t)):
                raise StepSizeUnderflowError(
                    f"step size underflow while integrating to t = {t_end!r}; "
                    "tolerances unreachable for these parameters"
                )
            clipped = t + 1.05 * h >= target
            ht = target - t if clipped else h

            # Dormand-Prince stages (k1 carried over, FSAL)
            k21, k22, k23 = rhs(t + ht * 0.2, y1 + ht * 0.2 * k11, y2 + ht * 0.2 * k12, y3 + ht * 0.2 * k13)
            w1 = y1 + ht * (3.0 / 40.0 * k11 + 9.0 / 40.0 * k21)
            w2 = y2 + ht * (3.0 / 40.0 * k12 + 9.0 / 40.0 * k22)
            w3 = y3 + ht * (3.0 / 40.0 * k13 + 9.0 / 40.0 * k23)
            k31, k32, k33 = rhs(t + ht * 0.3, w1, w2, w3)
            w1 = y1 + ht * (44.0 / 45.0 * k11 - 56.0 / 15.0 * k21 + 32.0 / 9.0 * k31)
            w2 = y2 + ht * (44.0 / 45.0 * k12 - 56.0 / 15.0 * k22 + 32.0 / 9.0 * k32)
            w3 = y3 + ht * (44.0 / 45.0 * k13 - 56.0 / 15.0 * k23 + 32.0 / 9.0 * k33)
            k41, k42, k43 = rhs(t + ht * 0.8, w1, w2, w3)
            w1 = y1 + ht * (19372.0 / 6561.0 * k11 - 25360.0 / 2187.0 * k21
                            + 64448.0 / 6561.0 * k31 - 212.0 / 729.0 * k41)
            w2 = y2 + ht * (19372.0 / 6561.0 * k12 - 25360.0 / 2187.0 * k22
                            + 64448.0 / 6561.0 * k32 - 212.0 / 729.0 * k42)
            w3 = y3 + ht * (19372.0 / 6561.0 * k13 - 25360.0 / 2187.0 * k23
                            + 64448.0 / 6561.0 * k33 - 212.0 / 729.0 * k43)
            k51, k52, k53 = rhs(t + ht * (8.0 / 9.0), w1, w2, w3)
            w1 = y1 + ht * (9017.0 / 3168.0 * k11 - 355.0 / 33.0 * k21 + 46732.0 / 5247.0 * k31
                            + 49.0 / 176.0 * k41 - 5103.0 / 18656.0 * k51)
            w2 = y2 + ht * (9017.0 / 3168.0 * k12 - 355.0 / 33.0 * k22 + 46732.0 / 5247.0 * k32
                            + 49.0 / 176.0 * k42 - 5103.0 / 18656.0 * k52)
            w3 = y3 + ht * (9017.0 / 3168.0 * k13 - 355.0 / 33.0 * k23 + 46732.0 / 5247.0 * k33
                            + 49.0 / 176.0 * k43 - 5103.0 / 18656.0 * k53)
            k61, k62, k63 = rhs(t + ht, w1, w2, w3)
            z1 = y1 + ht * (35.0 / 384.0 * k11 + 500.0 / 1113.0 * k31 + 125.0 / 192.0 * k41
                            - 2187.0 / 6784.0 * k51 + 11.0 / 84.0 * k61)
            z2 = y2 + ht * (35.0 / 384.0 * k12 + 500.0 / 1113.0 * k32 + 125.0 / 192.0 * k42
                            - 2187.0 / 6784.0 * k52 + 11.0 / 84.0 * k62)
            z3 = y3 + ht * (35.0 / 384.0 * k13 + 500.0 / 1113.0 * k33 + 125.0 / 192.0 * k43
                            - 2187.0 / 6784.0 * k53 + 11.0 / 84.0 * k63)
            # FSAL stage: the derivative at the propagated solution
            k71, k72, k73 = rhs(t + ht, z1, z2, z3)

            # error estimate: the fifth- minus the fourth-order solution
            e1 = ht * (71.0 / 57600.0 * k11 - 71.0 / 16695.0 * k31 + 71.0 / 1920.0 * k41
                       - 17253.0 / 339200.0 * k51 + 22.0 / 525.0 * k61 - 1.0 / 40.0 * k71)
            e2 = ht * (71.0 / 57600.0 * k12 - 71.0 / 16695.0 * k32 + 71.0 / 1920.0 * k42
                       - 17253.0 / 339200.0 * k52 + 22.0 / 525.0 * k62 - 1.0 / 40.0 * k72)
            e3 = ht * (71.0 / 57600.0 * k13 - 71.0 / 16695.0 * k33 + 71.0 / 1920.0 * k43
                       - 17253.0 / 339200.0 * k53 + 22.0 / 525.0 * k63 - 1.0 / 40.0 * k73)
            err = wrms(e1, e2, e3, max(abs(y1), abs(z1)), max(abs(y2), abs(z2)), max(abs(y3), abs(z3)))

            if not math.isfinite(err):
                nrej += 1
                h = ht * 0.1
                rejected = True
                continue

            fac11 = err ** expo1
            if err <= 1.0:
                nacc += 1
                t = target if clipped else t + ht
                y1, y2, y3 = z1, z2, z3
                k11, k12, k13 = k71, k72, k73
                fac = fac11 / facold ** beta
                fac = max(1.0 / 10.0, min(1.0 / 0.2, fac / safe))
                h = ht / fac
                if rejected:
                    h = min(h, ht)
                facold = max(err, 1e-4)
                rejected = False
            else:
                nrej += 1
                h = ht / min(1.0 / 0.2, fac11 / safe)
                rejected = True

        out[i, 0] = y1
        out[i, 1] = y2
        out[i, 2] = y3

    return out, nacc, nrej


def amplitudes_ode(coeffs: SectorCoefficients, ic: InitialCondition, times) -> Trajectory:
    """Integrate the coupled amplitude ODEs over a grid starting at t = 0,
    with relative and absolute tolerance ODE_TOLERANCE.

    Raises OverflowError when a rotating phase at the last grid point is
    not finite or when the step loop leaves the floating-point range (an
    overflow, or a division by a step that underflowed to zero),
    StepSizeUnderflowError when no representable step meets the
    tolerances, and StepBudgetError when the grid needs more than
    MAX_STEPS steps (before any step when it has more than MAX_STEPS
    intervals, each of which takes at least one accepted step); these and
    any arithmetic error of the step loop name the sector and the ODE
    oracle (propagator_errors).
    """
    grid = _as_grid(times, require_zero_start=True)
    t_end = float(grid[-1])
    with propagator_errors(f"sector {coeffs.n} ODE oracle"):
        if not math.isfinite(max(abs(coeffs.h), abs(coeffs.s), abs(coeffs.nu)) * t_end):
            raise OverflowError(f"the phases overflow the floating-point range by t = {t_end!r}")
        if grid.shape[0] - 1 > MAX_STEPS:
            raise _step_budget_error(MAX_STEPS, t_end)
        try:
            out, accepted, rejected = _dormand_prince(grid, ic, coeffs)
        except (OverflowError, ZeroDivisionError) as exc:
            raise OverflowError(f"the integration left the floating-point range before t = {t_end!r}") from exc
    return Trajectory(
        times=grid, amplitudes=out, method=METHOD_ORACLE, steps_accepted=accepted, steps_rejected=rejected
    )


def solve_sector(
    params: ModelParams,
    times,
    ic: InitialCondition = EXCITED,
    method: str = "analytic",
    backend: str | None = None,
) -> Trajectory:
    """Evolve params.sector_n over a grid starting at t = 0.

    method 'analytic' (the default) takes the eigendecomposition route,
    'oracle' the ODE integrator (amplitudes_ode).  backend names the
    oracle's kernel: None or 'numpy', the only one (djcm.backend.ACTIVE).
    An arithmetic error of the oracle, whose message gives the model time
    t, ends with the scaled time tau = t * omega_cavity of the grid's end.
    """
    if method not in ("analytic", "oracle"):
        raise ValueError(f"method must be 'analytic' or 'oracle', got {method!r}")
    if backend not in (None, ACTIVE):
        raise ValueError(f"backend must be None or {ACTIVE!r}, got {backend!r}")
    grid = _as_grid(times, require_zero_start=True)
    coeffs = sector_coefficients(params)
    if method == "analytic":
        return analytic_trajectory(coeffs, ic, grid)
    try:
        return amplitudes_ode(coeffs, ic, grid)
    except ArithmeticError as exc:
        tau = float(grid[-1]) * params.omega_cavity
        raise type(exc)(f"{exc} (tau = {tau:.15g}; t = tau / omega_cavity)") from exc
