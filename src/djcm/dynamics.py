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

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .backend import ACTIVE
from .model import ModelParams, SectorCoefficients, sector_coefficients

__all__ = [
    "METHOD_ANALYTIC",
    "METHOD_ORACLE",
    "ODE_TOLERANCE",
    "PHASE_ERROR_LIMIT",
    "PhaseAccuracyError",
    "StepSizeUnderflowError",
    "StepBudgetError",
    "InitialCondition",
    "EXCITED",
    "Trajectory",
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
    (_kernels.MAX_STEPS) before the end of the grid."""


@dataclass(frozen=True)
class InitialCondition:
    """Normalized amplitude triple at t = 0; default is the atom entering
    in level |2> with the field in the sector's number state."""

    c1: complex = 0j
    c2: complex = 1.0 + 0j
    c3: complex = 0j

    def __post_init__(self):
        norm = abs(self.c1) ** 2 + abs(self.c2) ** 2 + abs(self.c3) ** 2
        if abs(norm - 1.0) > 1e-12:
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

    def norm_error(self) -> float:
        """max over samples of | |c1|^2+|c2|^2+|c3|^2 - 1 |."""
        norms = np.sum(np.abs(self.amplitudes) ** 2, axis=1)
        return float(np.max(np.abs(norms - 1.0)))


def _as_grid(times, require_zero_start: bool) -> np.ndarray:
    grid = np.asarray(times, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("time grid must be a non-empty 1-D array")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("time grid must be strictly increasing")
    if require_zero_start and grid[0] != 0.0:
        raise ValueError("time grid must start at t = 0")
    return grid


def sector_generator(coeffs: SectorCoefficients) -> np.ndarray:
    """Real symmetric generator K of the shifted amplitudes, dx/dt = -iKx."""
    c = coeffs
    return np.array([[0.0, c.v2, c.v1], [c.v2, -c.s, c.omega_e], [c.v1, c.omega_e, -c.h]])


def propagate(generators: np.ndarray, x0: np.ndarray, times: np.ndarray) -> tuple[float, np.ndarray]:
    """Shifted amplitudes x(t) = V exp(-i Lambda t) V^T x0 of a stack of sectors.

    generators is an (N, 3, 3) stack of real symmetric generators K = V Lambda V^T
    (sector_generator), x0 the common initial triple and times a 1-D grid.
    Returns the phase error bound u max|lambda| max|t| over the whole stack,
    u = 2^-53, and x, shape (N, 3, T): the residue expansion of the Laplace
    inversion, with projector residues over the poles alpha_j = -i lambda_j.
    Every sector of the stack gets the same bits as a stack of one.  Raises
    PhaseAccuracyError, before any phase is evaluated, when the bound is not
    at most PHASE_ERROR_LIMIT.
    """
    lam, vec = np.linalg.eigh(generators)
    bound = 2.0**-53 * float(np.max(np.abs(lam))) * float(np.max(np.abs(times)))
    if not bound <= PHASE_ERROR_LIMIT:
        raise PhaseAccuracyError(f"phase error bound {bound:.3g} exceeds {PHASE_ERROR_LIMIT:g}")
    weights = x0 @ vec
    return bound, vec @ (weights[..., None] * np.exp(-1j * (lam[..., None] * times)))


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


def analytic_trajectory(coeffs: SectorCoefficients, ic: InitialCondition, times) -> Trajectory:
    """Closed-form trajectory over a strictly increasing time grid.

    The shifted amplitudes come from propagate with a stack of one; the
    rotating phases are restored on the second and third amplitudes.
    Raises PhaseAccuracyError when the phases are not resolved to
    PHASE_ERROR_LIMIT (see propagate); since max|lambda| >= |s|, |h|, that
    also covers the rotating phases.
    """
    grid = _as_grid(times, require_zero_start=False)
    x0 = ic.as_array()
    with propagator_errors(f"sector {coeffs.n} propagator"):
        bound, shifted = propagate(sector_generator(coeffs)[None], x0, grid)
    shifted = shifted[0]
    amps = np.empty((grid.size, 3), dtype=np.complex128)
    amps[:, 0] = shifted[0]
    amps[:, 1] = np.exp(-1j * coeffs.s * grid) * shifted[1]
    amps[:, 2] = np.exp(-1j * coeffs.h * grid) * shifted[2]
    # V V^T = I, so the t = 0 sample equals the initial condition exactly;
    # pin it to keep the round-off (~1e-16) out of observables that are
    # identically zero there.
    amps[grid == 0.0] = x0
    return Trajectory(times=grid, amplitudes=amps, method=METHOD_ANALYTIC, phase_error_bound=bound)


def amplitudes_ode(coeffs: SectorCoefficients, ic: InitialCondition, times) -> Trajectory:
    """Integrate the coupled amplitude ODEs over a grid starting at t = 0,
    with relative and absolute tolerance ODE_TOLERANCE.

    Raises OverflowError when a rotating phase at the last grid point is
    not finite, StepSizeUnderflowError when no representable step meets
    the tolerances, and StepBudgetError when the grid needs more than
    _kernels.MAX_STEPS steps; these and any arithmetic error of the kernel
    name the sector and the ODE oracle (propagator_errors).
    """
    grid = _as_grid(times, require_zero_start=True)
    t_end = float(grid[-1])
    with propagator_errors(f"sector {coeffs.n} ODE oracle"):
        if not math.isfinite(max(abs(coeffs.h), abs(coeffs.s), abs(coeffs.nu)) * t_end):
            raise OverflowError(f"the phases overflow the floating-point range by t = {t_end!r}")
        out, status, accepted, rejected = _kernels.integrate_sector(
            grid,
            complex(ic.c1),
            complex(ic.c2),
            complex(ic.c3),
            float(coeffs.h),
            float(coeffs.s),
            float(coeffs.nu),
            float(coeffs.v1),
            float(coeffs.v2),
            float(coeffs.omega_e),
            ODE_TOLERANCE,
        )
        if status == _kernels.STATUS_UNDERFLOW:
            raise StepSizeUnderflowError(
                f"step size underflow while integrating to t = {t_end!r}; "
                "tolerances unreachable for these parameters"
            )
        if status == _kernels.STATUS_BUDGET:
            raise StepBudgetError(
                f"used up its budget of {_kernels.MAX_STEPS} steps before t = {t_end!r}; "
                "the analytic route solves these parameters"
            )
    return Trajectory(
        times=grid, amplitudes=out, method=METHOD_ORACLE, steps_accepted=int(accepted), steps_rejected=int(rejected)
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
    """
    if method not in ("analytic", "oracle"):
        raise ValueError(f"method must be 'analytic' or 'oracle', got {method!r}")
    if backend not in (None, ACTIVE):
        raise ValueError(f"backend must be None or {ACTIVE!r}, got {backend!r}")
    grid = _as_grid(times, require_zero_start=True)
    coeffs = sector_coefficients(params)
    if method == "analytic":
        return analytic_trajectory(coeffs, ic, grid)
    return amplitudes_ode(coeffs, ic, grid)
