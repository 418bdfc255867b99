"""Quantum measures computed from sector amplitudes.

Every observable is one function over an amplitude array `amps` of
shape (..., 3), the amplitudes of |1,n+1>, |2,n>, |3,n>: a row (3,)
gives the value at one instant and a trajectory's (T, 3) amplitudes
give the series, bit for bit the same per sample.  `trajectory_series`
looks the named observable up in SERIES.  Populations and inversion
come straight from the amplitudes; field moments and photon statistics
use the deformed ladder operators restricted to the sector's three
basis kets; the entanglement entropy of the reduced atomic state
reduces to the binary entropy of P1.

`mean_photon_number` is the one route to <A+A>: g2, Mandel Q and the
squeezing parameters take it from there, and weigh the populations with
A+A's exact eigenvalues so that no difference of moments cancels.  The
squeezing parameters drop the anomalous moments <A^k>, k >= 1: the
three basis kets pair distinct atomic levels with distinct photon
numbers, so every <A^k> vanishes in a single-sector state.  Validate
criterion 8 checks <A+A> and that step against the ladder matrix.
Their forward errors are stated as first-order condition numbers for
relative perturbations of P1 and P2 + P3 (Higham, Accuracy and Stability
of Numerical Algorithms, 2nd ed., 2002, ch. 1-3), plus a few roundings.

`husimi_q` solves its sectors with one dynamics.propagate call at the
one time t, t = 0 included, and weighs each sector's populations into
the Q sum; its norm drift is dynamics.norm_drift of those amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import EXCITED, InitialCondition, Trajectory, norm_drift, propagate
from .model import ModelParams, k_value, sector_coefficients

__all__ = [
    "UndefinedObservableError",
    "ObservableSeries",
    "HusimiGrid",
    "SERIES",
    "OBSERVABLE_NAMES",
    "populations",
    "inversion",
    "mean_photon_number",
    "g2_zero",
    "mandel_q",
    "entropy",
    "reduced_density",
    "von_neumann_entropy",
    "squeezing_params",
    "trajectory_series",
    "husimi_q",
]


class UndefinedObservableError(ValueError):
    """An intensity-normalized observable was requested where <A+A> = 0.

    The library twin of config's check_intensity_observables: a ValueError,
    so the CLI reports it as a configuration error."""


@dataclass(frozen=True)
class ObservableSeries:
    """One named real-valued series, one value per trajectory sample.

    Values that left the floating-point range raise FloatingPointError.
    """

    name: str
    values: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise FloatingPointError(f"series {self.name!r} contains non-finite values")


@dataclass(frozen=True)
class HusimiGrid:
    """Husimi values over a square patch of the coherent-state plane.

    levels holds Q on the grid's distinct |beta|^2, ascending, and index[i, j]
    the level of beta = axis[j] + 1j * axis[i], so values = levels[index].
    n_max is the last sector summed.  norm_drift_max is max|P1 + P2 + P3 - 1|
    over the summed sectors.  phase_error_bound is the one bound all summed
    sectors were gated on (see dynamics.propagate): the largest of their bounds.
    """

    axis: np.ndarray
    levels: np.ndarray
    index: np.ndarray
    n_max: int
    norm_drift_max: float
    phase_error_bound: float

    @property
    def values(self) -> np.ndarray:
        return self.levels[self.index]


# ---------------------------------------------------------------------------
# observables over (..., 3) amplitude arrays
# ---------------------------------------------------------------------------

def populations(amps: np.ndarray) -> np.ndarray:
    """Occupation probabilities |c|^2 of the three sector kets, shape (..., 3)."""
    return np.abs(amps) ** 2


def inversion(amps: np.ndarray) -> np.ndarray:
    """Population inversion between the ground and the top level, P1 - P3."""
    probs = populations(amps)
    return probs[..., 0] - probs[..., 2]


def _moment_weights(params: ModelParams) -> tuple[float, float, float]:
    # A+A's eigenvalues m f^2(m) = m (1 + chi m^2) at m = n + 1, n, n - 1, by products only
    chi, n = params.deformation.chi, params.sector_n
    return tuple(m * (1.0 + chi * m * m) if m > 0 else 0.0 for m in (n + 1, n, n - 1))


def mean_photon_number(amps: np.ndarray, params: ModelParams) -> np.ndarray:
    """Mean deformed photon number <A+A> = w_up P1 + w_dn (P2 + P3)."""
    probs = populations(amps)
    w_up, w_dn, _ = _moment_weights(params)
    return w_up * probs[..., 0] + w_dn * (probs[..., 1] + probs[..., 2])


def g2_zero(amps: np.ndarray, params: ModelParams) -> np.ndarray:
    """Zero-delay second-order intensity correlation g2(0), over <A+A>^2 from
    mean_photon_number: a ratio of non-negative linear forms, so nothing
    cancels; condition number <= 3.  Where <A+A>^2 overflows, g2 is nan,
    not a finite numerator over inf's silent 0, and its series fails."""
    m1 = mean_photon_number(amps, params)
    if np.any(m1 == 0.0):
        raise UndefinedObservableError("g2 is undefined where <A+A> = 0")
    probs = populations(amps)
    w_up, w_dn, w_two = _moment_weights(params)
    m1_sq = m1 * m1
    m1_sq = np.where(np.isinf(m1_sq), np.nan, m1_sq)
    return (w_up * w_dn * probs[..., 0] + w_two * w_dn * (probs[..., 1] + probs[..., 2])) / m1_sq


def mandel_q(amps: np.ndarray, params: ModelParams) -> np.ndarray:
    """Mandel Q of the deformed photon number; -1 for number states.

    Q = (w_up - w_dn)^2 P1 (P2 + P3) / (N <A+A>) - 1, N = P1 + P2 + P3: the
    variance of a number that is w_up on P1 and w_dn on P2 + P3, with
    w_up - w_dn = model.k_value (squared as k * k), so nothing cancels and Q >= -1.
    Q + 1 has condition number <= 2, and none for a common scale (norm drift).
    """
    m1 = mean_photon_number(amps, params)
    if np.any(m1 == 0.0):
        raise UndefinedObservableError("mandel_q is undefined where <A+A> = 0")
    probs = populations(amps)
    p1, p23 = probs[..., 0], probs[..., 1] + probs[..., 2]
    k = k_value(params.deformation, params.sector_n)
    return k * k * p1 * p23 / ((p1 + p23) * m1) - 1.0


def entropy(amps: np.ndarray) -> np.ndarray:
    """Entanglement entropy in nats, as the binary entropy h2(P1).

    The reduced atomic state has eigenvalues {P1, 0, 1 - P1} (see
    reduced_density), so its von Neumann entropy is h2(P1); validate
    checks the identity against von_neumann_entropy.
    """
    p = np.clip(populations(amps)[..., 0], 0.0, 1.0)
    out = np.zeros_like(p)
    for q in (p, 1.0 - p):
        mask = q > 0.0
        out[mask] -= q[mask] * np.log(q[mask])
    return out


def reduced_density(amps: np.ndarray) -> np.ndarray:
    """Reduced atomic density matrices after tracing out the field, (..., 3, 3).

    Rows/columns are |1>, |2>, |3>.  Level |1> decouples (its field ket
    differs by one photon), leaving a rank-one 2x2 block for |2>, |3>.
    """
    c = np.asarray(amps, dtype=np.complex128)
    rho = np.zeros(c.shape[:-1] + (3, 3), dtype=np.complex128)
    rho[..., 0, 0] = c[..., 0] * np.conj(c[..., 0])
    rho[..., 1:, 1:] = c[..., None, 1:] * np.conj(c[..., 1:, None])
    return rho


def von_neumann_entropy(rho: np.ndarray) -> np.ndarray:
    """Entropy -sum(lambda ln lambda) of density matrices (..., 3, 3), in nats."""
    lam = np.linalg.eigvalsh(rho)
    lam = np.where((lam < 0.0) & (lam >= -1e-12), 0.0, lam)
    if np.any(lam < 0.0):
        raise ValueError(f"density matrix has a negative eigenvalue: {float(lam.min())!r}")
    positive = lam > 0.0
    # 0.0 - sum: a pure state's zero sum gives +0.0, where -sum would give -0.0
    return 0.0 - np.sum(np.where(positive, lam * np.log(np.where(positive, lam, 1.0)), 0.0), axis=-1)


def squeezing_params(amps: np.ndarray, params: ModelParams) -> tuple[np.ndarray, ...]:
    """First- and second-order quadrature squeezing parameters
    (s1_x, s1_p, s2_x, s2_p).

    With every anomalous moment <A^k> zero (see the module docstring), both
    quadratures give s1 = 2<A+A> and s2 = 2<(A+A)^2> - 2<A+A>, taken as
    s2 = 2 (w_up (w_up - 1) P1 + w_dn (w_dn - 1) (P2 + P3)).  Each weight
    is 0 or >= 1, so both terms are non-negative and nothing cancels: s1
    and s2 have condition number <= 1, plus a few roundings.  At n = 1 each
    w = m (1 + chi m^2) is one rounding of 1 + chi m^2, which w - 1 keeps: a
    relative u w / (w - 1), <= 6 u at chi = 0.2 and none at chi = 0 (s2 = 4 P1).
    """
    m1 = mean_photon_number(amps, params)
    probs = populations(amps)
    w_up, w_dn, _ = _moment_weights(params)
    s1 = 2.0 * m1
    s2 = 2.0 * (w_up * (w_up - 1.0) * probs[..., 0] + w_dn * (w_dn - 1.0) * (probs[..., 1] + probs[..., 2]))
    return s1, s1, s2, s2


# ---------------------------------------------------------------------------
# trajectory-level series
# ---------------------------------------------------------------------------

# observable name -> (CSV column names, amps, params -> one array per column)
SERIES = {
    "populations": (("P1", "P2", "P3"), lambda amps, params: np.moveaxis(populations(amps), -1, 0)),
    "inversion": (("W",), lambda amps, params: (inversion(amps),)),
    "g2": (("g2",), lambda amps, params: (g2_zero(amps, params),)),
    "entropy": (("S",), lambda amps, params: (entropy(amps),)),
    "mandel_q": (("Q",), lambda amps, params: (mandel_q(amps, params),)),
    "squeezing": (("s1_x", "s1_p", "s2_x", "s2_p"), squeezing_params),
}

OBSERVABLE_NAMES = (*SERIES, "husimi")


def trajectory_series(traj: Trajectory, name: str, params: ModelParams) -> list[ObservableSeries]:
    """Named observable series over a trajectory solved from params.

    NumPy's floating-point warnings are silenced: a value that leaves the
    double range fails ObservableSeries' finiteness check instead.
    """
    if name not in SERIES:
        raise ValueError(f"unknown observable {name!r}")
    columns, values = SERIES[name]
    with np.errstate(all="ignore"):
        arrays = values(traj.amplitudes, params)
    return [ObservableSeries(col, v) for col, v in zip(columns, arrays)]


# ---------------------------------------------------------------------------
# Husimi function
# ---------------------------------------------------------------------------

def husimi_q(
    params: ModelParams,
    t: float,
    half_width: float,
    resolution: int,
    n_max: int | None = None,
    ic: InitialCondition = EXCITED,
) -> HusimiGrid:
    """Husimi function at raw time t over the square [-half_width, half_width]^2
    of coherent-state amplitudes, resolution points per axis.

    With n_max None it evaluates the term of the populated sector
    params.sector_n only: that is the Husimi function of the reduced field
    state and integrates to one.  With an integer n_max it accumulates the
    terms of every sector n <= n_max, each evolved from ic; the result is a
    diagnostic surface, not a normalized distribution.  All summed sectors
    come from the analytic route, gated on the largest of their phase error
    bounds.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if not (math.isfinite(half_width) and half_width > 0.0):
        raise ValueError(f"half_width must be finite and > 0, got {half_width!r}")
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if not math.isfinite(2.0 * half_width * half_width):
        span = (-half_width, half_width)
        raise OverflowError(f"the Husimi range x {span}, y {span} overflows: |beta|^2 at the grid corner is not finite")
    axis = np.linspace(-half_width, half_width, resolution)
    r2 = axis[None, :] ** 2 + axis[:, None] ** 2
    sectors = (params.sector_n,) if n_max is None else range(n_max + 1)
    coeffs = [sector_coefficients(replace(params, sector_n=n)) for n in sectors]
    # one stacked solve of every summed sector at the one time t
    bound, shifted = propagate(coeffs, ic, np.array([float(t)]))
    # the rotating phases of the second and third amplitudes drop out of |c|^2
    pops = populations(shifted[..., 0])
    # Q depends on the grid only through r2: sum on its sorted distinct
    # values (radii) and index each point by binary search.  np.unique's
    # inverse holds five grid-sized arrays; without it, numpy.ma is imported.
    # Each Poisson weight r2^n exp(-r2) / n! is exponentiated from its
    # logarithm, so no weight underflows where the sum does not.
    radii = np.sort(r2, axis=None)
    radii = radii[np.append(True, radii[1:] != radii[:-1])]
    index = np.searchsorted(radii, r2)
    # ln r2 is taken once for all sectors.  -lgamma - r2 has the bits of
    # -r2 - lgamma.  The n = 0 weight skips n ln r2, as 0 x ln 0 is nan.
    acc = np.zeros_like(radii)
    with np.errstate(divide="ignore"):  # ln 0 = -inf gives the weight 0
        log_radii = np.log(radii)
    for n, (p1, p2, p3) in zip(sectors, pops.tolist()):
        log_weight = -math.lgamma(n + 1.0) - radii
        if n:
            log_weight += n * log_radii
        acc += np.exp(log_weight) * (radii / (n + 1) * p1 + p2 + p3)
    acc /= math.pi
    drift = norm_drift(shifted[..., 0])
    return HusimiGrid(axis, acc, index, n_max=sectors[-1], norm_drift_max=drift, phase_error_bound=bound)
