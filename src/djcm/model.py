"""Physical parameters and the deformed-oscillator algebra.

The cavity mode uses nonlinear ladder operators A = a f(n), A+ = f(n) a+,
where f is the Kerr-type intensity dependence f(n) = sqrt(1 + chi * n**2)
of the photon number; chi = 0 gives f(n) = 1 exactly, the undeformed
operators.

All frequencies are dimensionless angular frequencies.  The engine works
with raw time t internally; the scaled time tau = omega_cavity * t is an
output-boundary convention only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Kerr",
    "ModelParams",
    "SectorCoefficients",
    "k_value",
    "sector_coefficients",
]


@dataclass(frozen=True)
class Kerr:
    """Kerr-type intensity-dependent deformation f(n) = sqrt(1 + chi*n^2).

    chi >= 0, stored as a float with -0.0 folded to 0.0; chi = 0 gives
    f(n) = sqrt(1.0) = 1.0 exactly, the undeformed operators.
    """

    chi: float

    def __post_init__(self):
        chi = float(self.chi)
        if not (math.isfinite(chi) and chi >= 0.0):
            raise ValueError(f"Kerr constant chi must be finite and >= 0, got {self.chi!r}")
        object.__setattr__(self, "chi", chi + 0.0)  # -0.0 + 0.0 is 0.0

    def f(self, n: int) -> float:
        """The profile at photon number n >= 0."""
        if n < 0:
            raise ValueError(f"photon number must be >= 0, got {n}")
        return math.sqrt(1.0 + self.chi * n * n)


def k_value(deformation: Kerr, n: int) -> float:
    """Deformed commutator [A, A+] on the n-photon state.

    (n+1) f^2(n+1) - n f^2(n) = 1 + chi (3n^2 + 3n + 1), evaluated in the
    right-hand form: the left-hand one cancels and loses about u chi n^3.
    3n^2 + 3n + 1 is exact in doubles below 2^53 (n < 5.4e7), so the
    result carries two roundings there.  It is in floating point so that
    an overflow gives inf, which SectorCoefficients refuses.  Exactly 1 at
    chi = 0 (while 3n^2 is finite) and >= 1 for any chi.
    """
    if n < 0:
        raise ValueError(f"photon number must be >= 0, got {n}")
    return 1.0 + deformation.chi * (3.0 * n * n + 3.0 * n + 1.0)


@dataclass(frozen=True)
class ModelParams:
    """Constants of the driven three-level model.

    Level scheme: one ground level |1> and two upper levels |2>, |3>
    (omega_3 > omega_2 > omega_1); g1 couples |1>-|3>, g2 couples
    |1>-|2| through the cavity, and a classical microwave field of Rabi
    frequency omega_e drives the |2>-|3> transition at carrier
    nu = omega_3 - omega_2.

    sector_n selects the invariant subspace spanned by
    |1, n+1>, |2, n>, |3, n>.  A frequency of -0.0 is stored as 0.0.
    """

    omega_cavity: float
    omega_levels: tuple[float, float, float]
    g1: float
    g2: float
    omega_e: float
    deformation: Kerr
    sector_n: int

    def __post_init__(self):
        w = tuple(float(x) + 0.0 for x in self.omega_levels)
        if len(w) != 3:
            raise ValueError("omega_levels must hold exactly three frequencies")
        object.__setattr__(self, "omega_levels", w)
        for name in ("omega_cavity", "g1", "g2", "omega_e"):
            object.__setattr__(self, name, getattr(self, name) + 0.0)
        values = (self.omega_cavity, *w, self.g1, self.g2, self.omega_e)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("all frequencies and couplings must be finite")
        if not (w[2] > w[1] > w[0]):
            raise ValueError(f"level frequencies must be ordered omega_3 > omega_2 > omega_1, got {w}")
        if self.g1 < 0 or self.g2 < 0 or self.omega_e < 0:
            raise ValueError("g1, g2 and omega_e must be >= 0")
        if self.omega_cavity < 0:
            raise ValueError("omega_cavity must be >= 0")
        if not isinstance(self.sector_n, int) or self.sector_n < 0:
            raise ValueError(f"sector_n must be a non-negative integer, got {self.sector_n!r}")


@dataclass(frozen=True)
class SectorCoefficients:
    """Per-sector constants driving the three-amplitude dynamics.

    h and s are the cavity detunings of the |1>-|3> and |1>-|2>
    transitions, nu = omega_3 - omega_2 is the microwave carrier, v1, v2
    are the sector-enhanced couplings g_i * f(n+1) * sqrt(n+1), and
    omega_e is the microwave Rabi frequency.  h = s - nu holds exactly.

    Building the record raises OverflowError when a constant has left the
    floating-point range (huge couplings, sector numbers or chi): the
    eigendecomposition cannot take a non-finite generator, and the ODE
    oracle would step on NaN derivatives.
    """

    h: float
    s: float
    nu: float
    v1: float
    v2: float
    omega_e: float
    n: int

    def __post_init__(self):
        if not all(math.isfinite(c) for c in (self.h, self.s, self.nu, self.v1, self.v2, self.omega_e)):
            raise OverflowError(f"the constants of sector {self.n} overflow the floating-point range")


def sector_coefficients(params: ModelParams) -> SectorCoefficients:
    """Derive the sector constants (h, s, nu, v1, v2, omega_e) for params.sector_n."""
    n = params.sector_n
    w1, w2, w3 = params.omega_levels
    shift = params.omega_cavity * k_value(params.deformation, n)
    s = shift - (w2 - w1)
    nu = w3 - w2
    # h is built as s - nu so the identity holds at the bit level.
    h = s - nu
    scale = params.deformation.f(n + 1) * math.sqrt(n + 1.0)
    return SectorCoefficients(h=h, s=s, nu=nu, v1=params.g1 * scale, v2=params.g2 * scale, omega_e=params.omega_e, n=n)
