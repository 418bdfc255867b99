"""Generator of the sector dynamics, its characteristic cubic and the
cubic's roots.

The shifted amplitude triple of one photon sector obeys dx/dt = -iKx
with the real symmetric generator

    K = [[0, v2, v1], [v2, -s, omega_e], [v1, omega_e, -h]].

Its Laplace-domain matrix is M(z) = zI + iK, whose determinant Theta(z)
is a monic cubic.  The roots of Theta are alpha_j = -i lambda_j, with
lambda_j the eigenvalues of K: they sit on the imaginary axis, and an
eigendecomposition of K finds them without any root formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SectorCoefficients

__all__ = [
    "CubicPoly",
    "CubicRoots",
    "check_sector_constants",
    "sector_generator",
    "theta_poly",
    "root_residual",
    "cubic_roots",
]


@dataclass(frozen=True)
class CubicPoly:
    """Monic cubic z^3 + a2*z^2 + a1*z + a0 with complex coefficients.

    The coefficients may also be NumPy arrays that broadcast against z,
    which evaluates a stack of cubics at once.
    """

    a2: complex
    a1: complex
    a0: complex

    def __call__(self, z: complex) -> complex:
        return ((z + self.a2) * z + self.a1) * z + self.a0


@dataclass(frozen=True)
class CubicRoots:
    """Roots ordered by ascending imaginary part (ties by real part).

    min_pairwise_gap is the smallest |alpha_i - alpha_j|, zero on a
    degenerate spectrum; max_residual is the largest
    |Theta(alpha_j)| / max(1, |alpha_j|^3) over the roots.
    """

    roots: tuple[complex, complex, complex]
    min_pairwise_gap: float
    max_residual: float


def check_sector_constants(coeffs: SectorCoefficients, omega_e: float) -> None:
    """Raise OverflowError when a sector constant has left the
    floating-point range (huge couplings, sector numbers or chi).

    Both routes run this check: the eigendecomposition cannot take a
    non-finite K, and the ODE oracle would step on NaN derivatives.
    """
    constants = (coeffs.h, coeffs.s, coeffs.nu, coeffs.v1, coeffs.v2, omega_e)
    if not all(math.isfinite(c) for c in constants):
        raise OverflowError(f"the constants of sector {coeffs.n} overflow the floating-point range")


def sector_generator(coeffs: SectorCoefficients, omega_e: float) -> np.ndarray:
    """Real symmetric generator K of the shifted amplitudes, dx/dt = -iKx.

    Raises OverflowError when a sector constant has left the
    floating-point range (see check_sector_constants).
    """
    check_sector_constants(coeffs, omega_e)
    return np.array(
        [
            [0.0, coeffs.v2, coeffs.v1],
            [coeffs.v2, -coeffs.s, omega_e],
            [coeffs.v1, omega_e, -coeffs.h],
        ]
    )


def theta_poly(coeffs: SectorCoefficients, omega_e: float) -> CubicPoly:
    """Characteristic cubic det(zI + iK) of the sector's Laplace matrix.

    a2 = -i(h + s) and a0 are purely imaginary, a1 is purely real; under
    z -> i*lambda the cubic becomes real, so all roots are purely
    imaginary for physical inputs.
    """
    h, s = coeffs.h, coeffs.s
    v1, v2 = coeffs.v1, coeffs.v2
    a2 = -1j * (h + s)
    a1 = complex(omega_e * omega_e + v1 * v1 + v2 * v2 - s * h)
    a0 = -1j * (2.0 * omega_e * v1 * v2 + v1 * v1 * s + v2 * v2 * h)
    return CubicPoly(a2=a2, a1=a1, a0=a0)


def root_residual(poly: CubicPoly, alpha: np.ndarray) -> np.ndarray:
    """|Theta(alpha)| / max(1, |alpha|^3), elementwise."""
    return np.abs(poly(alpha)) / np.maximum(1.0, np.abs(alpha) ** 3)


def cubic_roots(poly: CubicPoly, eigenvalues: np.ndarray) -> CubicRoots:
    """Run record of Theta's roots alpha_j = -i lambda_j, from the ascending
    eigenvalues of K."""
    alpha = -1j * eigenvalues[::-1]
    gap = float(np.min(np.diff(eigenvalues)))
    residual = float(np.max(root_residual(poly, alpha)))
    return CubicRoots(roots=tuple(complex(z) for z in alpha), min_pairwise_gap=gap, max_residual=residual)
