"""Independent references for the benchmark's output checks.

Nothing here calls djcm.  Sector amplitudes come from the real-symmetric
generator K = [[0, v2, v1], [v2, -s, omega_e], [v1, omega_e, -h]] and
one eigh per sector, x(t) = V exp(-i Lambda t) V^T x0, instead of the
program's cubic-root/residue route.  The all-sector Husimi sum uses
log-space Poisson weights, n ln r2 - r2 - lgamma(n + 1), instead of the
program's running product.
"""

from __future__ import annotations

import math

import numpy as np

# model constants shared by every workload: the README's base parameters
OMEGA_CAVITY = 0.2
OMEGA_LEVELS = (0.3, 0.4, 0.5)
# row 2 of the reference figures; `djcm husimi` uses it when given no --config
HUSIMI_ROW = {"g1": 0.06, "g2": 0.08, "omega_e": 0.04, "chi": 0.2}

EXCITED = np.array([0.0, 1.0, 0.0])


def sector_generators(g1, g2, omega_e, chi, sectors) -> np.ndarray:
    """(P, 3, 3) stack of K, one per (g1, g2, omega_e, chi, sector) row.

    Arguments broadcast against each other; the sector constants follow
    the README: k(n) = (n+1) f^2(n+1) - n f^2(n) with f^2(n) = 1 + chi n^2,
    s = omega_cavity k(n) - (w2 - w1), h = s - (w3 - w2) and
    v_i = g_i f(n+1) sqrt(n+1).
    """
    g1, g2, omega_e, chi, n = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (g1, g2, omega_e, chi, sectors))
    )
    w1, w2, w3 = OMEGA_LEVELS
    f2_up = 1.0 + chi * (n + 1.0) ** 2
    k = (n + 1.0) * f2_up - n * (1.0 + chi * n * n)
    s = OMEGA_CAVITY * k - (w2 - w1)
    h = s - (w3 - w2)
    scale = np.sqrt(f2_up) * np.sqrt(n + 1.0)
    v1, v2 = g1 * scale, g2 * scale
    gen = np.zeros(n.shape + (3, 3))
    gen[..., 0, 1] = gen[..., 1, 0] = v2
    gen[..., 0, 2] = gen[..., 2, 0] = v1
    gen[..., 1, 2] = gen[..., 2, 1] = omega_e
    gen[..., 1, 1] = -s
    gen[..., 2, 2] = -h
    return gen


def sector_populations(gen: np.ndarray, times: np.ndarray) -> np.ndarray:
    """(P, T, 3) populations |c_k(t)|^2 from the entry state (0, 1, 0).

    The rotating phases on c2 and c3 drop out of the moduli, so the
    populations are those of the shifted amplitudes x(t).
    """
    lam, vec = np.linalg.eigh(gen)
    weights = np.einsum("pkj,k->pj", vec, EXCITED)
    phases = np.exp(-1j * lam[:, None, :] * np.asarray(times)[None, :, None])
    amps = np.einsum("pkj,ptj->ptk", vec, phases * weights[:, None, :])
    return np.abs(amps) ** 2


def husimi_all_sectors(pops: np.ndarray, x_axis: np.ndarray, y_axis: np.ndarray) -> np.ndarray:
    """All-sector Husimi sum, values[i, j] at x_axis[j] + 1j * y_axis[i].

    pops has shape (n_max + 1, 3): the populations of sectors 0..n_max
    at the evaluation time.
    """
    r2 = x_axis[None, :] ** 2 + y_axis[:, None] ** 2
    with np.errstate(divide="ignore"):
        log_r2 = np.log(r2)
    acc = np.zeros_like(r2)
    for n, (p1, p2, p3) in enumerate(pops):
        log_w = -r2 - math.lgamma(n + 1.0)
        if n:
            log_w = log_w + n * log_r2
        acc += np.exp(log_w) * ((r2 / (n + 1.0)) * p1 + p2 + p3)
    return acc / math.pi
