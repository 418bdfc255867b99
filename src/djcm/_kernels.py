"""Adaptive Dormand-Prince 5(4) kernel for the three-amplitude sector ODE.

The right-hand side is inlined for speed: the system is only three
complex amplitudes, so the step loop works on Python float/complex
scalars, with the rotating phases from cmath.exp.  The output array is
the only NumPy object it touches: NumPy scalars (NumPy's exp of a
number, an element read from an array) would send every operation
through NumPy's far slower scalar arithmetic.  Error control uses the
standard mixed absolute/relative norm with a PI step-size controller;
the fifth-order solution is propagated.  A step that is NaN or below
1e-14 * max(1, |t|) ends the run with STATUS_UNDERFLOW, and a run that
has attempted MAX_STEPS steps without reaching the last grid point ends
with STATUS_BUDGET.

The same source serves both backends: `integrate_sector_numpy` runs it
as plain Python, and `integrate_sector_numba` is its numba compile,
present whenever numba imports and then the default (djcm.backend).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .backend import ACTIVE, HAVE_NUMBA

__all__ = [
    "STATUS_OK",
    "STATUS_UNDERFLOW",
    "STATUS_BUDGET",
    "MAX_STEPS",
    "integrate_sector_numpy",
    "integrate_sector_numba",
    "select_integrator",
]

STATUS_OK = 0
STATUS_UNDERFLOW = 1
STATUS_BUDGET = 2

# Attempted (accepted + rejected) steps per call.  The cost of a run grows
# with |h| t, |s| t and the couplings times t, so a fast-rotating sector
# would otherwise step for hours.  The NumPy kernel takes ~23 us per step
# on a 2-vCPU VM, so the budget ends such a run after ~2.3 s; validate's
# longest oracle rows take 3999 steps, 25x below it.
MAX_STEPS = 100_000


def _integrate_sector(times, c1_0, c2_0, c3_0, hh, ss, nu, v1, v2, ome, rtol, atol):
    """Integrate the sector amplitudes over `times` (strictly increasing).

    Returns (out[T,3] complex128, status, n_accepted, n_rejected).  Grid
    points are hit exactly by clipping the step; no dense interpolation.
    """
    n_out = times.shape[0]
    out = np.empty((n_out, 3), np.complex128)
    y1 = c1_0 + 0j
    y2 = c2_0 + 0j
    y3 = c3_0 + 0j
    out[0, 0] = y1
    out[0, 1] = y2
    out[0, 2] = y3
    if n_out == 1:
        return out, STATUS_OK, 0, 0

    t = float(times[0])
    t_end = float(times[n_out - 1])
    nacc = 0
    nrej = 0

    # first derivative (also the FSAL carry)
    ph = cmath.exp(1j * hh * t)
    ps = cmath.exp(1j * ss * t)
    pn = cmath.exp(1j * nu * t)
    k11 = -1j * (v1 * ph * y3 + v2 * ps * y2)
    k12 = -1j * (v2 * ps.conjugate() * y1 + ome * pn.conjugate() * y3)
    k13 = -1j * (v1 * ph.conjugate() * y1 + ome * pn * y2)

    # initial step size: standard two-probe heuristic
    sc1 = atol + rtol * abs(y1)
    sc2 = atol + rtol * abs(y2)
    sc3 = atol + rtol * abs(y3)
    d0 = math.sqrt(((abs(y1) / sc1) ** 2 + (abs(y2) / sc2) ** 2 + (abs(y3) / sc3) ** 2) / 3.0)
    d1 = math.sqrt(((abs(k11) / sc1) ** 2 + (abs(k12) / sc2) ** 2 + (abs(k13) / sc3) ** 2) / 3.0)
    if d0 < 1e-5 or d1 < 1e-5:
        h = 1e-6
    else:
        h = 0.01 * d0 / d1
    h = min(h, t_end - t)
    u1 = y1 + h * k11
    u2 = y2 + h * k12
    u3 = y3 + h * k13
    tp = t + h
    ph = cmath.exp(1j * hh * tp)
    ps = cmath.exp(1j * ss * tp)
    pn = cmath.exp(1j * nu * tp)
    f11 = -1j * (v1 * ph * u3 + v2 * ps * u2)
    f12 = -1j * (v2 * ps.conjugate() * u1 + ome * pn.conjugate() * u3)
    f13 = -1j * (v1 * ph.conjugate() * u1 + ome * pn * u2)
    d2 = math.sqrt(
        ((abs(f11 - k11) / sc1) ** 2 + (abs(f12 - k12) / sc2) ** 2 + (abs(f13 - k13) / sc3) ** 2) / 3.0
    ) / h
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
        target = float(times[i])
        while t < target:
            if nacc + nrej >= MAX_STEPS:
                return out, STATUS_BUDGET, nacc, nrej
            # `not >=` also ends on a NaN step (non-finite derivatives)
            if not h >= 1e-14 * max(1.0, abs(t)):
                return out, STATUS_UNDERFLOW, nacc, nrej
            clipped = t + 1.05 * h >= target
            ht = target - t if clipped else h

            # Dormand-Prince stages (k1 carried over, FSAL)
            tt = t + ht * 0.2
            w1 = y1 + ht * 0.2 * k11
            w2 = y2 + ht * 0.2 * k12
            w3 = y3 + ht * 0.2 * k13
            ph = cmath.exp(1j * hh * tt)
            ps = cmath.exp(1j * ss * tt)
            pn = cmath.exp(1j * nu * tt)
            k21 = -1j * (v1 * ph * w3 + v2 * ps * w2)
            k22 = -1j * (v2 * ps.conjugate() * w1 + ome * pn.conjugate() * w3)
            k23 = -1j * (v1 * ph.conjugate() * w1 + ome * pn * w2)

            tt = t + ht * 0.3
            w1 = y1 + ht * (3.0 / 40.0 * k11 + 9.0 / 40.0 * k21)
            w2 = y2 + ht * (3.0 / 40.0 * k12 + 9.0 / 40.0 * k22)
            w3 = y3 + ht * (3.0 / 40.0 * k13 + 9.0 / 40.0 * k23)
            ph = cmath.exp(1j * hh * tt)
            ps = cmath.exp(1j * ss * tt)
            pn = cmath.exp(1j * nu * tt)
            k31 = -1j * (v1 * ph * w3 + v2 * ps * w2)
            k32 = -1j * (v2 * ps.conjugate() * w1 + ome * pn.conjugate() * w3)
            k33 = -1j * (v1 * ph.conjugate() * w1 + ome * pn * w2)

            tt = t + ht * 0.8
            w1 = y1 + ht * (44.0 / 45.0 * k11 - 56.0 / 15.0 * k21 + 32.0 / 9.0 * k31)
            w2 = y2 + ht * (44.0 / 45.0 * k12 - 56.0 / 15.0 * k22 + 32.0 / 9.0 * k32)
            w3 = y3 + ht * (44.0 / 45.0 * k13 - 56.0 / 15.0 * k23 + 32.0 / 9.0 * k33)
            ph = cmath.exp(1j * hh * tt)
            ps = cmath.exp(1j * ss * tt)
            pn = cmath.exp(1j * nu * tt)
            k41 = -1j * (v1 * ph * w3 + v2 * ps * w2)
            k42 = -1j * (v2 * ps.conjugate() * w1 + ome * pn.conjugate() * w3)
            k43 = -1j * (v1 * ph.conjugate() * w1 + ome * pn * w2)

            tt = t + ht * (8.0 / 9.0)
            w1 = y1 + ht * (
                19372.0 / 6561.0 * k11 - 25360.0 / 2187.0 * k21 + 64448.0 / 6561.0 * k31 - 212.0 / 729.0 * k41
            )
            w2 = y2 + ht * (
                19372.0 / 6561.0 * k12 - 25360.0 / 2187.0 * k22 + 64448.0 / 6561.0 * k32 - 212.0 / 729.0 * k42
            )
            w3 = y3 + ht * (
                19372.0 / 6561.0 * k13 - 25360.0 / 2187.0 * k23 + 64448.0 / 6561.0 * k33 - 212.0 / 729.0 * k43
            )
            ph = cmath.exp(1j * hh * tt)
            ps = cmath.exp(1j * ss * tt)
            pn = cmath.exp(1j * nu * tt)
            k51 = -1j * (v1 * ph * w3 + v2 * ps * w2)
            k52 = -1j * (v2 * ps.conjugate() * w1 + ome * pn.conjugate() * w3)
            k53 = -1j * (v1 * ph.conjugate() * w1 + ome * pn * w2)

            tt = t + ht
            w1 = y1 + ht * (
                9017.0 / 3168.0 * k11 - 355.0 / 33.0 * k21 + 46732.0 / 5247.0 * k31
                + 49.0 / 176.0 * k41 - 5103.0 / 18656.0 * k51
            )
            w2 = y2 + ht * (
                9017.0 / 3168.0 * k12 - 355.0 / 33.0 * k22 + 46732.0 / 5247.0 * k32
                + 49.0 / 176.0 * k42 - 5103.0 / 18656.0 * k52
            )
            w3 = y3 + ht * (
                9017.0 / 3168.0 * k13 - 355.0 / 33.0 * k23 + 46732.0 / 5247.0 * k33
                + 49.0 / 176.0 * k43 - 5103.0 / 18656.0 * k53
            )
            ph = cmath.exp(1j * hh * tt)
            ps = cmath.exp(1j * ss * tt)
            pn = cmath.exp(1j * nu * tt)
            k61 = -1j * (v1 * ph * w3 + v2 * ps * w2)
            k62 = -1j * (v2 * ps.conjugate() * w1 + ome * pn.conjugate() * w3)
            k63 = -1j * (v1 * ph.conjugate() * w1 + ome * pn * w2)

            z1 = y1 + ht * (
                35.0 / 384.0 * k11 + 500.0 / 1113.0 * k31 + 125.0 / 192.0 * k41
                - 2187.0 / 6784.0 * k51 + 11.0 / 84.0 * k61
            )
            z2 = y2 + ht * (
                35.0 / 384.0 * k12 + 500.0 / 1113.0 * k32 + 125.0 / 192.0 * k42
                - 2187.0 / 6784.0 * k52 + 11.0 / 84.0 * k62
            )
            z3 = y3 + ht * (
                35.0 / 384.0 * k13 + 500.0 / 1113.0 * k33 + 125.0 / 192.0 * k43
                - 2187.0 / 6784.0 * k53 + 11.0 / 84.0 * k63
            )
            # FSAL stage: same tt = t + ht as stage 6, so ph/ps/pn carry over
            k71 = -1j * (v1 * ph * z3 + v2 * ps * z2)
            k72 = -1j * (v2 * ps.conjugate() * z1 + ome * pn.conjugate() * z3)
            k73 = -1j * (v1 * ph.conjugate() * z1 + ome * pn * z2)

            e1 = ht * (
                71.0 / 57600.0 * k11 - 71.0 / 16695.0 * k31 + 71.0 / 1920.0 * k41
                - 17253.0 / 339200.0 * k51 + 22.0 / 525.0 * k61 - 1.0 / 40.0 * k71
            )
            e2 = ht * (
                71.0 / 57600.0 * k12 - 71.0 / 16695.0 * k32 + 71.0 / 1920.0 * k42
                - 17253.0 / 339200.0 * k52 + 22.0 / 525.0 * k62 - 1.0 / 40.0 * k72
            )
            e3 = ht * (
                71.0 / 57600.0 * k13 - 71.0 / 16695.0 * k33 + 71.0 / 1920.0 * k43
                - 17253.0 / 339200.0 * k53 + 22.0 / 525.0 * k63 - 1.0 / 40.0 * k73
            )

            sc1 = atol + rtol * max(abs(y1), abs(z1))
            sc2 = atol + rtol * max(abs(y2), abs(z2))
            sc3 = atol + rtol * max(abs(y3), abs(z3))
            err = math.sqrt(((abs(e1) / sc1) ** 2 + (abs(e2) / sc2) ** 2 + (abs(e3) / sc3) ** 2) / 3.0)

            if not math.isfinite(err):
                nrej += 1
                h = ht * 0.1
                rejected = True
                continue

            if err <= 1.0:
                nacc += 1
                t = target if clipped else t + ht
                y1, y2, y3 = z1, z2, z3
                k11, k12, k13 = k71, k72, k73
                fac11 = err ** expo1
                fac = fac11 / facold ** beta
                fac = max(1.0 / 10.0, min(1.0 / 0.2, fac / safe))
                hnew = ht / fac
                if rejected:
                    hnew = min(hnew, ht)
                facold = max(err, 1e-4)
                rejected = False
                h = hnew
            else:
                nrej += 1
                fac11 = err ** expo1
                h = ht / min(1.0 / 0.2, fac11 / safe)
                rejected = True

        out[i, 0] = y1
        out[i, 1] = y2
        out[i, 2] = y3

    return out, STATUS_OK, nacc, nrej


integrate_sector_numpy = _integrate_sector
integrate_sector_numba = None
if HAVE_NUMBA:
    from numba import njit

    integrate_sector_numba = njit(cache=True, nogil=True)(_integrate_sector)


def select_integrator(name: str | None = None):
    """Return the integrator implementation for backend `name`.

    None picks the active default (see djcm.backend).
    """
    choice = ACTIVE if name is None else name
    if choice == "numba":
        if integrate_sector_numba is None:
            raise RuntimeError("numba backend requested but numba is not importable")
        return integrate_sector_numba
    if choice == "numpy":
        return integrate_sector_numpy
    raise ValueError(f"unknown backend {choice!r}")
