#!/usr/bin/env python3
"""Benchmark the hot integrator kernel: numba-compiled vs pure NumPy.

Workload: the three reference parameter rows integrated over tau in
[0, tau_max] at the figure sampling density, plus the analytic
(eigendecomposition) route for reference.  The first numba call compiles (cached on
disk), so a warm-up pass runs before timing.

    python benchmarks/bench_backends.py [--samples N] [--repeats R] [--tau-max T]
"""

import argparse
import time

import numpy as np

from djcm.backend import HAVE_NUMBA
from djcm.dynamics import solve_sector
from djcm.figures import ROWS, row_params


def time_route(grids, repeats, **kwargs):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for params, t in grids:
            solve_sector(params, t, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--tau-max", type=float, default=60.0)
    args = parser.parse_args()

    grids = []
    for row in ROWS:
        params = row_params(row)
        grids.append((params, np.linspace(0.0, args.tau_max, args.samples) / params.omega_cavity))

    print(f"workload: 3 reference rows, {args.samples} samples, tau <= {args.tau_max:g}")
    print(f"repeats:  best of {args.repeats}\n")

    t_numpy = time_route(grids, args.repeats, method="oracle", backend="numpy")
    print(f"ode / numpy fallback : {t_numpy * 1e3:9.2f} ms")

    if HAVE_NUMBA:
        time_route(grids, 1, method="oracle", backend="numba")  # warm-up / JIT
        t_numba = time_route(grids, args.repeats, method="oracle", backend="numba")
        print(f"ode / numba kernel   : {t_numba * 1e3:9.2f} ms   ({t_numpy / t_numba:5.1f}x speedup)")
    else:
        print("ode / numba kernel   : numba not importable")

    t_ana = time_route(grids, args.repeats, method="analytic")
    print(f"analytic (eigh) route: {t_ana * 1e3:9.2f} ms   (closed form, for reference)")

    # the two backends must agree exactly
    if HAVE_NUMBA:
        params, t = grids[0]
        a = solve_sector(params, t, method="oracle", backend="numba").amplitudes
        b = solve_sector(params, t, method="oracle", backend="numpy").amplitudes
        print(f"\nbackend max deviation: {np.max(np.abs(a - b)):.3e}")


if __name__ == "__main__":
    main()
