"""Name of the ODE oracle's integrator, the plain-Python Dormand-Prince loop
of djcm.dynamics.amplitudes_ode.  No output records it; it remains for
solve_sector(backend=...) and the benchmark's machine line, which read it."""

__all__ = ["ACTIVE"]

ACTIVE = "numpy"
