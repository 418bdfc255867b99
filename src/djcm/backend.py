"""Name of the ODE oracle's integrator, recorded in every manifest and in
the validate report: the plain-Python Dormand-Prince loop of
djcm.dynamics.amplitudes_ode."""

__all__ = ["ACTIVE"]

ACTIVE = "numpy"
