"""Name of the ODE oracle's kernel, recorded in every manifest and in the
validate report: the plain-Python Dormand-Prince kernel of djcm._kernels."""

__all__ = ["ACTIVE"]

ACTIVE = "numpy"
