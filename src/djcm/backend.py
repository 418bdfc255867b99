"""Kernel backend probe.

The ODE oracle's kernel is compiled with numba whenever numba imports
(ACTIVE = "numba"); otherwise the plain-Python kernel runs (ACTIVE =
"numpy").  Both implementations stay importable so benchmarks can time
them side by side regardless of the active default.
"""

from __future__ import annotations

__all__ = ["HAVE_NUMBA", "ACTIVE"]

try:
    import numba  # noqa: F401

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    HAVE_NUMBA = False

ACTIVE = "numba" if HAVE_NUMBA else "numpy"
