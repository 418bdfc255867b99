"""djcm: per-photon-sector dynamics of a microwave-driven V-type atom in a
Kerr-deformed cavity, with the full set of derived quantum observables.

Importing djcm before NumPy sets OPENBLAS_NUM_THREADS=1 unless it is
already set: every djcm array is a stack of 3x3 matrices or an
elementwise grid, which OpenBLAS's worker threads never speed up, while
starting them costs each process start-up time and CPU.  A program that
imported NumPy first keeps its thread pool.  The variable stays set, so
child processes started afterwards inherit it.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .dynamics import (
    EXCITED,
    InitialCondition,
    PhaseAccuracyError,
    StepBudgetError,
    StepSizeUnderflowError,
    Trajectory,
    amplitudes_ode,
    analytic_trajectory,
    norm_drift,
    sector_generator,
    solve_sector,
)
from .model import Kerr, ModelParams, SectorCoefficients, k_value, sector_coefficients
from .observables import (
    HusimiGrid,
    ObservableSeries,
    UndefinedObservableError,
    entropy,
    g2_zero,
    husimi_q,
    inversion,
    mandel_q,
    mean_photon_number,
    populations,
    reduced_density,
    squeezing_params,
    trajectory_series,
    von_neumann_entropy,
)

__version__ = "0.1.0"
