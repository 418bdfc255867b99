"""djcm: per-photon-sector dynamics of a microwave-driven V-type atom in a
Kerr-deformed cavity, with the full set of derived quantum observables."""

from .dynamics import (
    EXCITED,
    InitialCondition,
    PhaseAccuracyError,
    StepBudgetError,
    StepSizeUnderflowError,
    Trajectory,
    amplitudes_ode,
    analytic_trajectory,
    sector_generator,
    solve_sector,
)
from .model import Kerr, ModelParams, SectorCoefficients, k_value, sector_coefficients
from .observables import (
    HusimiGrid,
    ObservableSeries,
    UndefinedObservableError,
    entropy,
    field_moments,
    g2_zero,
    husimi_q,
    inversion,
    mandel_q,
    populations,
    reduced_density,
    squeezing_params,
    trajectory_series,
    von_neumann_entropy,
)

__version__ = "0.1.0"
