import numpy as np
import pytest

from djcm.dynamics import EXCITED, amplitudes_ode
from djcm.model import SectorCoefficients


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # trigger JIT compilation outside any timed test region
    coeffs = SectorCoefficients(h=0.0, s=0.1, nu=0.1, v1=0.05, v2=0.07, omega_e=0.04, n=1)
    amplitudes_ode(coeffs, EXCITED, np.linspace(0.0, 1.0, 5))
