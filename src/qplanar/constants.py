"""Physical constants (CODATA 2018, SI units) and the commutator normalization."""

import math

import numpy as np

HBAR = 1.054571817e-34      # J s
K_B = 1.380649e-23          # J / K
C_LIGHT = 299792458.0       # m / s
EPS0 = 8.8541878128e-12     # F / m

EV = 1.602176634e-19        # J


def n0_scale(omega) -> np.ndarray:
    """Commutator normalization (pi hbar / eps0) (omega/c)^2, in SI, per entry of omega.

    All commutator coefficients in this package are stored divided by this
    factor, so they carry units of length (1/beta-like) and identities stay
    dimensionless-tame across the optical range.
    """
    # float_power, not `**`: an array's `** 2` is x * x, which differs from pow by an ulp
    return math.pi * HBAR / EPS0 * np.float_power(np.asarray(omega, dtype=float) / C_LIGHT, 2)
