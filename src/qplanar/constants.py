"""Physical constants (CODATA 2018, SI units), and per-frequency evaluation."""

import math

import numpy as np

HBAR = 1.054571817e-34      # J s
K_B = 1.380649e-23          # J / K
C_LIGHT = 299792458.0       # m / s
EPS0 = 8.8541878128e-12     # F / m

EV = 1.602176634e-19        # J


def per_omega(f, omega) -> np.ndarray:
    """f(w) at every entry w of the array omega, shape np.shape(f(w)) + omega.shape.

    f takes one float and returns a scalar or a 1-d sequence; it runs once per
    distinct value, so each entry gets the scalar value bit for bit.  No entry may be NaN.
    """
    omega = np.asarray(omega, dtype=float)
    values = np.array(sorted(set(omega.ravel().tolist())))
    # take() returns a C-ordered array; indexing the transposed table would not, and slows every
    # ufunc downstream.
    return np.take(np.array([f(w) for w in values]).T, np.searchsorted(values, omega), axis=-1)


def n0_scale(omega) -> np.ndarray:
    """Commutator normalization (pi hbar / eps0) (omega/c)^2, in SI, per entry of omega.

    All commutator coefficients in this package are stored divided by this
    factor, so they carry units of length (1/beta-like) and identities stay
    dimensionless-tame across the optical range.
    """
    return per_omega(lambda w: math.pi * HBAR / EPS0 * (w / C_LIGHT) ** 2, omega)
