"""Per-mode kinematics: wavenumbers, propagation constants, polarization vectors.

A mode is fixed by (omega, k) with k the magnitude of the transverse
wavevector.  For every region j the propagation constant is

    beta_j = sqrt(k_j^2 - k^2),   k_j = sqrt(eps_j) * omega / c,

on the branch with Re >= 0 and Im >= 0.  For exactly lossless media with
k > k_j the argument of the root is negative real; there the branch is
selected explicitly as +i sqrt(|.|) so no signed-zero ambiguity of the
principal root can leak in.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .constants import C_LIGHT
from .errors import ConfigError
from .stack import Stack, epsilon

X_HAT = (1.0, 0.0)

POLS = ("s", "p")


def upper_sqrt(z: complex) -> complex:
    """Complex square root with Re >= 0 and Im >= 0 for Im z >= 0.

    Negative-real arguments map to +i sqrt(|z|) exactly; in particular the
    result is purely imaginary (zero real part) there.
    """
    if z.imag == 0.0:
        x = z.real
        if x < 0.0:
            return complex(0.0, math.sqrt(-x))
        return complex(math.sqrt(x), 0.0)
    return cmath.sqrt(z)


class Regime(Enum):
    PROPAGATING = "propagating"
    EVANESCENT = "evanescent"
    LOSSY = "lossy"


@dataclass(frozen=True)
class ModeContext:
    """Kinematic bundle for one (omega, k) mode over all regions of a stack."""

    stack: Stack
    omega: float                  # rad/s
    k: float                      # 1/m
    khat: tuple[float, float]     # unit in-plane direction of the k-vector
    eps: tuple[complex, ...]      # per region
    kj: tuple[complex, ...]       # per region
    beta: tuple[complex, ...]     # per region

    @property
    def n(self) -> int:
        return self.stack.n

    def side_row(self, side: int) -> int:
        """Row (0 or 1) of outer region `side` in the IO relation; side must be 0 or n."""
        if side not in (0, self.n):
            raise ConfigError(f"side must be 0 or {self.n}, got {side}")
        return 0 if side == 0 else 1

    def pol_vector(self, q: str, j: int, sign: int, khat=None) -> np.ndarray:
        """Polarization vector e_q,sign in region j, shape np.shape(kx) + (3,).

        TE: khat x ez, the same for both signs and all regions.  TM: (-/+ beta_j
        khat, k) / k_j for sign +1 / -1.  `khat` = (kx, ky) defaults to the
        mode's own direction; arrays of unit directions give one vector each.
        """
        kx, ky = self.khat if khat is None else khat
        out = np.empty(np.shape(kx) + (3,), dtype=complex)
        if q == "s":
            out[..., 0], out[..., 1], out[..., 2] = ky, -kx, 0.0
        elif q == "p":
            b = -self.beta[j] if sign > 0 else self.beta[j]
            out[..., 0], out[..., 1], out[..., 2] = b * kx, b * ky, self.k
            out /= self.kj[j]
        else:
            raise ConfigError(f"polarization must be 's' or 'p', got {q!r}")
        return out


def make_context(stack: Stack, omega: float, k: float, khat=X_HAT) -> ModeContext:
    """Evaluate eps_j, k_j, beta_j for every region of the stack at (omega, k)."""
    if not (math.isfinite(omega) and omega > 0.0):
        raise ConfigError(f"omega must be positive and finite, got {omega}")
    if not (math.isfinite(k) and k >= 0.0):
        raise ConfigError(f"k must be nonnegative and finite, got {k}")
    kx, ky = float(khat[0]), float(khat[1])
    norm = math.hypot(kx, ky)
    if abs(norm - 1.0) > 1e-12:
        raise ConfigError(f"khat must be a unit vector, |khat| = {norm}")
    eps = []
    kj = []
    beta = []
    w_c = omega / C_LIGHT
    for j in range(stack.n + 1):
        e = complex(epsilon(stack, j, omega))
        eps.append(e)
        kjj = upper_sqrt(e * w_c * w_c)
        kj.append(kjj)
        beta.append(upper_sqrt(kjj * kjj - k * k))
    return ModeContext(stack, omega, k, (kx, ky), tuple(eps), tuple(kj), tuple(beta))


def regime(ctx: ModeContext, j: int) -> Regime:
    """Classify the z-propagation behavior in region j."""
    b = ctx.beta[j]
    if b.imag == 0.0 and b.real > 0.0:
        return Regime.PROPAGATING
    if b.real == 0.0 and b.imag > 0.0:
        return Regime.EVANESCENT
    return Regime.LOSSY
