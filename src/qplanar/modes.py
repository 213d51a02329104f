"""Per-mode kinematics: wavenumbers, propagation constants, polarization vectors.

A mode is fixed by (omega, k) with k the magnitude of the transverse
wavevector.  For every region j the propagation constant is

    beta_j = sqrt(k_j^2 - k^2),   k_j = sqrt(eps_j) * omega / c,

on the branch with Re >= 0 and Im >= 0, taken of ((k_j' - k)(k_j' + k) - k_j''^2)
+ 2i k_j' k_j'': the factored real part keeps its digits next to a light line, and the
one-product imaginary part the small beta' of a nearly lossless evanescent layer.
For exactly lossless media with k > k_j the argument of the root is
negative real; there the branch is selected explicitly as +i sqrt(|.|) so
no signed-zero ambiguity of the principal root can leak in.  Every
function takes an array of modes (omega, k), omega broadcast against k (a
single mode is a 0-d array); per-region quantities carry the region axis
first, then the k axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .constants import C_LIGHT
from .errors import ConfigError
from .stack import Stack

X_HAT = (1.0, 0.0)

POLS = ("s", "p")


def upper_sqrt(z):
    """Elementwise square root with Re, Im >= 0 for Im z >= 0; on the real axis
    (Im z = +0 or -0) negatives map exactly to +i sqrt(|z|), the rest to sqrt(z) + 0i.

    Adding +0 turns an imaginary -0 into +0 and leaves every other entry as it
    is; the principal root of x + 0i is exactly sqrt(x) + 0i, or +i sqrt(-x) for x < 0.
    """
    return np.sqrt(np.asarray(z, dtype=complex) + 0.0)


class Regime(Enum):
    PROPAGATING = "propagating"
    EVANESCENT = "evanescent"
    LOSSY = "lossy"


@dataclass(frozen=True)
class ModeContext:
    """Kinematic bundle for the modes (omega, k) of one array over all regions of a stack."""

    stack: Stack
    omega: np.ndarray             # rad/s, k.shape
    k: np.ndarray                 # 1/m, any shape; 0-d for a single mode
    khat: tuple[float, float]     # unit in-plane direction of the k-vector
    eps: np.ndarray               # (n+1, *k.shape)
    kj: np.ndarray                # (n+1, *k.shape)
    beta: np.ndarray              # (n+1, *k.shape)
    d: np.ndarray                 # (n+1,) thicknesses, 0 for the half-spaces

    @property
    def n(self) -> int:
        return len(self.d) - 1

    def per_region(self, values: np.ndarray, j) -> np.ndarray:
        """values[j] of an array over the regions alone (d), shaped to broadcast against beta[j]."""
        return values[j].reshape(np.shape(j) + (1,) * self.k.ndim)

    def select(self, idx) -> ModeContext:
        """The modes [idx] of this context; `idx` indexes the k axes."""
        at = (slice(None), *np.index_exp[idx])
        return replace(self, omega=self.omega[idx], k=self.k[idx], eps=self.eps[at],
                       kj=self.kj[at], beta=self.beta[at])

    def mode(self, at) -> str:
        """The mode at index `at` of the k axes, as 'omega = ... rad/s, k = ... 1/m'."""
        return f"omega = {self.omega[at]:.6e} rad/s, k = {self.k[at]:.6e} 1/m"

    def side_row(self, side) -> np.ndarray:
        """Row (0 or 1) of outer region `side` in the IO relation, per entry of an array of
        sides (0-d for one side); any side but 0 and n is a ConfigError."""
        side = np.asarray(side)
        bad = (side != 0) & (side != self.n)
        if bad.any():
            raise ConfigError(f"side must be 0 or {self.n}, got {side[bad].flat[0]}")
        return (side == self.n).astype(np.intp)

    def pol_vector(self, q: str, j: int, sign: int, khat=None) -> np.ndarray:
        """Polarization vector e_q,sign in region j, shape k.shape + np.shape(kx) + (3,).

        TE: khat x ez, the same for both signs and all regions.  TM: (-/+ beta_j
        khat, k) / k_j for sign +1 / -1.  `khat` = (kx, ky) defaults to the
        mode's own direction; arrays of unit directions give one vector each.
        """
        kx, ky = self.khat if khat is None else khat
        kx, ky = np.asarray(kx, dtype=float), np.asarray(ky, dtype=float)
        out = np.empty(self.k.shape + kx.shape + (3,), dtype=complex)
        if q == "s":
            out[..., 0], out[..., 1], out[..., 2] = ky, -kx, 0.0
        elif q == "p":
            lead = self.k.shape + (1,) * kx.ndim
            b = (-self.beta[j] if sign > 0 else self.beta[j]).reshape(lead)
            out[..., 0], out[..., 1], out[..., 2] = b * kx, b * ky, self.k.reshape(lead)
            out /= self.kj[j].reshape(lead + (1,))
        else:
            raise ConfigError(f"polarization must be 's' or 'p', got {q!r}")
        return out


def make_context(stack: Stack, omega, k, khat=X_HAT) -> ModeContext:
    """Evaluate eps_j, k_j, beta_j for every region of the stack at every mode (omega, k), omega
    broadcast against k; each material is called once, on the array of omega."""
    omega, k = np.asarray(omega, dtype=float), np.asarray(k, dtype=float)
    grid = np.empty((2, *np.broadcast(omega, k).shape))
    grid[0], grid[1] = omega, k
    omega, k = grid
    bad = ~((omega > 0.0) & (omega < math.inf))
    if bad.any():
        raise ConfigError(f"omega must be positive and finite, got {omega[bad].flat[0]}")
    eps = np.array([material(omega) for material in stack.materials], dtype=complex)
    w_c = omega / C_LIGHT
    kj = upper_sqrt(eps * w_c * w_c)
    bad = ~(np.isfinite(k) & (k >= 0.0))
    if bad.any():
        raise ConfigError(f"k must be nonnegative and finite, got {k[bad].flat[0]}")
    kx, ky = float(khat[0]), float(khat[1])
    norm = math.hypot(kx, ky)
    if abs(norm - 1.0) > 1e-12:
        raise ConfigError(f"khat must be a unit vector, |khat| = {norm}")
    kr, ki = kj.real, kj.imag
    beta = upper_sqrt(((kr - k) * (kr + k) - ki * ki) + 2j * kr * ki)
    d = np.array([0.0, *(layer.thickness for layer in stack.layers), 0.0])
    return ModeContext(stack, omega, k, (kx, ky), eps, kj, beta, d)


def regime(ctx: ModeContext, j: int):
    """Classify the z-propagation behavior in region j: one Regime per mode."""
    b = ctx.beta[j]
    code = np.where((b.imag == 0.0) & (b.real > 0.0), 0,
                    np.where((b.real == 0.0) & (b.imag > 0.0), 1, 2))
    return np.array(list(Regime), dtype=object)[code]
