"""Per-mode kinematics: wavenumbers, propagation constants, polarization vectors.

A mode is fixed by (omega, k) with k the magnitude of the transverse
wavevector.  For every region j the propagation constant is

    beta_j = sqrt((k_j - k)(k_j + k)),   k_j = sqrt(eps_j) * omega / c,

on the branch with Re >= 0 and Im >= 0; the factored argument keeps full
relative accuracy next to a light line, where k_j^2 - k^2 would cancel.
For exactly lossless media with k > k_j the argument of the root is
negative real; there the branch is selected explicitly as +i sqrt(|.|) so
no signed-zero ambiguity of the principal root can leak in.  Every
function takes an array of k at one omega (a single mode is a 0-d array);
per-region quantities carry the region axis first.
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
    (Im z = +0 or -0) negatives map exactly to +i sqrt(|z|), the rest to sqrt(z) + 0i."""
    z = np.asarray(z, dtype=complex)
    root = np.sqrt(np.abs(z.real))
    on_axis = np.where(z.real < 0.0, root * 1j, root + 0j)
    return np.where(z.imag == 0.0, on_axis, np.sqrt(z))


class Regime(Enum):
    PROPAGATING = "propagating"
    EVANESCENT = "evanescent"
    LOSSY = "lossy"


@dataclass(frozen=True)
class ModeContext:
    """Kinematic bundle for the modes (omega, k) of one k array over all regions of a stack."""

    stack: Stack
    omega: float                  # rad/s
    k: np.ndarray                 # 1/m, any shape; 0-d for a single mode
    khat: tuple[float, float]     # unit in-plane direction of the k-vector
    eps: np.ndarray               # (n+1,) per region
    kj: np.ndarray                # (n+1,) per region
    beta: np.ndarray              # (n+1, *k.shape)
    d: np.ndarray                 # (n+1,) thicknesses, 0 for the half-spaces

    @property
    def n(self) -> int:
        return len(self.eps) - 1

    def per_region(self, values: np.ndarray, j) -> np.ndarray:
        """values[j] of a per-region array (eps, kj, d), shaped to broadcast against beta[j]."""
        return values[j].reshape(np.shape(j) + (1,) * self.k.ndim)

    def select(self, idx) -> ModeContext:
        """The modes k[idx] of this context; `idx` indexes the k axes."""
        return replace(self, k=self.k[idx], beta=self.beta[(slice(None), *np.index_exp[idx])])

    def side_row(self, side: int) -> int:
        """Row (0 or 1) of outer region `side` in the IO relation; side must be 0 or n."""
        if side not in (0, self.n):
            raise ConfigError(f"side must be 0 or {self.n}, got {side}")
        return 0 if side == 0 else 1

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
            out /= self.kj[j]
        else:
            raise ConfigError(f"polarization must be 's' or 'p', got {q!r}")
        return out


def make_context(stack: Stack, omega: float, k, khat=X_HAT) -> ModeContext:
    """Evaluate eps_j, k_j, beta_j for every region of the stack at omega and every k."""
    if not (math.isfinite(omega) and omega > 0.0):
        raise ConfigError(f"omega must be positive and finite, got {omega}")
    k = np.asarray(k, dtype=float)
    bad = ~(np.isfinite(k) & (k >= 0.0))
    if bad.any():
        raise ConfigError(f"k must be nonnegative and finite, got {k[bad].flat[0]}")
    kx, ky = float(khat[0]), float(khat[1])
    norm = math.hypot(kx, ky)
    if abs(norm - 1.0) > 1e-12:
        raise ConfigError(f"khat must be a unit vector, |khat| = {norm}")
    eps = np.array([material(omega) for material in stack.materials], dtype=complex)
    w_c = omega / C_LIGHT
    kj = upper_sqrt(eps * w_c * w_c)
    kjb = kj.reshape(kj.shape + (1,) * k.ndim)
    beta = upper_sqrt((kjb - k) * (kjb + k))
    d = np.array([0.0, *(layer.thickness for layer in stack.layers), 0.0])
    return ModeContext(stack, omega, k, (kx, ky), eps, kj, beta, d)


def regime(ctx: ModeContext, j: int):
    """Classify the z-propagation behavior in region j: one Regime per mode."""
    b = ctx.beta[j]
    code = np.where((b.imag == 0.0) & (b.real > 0.0), 0,
                    np.where((b.real == 0.0) & (b.imag > 0.0), 1, 2))
    return np.array(list(Regime), dtype=object)[code]
