"""Thermal-equilibrium emission spectra and the Kirchhoff-balance diagnostic.

The plate is assumed globally at temperature T: every interior layer sees
the same Bose-Einstein occupation, so temperature enters only through
n(omega, T).  Spectra are returned N0-normalized like the commutator
coefficients (multiply by n0_scale(omega) for SI).
"""

from __future__ import annotations

import math

import numpy as np

from .commutators import _require_off_grazing, c_in_side, intraplate_c
from .constants import HBAR, K_B, per_omega
from .errors import AccuracyError, ConfigError, RegimeError
from .iorel import io_matrix
from .modes import ModeContext, Regime, regime
from .scatter import scatter_set

_NEGATIVE_W_TOL = 1e-10


def bose(omega, temperature: float) -> np.ndarray:
    """Bose-Einstein occupation 1 / (exp(hbar omega / kB T) - 1) per entry of omega; T = 0 gives 0.

    Evaluated through expm1 so the Rayleigh-Jeans regime hbar omega << kB T
    keeps full relative accuracy.
    """
    if not (math.isfinite(temperature) and temperature >= 0.0):
        raise ConfigError(f"temperature must be nonnegative and finite, got {temperature}")

    def occupation(w: float) -> float:
        if not w > 0.0:
            raise ConfigError(f"omega must be positive, got {w}")
        x = HBAR * w / (K_B * temperature) if temperature > 0.0 else math.inf
        return math.exp(-x) if x > 700.0 else 1.0 / math.expm1(x)

    return per_omega(occupation, omega)


def _emission(ctx: ModeContext, q: str, temperature: float, side):
    """Emission w of `side` (side axes first, then k), the S rows of `side` and c_in of side 0."""
    rows = ctx.side_row(side)
    _require_off_grazing(ctx)
    io = io_matrix(scatter_set(ctx, q))
    c_in0, c_inN = c_in_side(ctx, q, np.array([0, ctx.n]))
    c = intraplate_c(ctx, q, np.arange(1, ctx.n))
    v0, v1 = np.moveaxis(io.phi, (-1, -2), (0, 1))[:, rows]   # Phi rows of `side`: (*side, n-1, *k)
    per_layer = ((v0 * c[..., 0, 0] + v1 * c[..., 1, 0]) * np.conj(v0)
                 + (v0 * c[..., 0, 1] + v1 * c[..., 1, 1]) * np.conj(v1))
    per_layer = np.moveaxis(per_layer, rows.ndim, 0)   # (n-1, *side, *k)
    total = sum(per_layer, np.zeros(rows.shape + ctx.k.shape, dtype=complex))
    occ = bose(ctx.omega, temperature)
    w = occ * total.real
    if not np.isfinite(w).all():
        at = np.unravel_index(np.argmax(~np.isfinite(w)), w.shape)
        j = 1 + int(np.argmax(~np.isfinite(per_layer[(slice(None), *at)])))
        raise AccuracyError(f"emission is not finite at {ctx.mode(at[rows.ndim:])}: the noise "
                            f"coupling of layer {j} overflows")
    scale = np.maximum(np.maximum(abs(c_in0), abs(c_inN)), np.maximum(abs(total.real), 1e-300))
    negative = w < -_NEGATIVE_W_TOL * occ * scale
    if negative.any():
        at = np.unravel_index(np.argmax(negative), w.shape)
        raise AccuracyError(f"emission spectrum came out negative (w = {w[at]} at "
                            f"{ctx.mode(at[rows.ndim:])}); convention bug upstream")
    return w, np.moveaxis(io.s_matrix, -2, 0)[rows], c_in0


def emission_w(ctx: ModeContext, q: str = "s", temperature: float = 300.0, side=0):
    """Spectral intensity of thermal radiation leaving one side (N0-normalized), per k.

    w = n(omega, T) * sum_j phi_side^(j) C^(j) phi_side^(j)+, which expands to
    n sum_j |t_{j/side}/D_j|^2 e^{-2 beta'' d} {c++ + |r_opp|^2 c-- + 2 Re[r_opp c-+]}.
    Lossless stacks give exactly zero (every C^(j) vanishes).  `side` is the
    outer region index, 0 or ctx.n, or an array of them: the result has the
    side axes first, then the k axes.  A grazing k (beta = 0 in some region)
    raises RegimeError; a negative value at any k beyond rounding raises
    AccuracyError.
    """
    return _emission(ctx, q, temperature, side)[0]


def kirchhoff_residual(ctx: ModeContext, q: str = "s", temperature: float = 300.0, side=0):
    """Relative gap between emission and the absorptivity budget n c_in (1 - |r|^2 - |t|^2), per k.

    Valid for vacuum outer media in the propagating regime, where emissivity
    equals absorptivity exactly; evanescent modes take a different balance
    (output noise against 2 Im r / |beta|) and are rejected here.  `side`
    is taken as in :func:`emission_w`.
    """
    if np.any(ctx.eps[[0, ctx.n]] != 1.0):
        raise RegimeError("kirchhoff_residual requires vacuum outer media")
    if np.any(regime(ctx, 0) != Regime.PROPAGATING):
        raise RegimeError("kirchhoff_residual requires the propagating regime (omega/c > k)")
    w, s, c_in = _emission(ctx, q, temperature, side)
    occ = bose(ctx.omega, temperature)
    budget = occ * c_in * (1.0 - abs(s[..., 0]) ** 2 - abs(s[..., 1]) ** 2)
    # Normalized against the full input budget n c_in, the emissivity scale;
    # a lossless stack (w = budget = 0 up to rounding) then reports ~0.
    return abs(w - budget) / np.maximum(np.maximum(abs(w), occ * c_in), 1e-300)
