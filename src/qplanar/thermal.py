"""Thermal-equilibrium emission spectra and the Kirchhoff-balance diagnostic.

The plate is assumed globally at temperature T: every interior layer sees
the same Bose-Einstein occupation, so temperature enters only through
n(omega, T).  Spectra are returned N0-normalized like the commutator
coefficients (multiply by n0_scale(omega) for SI).
"""

from __future__ import annotations

import math

import numpy as np

from .commutators import _require_off_grazing, c_in, intraplate_eig
from .constants import HBAR, K_B
from .errors import AccuracyError, ConfigError, RegimeError
from .iorel import io_matrix
from .modes import ModeContext, Regime, regime
from .scatter import scatter_set


def bose(omega, temperature: float) -> np.ndarray:
    """Bose-Einstein occupation 1 / (exp(hbar omega / kB T) - 1) per entry of omega; T = 0 gives 0.

    Evaluated through expm1 so the Rayleigh-Jeans regime hbar omega << kB T
    keeps full relative accuracy, with `math`'s expm1 and exp once per distinct
    omega (NumPy's differ from them by an ulp on some arguments).
    """
    if not (math.isfinite(temperature) and temperature >= 0.0):
        raise ConfigError(f"temperature must be nonnegative and finite, got {temperature}")
    values, inverse = np.unique(np.asarray(omega, dtype=float), return_inverse=True)
    if not np.all(values > 0.0):
        raise ConfigError(f"omega must be positive, got {values[~(values > 0.0)][0]}")
    x = [HBAR * w / (K_B * temperature) if temperature > 0.0 else math.inf for w in values.tolist()]
    occupation = [math.exp(-xi) if xi > 700.0 else 1.0 / math.expm1(xi) for xi in x]
    return np.array(occupation, dtype=float)[inverse].reshape(np.shape(omega))


def _emission(ctx: ModeContext, q: str, temperature: float, rows):
    """Emission w of the sides at `rows` of ctx.side_row (side axes first, then k) and the IO
    relation it came from; the caller has rejected grazing modes."""
    io = io_matrix(scatter_set(ctx, q))
    plus, minus = intraplate_eig(ctx, q, np.arange(1, ctx.n))   # (n-1, *k) each
    v0, v1 = np.moveaxis(io.phi, (-1, -2), (0, 1))[:, rows]   # Phi rows of `side`: (*side, n-1, *k)
    per_layer = 0.5 * (plus * abs(v0 + v1) ** 2 + minus * abs(v0 - v1) ** 2)
    per_layer = np.moveaxis(per_layer, rows.ndim, 0)   # (n-1, *side, *k)
    w = bose(ctx.omega, temperature) * sum(per_layer, np.zeros(rows.shape + ctx.k.shape))
    if not np.isfinite(w).all():
        at = np.unravel_index(np.argmax(~np.isfinite(w)), w.shape)
        j = 1 + int(np.argmax(~np.isfinite(per_layer[(slice(None), *at)])))
        raise AccuracyError(f"emission is not finite at {ctx.mode(at[rows.ndim:])}: the noise "
                            f"coupling of layer {j} is not finite")
    return w, io


def emission_w(ctx: ModeContext, q: str = "s", temperature: float = 300.0, side=0):
    """Spectral intensity of thermal radiation leaving one side (N0-normalized), per k.

    w = n(omega, T) * sum_j phi_side^(j) C^(j) phi_side^(j)+.  In the eigenbasis of
    C^(j) = [[a, b], [b, a]] this is the real sum n sum_j (e_+ |phi_+ + phi_-|^2
    + e_- |phi_+ - phi_-|^2) / 2 with (e_+, e_-) = (a + b, a - b) from
    :func:`qplanar.commutators.intraplate_eig`, a sum of nonnegative products that does not
    cancel (at the light line of a thin, weakly lossy layer either).  Lossless stacks give
    exactly zero (every e_+/- vanishes).  `side` is the outer region index, 0 or ctx.n, or an
    array of them: the result has the side axes first, then the k axes.  A grazing k
    (beta = 0 in some region) raises RegimeError, a layer that is not passive
    PassivityError, and a non-finite value AccuracyError.
    """
    rows = ctx.side_row(side)
    _require_off_grazing(ctx)
    return _emission(ctx, q, temperature, rows)[0]


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
    rows = ctx.side_row(side)
    cin = np.moveaxis(c_in(ctx, q), -1, 0)[rows]   # raises at a grazing mode
    w, io = _emission(ctx, q, temperature, rows)
    s = np.moveaxis(io.s_matrix, -2, 0)[rows]
    occ = bose(ctx.omega, temperature)
    budget = occ * cin * (1.0 - abs(s[..., 0]) ** 2 - abs(s[..., 1]) ** 2)
    # Normalized against the full input budget n c_in, the emissivity scale;
    # a lossless stack (w = budget = 0 up to rounding) then reports ~0.
    return abs(w - budget) / np.maximum(np.maximum(abs(w), occ * cin), 1e-300)
