"""Thermal-equilibrium emission spectra and the Kirchhoff-balance diagnostic.

The plate is assumed globally at temperature T: every interior layer sees
the same Bose-Einstein occupation, so temperature enters only through
n(omega, T).  Spectra are returned N0-normalized like the commutator
coefficients (multiply by n0_scale(omega) for SI).
"""

from __future__ import annotations

import math

from .commutators import CommutatorSet, c_in_side, commutator_set, _phi_rows
from .constants import HBAR, K_B
from .errors import AccuracyError, ConfigError, RegimeError
from .modes import ModeContext, Regime, regime
from .stack import Stack

_NEGATIVE_W_TOL = 1e-10


def bose(omega: float, temperature: float, hbar: float = HBAR, k_b: float = K_B) -> float:
    """Bose-Einstein occupation 1 / (exp(hbar omega / kB T) - 1); T = 0 gives 0.

    Evaluated through expm1 so the Rayleigh-Jeans regime hbar omega << kB T
    keeps full relative accuracy.
    """
    if omega <= 0.0:
        raise ConfigError(f"omega must be positive, got {omega}")
    if temperature < 0.0:
        raise ConfigError(f"temperature must be nonnegative, got {temperature}")
    if temperature == 0.0:
        return 0.0
    x = hbar * omega / (k_b * temperature)
    if x > 700.0:
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def emission_w(ctx: ModeContext, stack: Stack | None = None, q: str = "s",
               temperature: float = 300.0, side: int = 0,
               cs: CommutatorSet | None = None,
               hbar: float = HBAR, k_b: float = K_B) -> float:
    """Spectral intensity of thermal radiation leaving one side (N0-normalized).

    w = n(omega, T) * sum_j phi_side^(j) C^(j) phi_side^(j)+, which expands to
    n sum_j |t_{j/side}/D_j|^2 e^{-2 beta'' d} {c++ + |r_opp|^2 c-- + 2 Re[r_opp c-+]}.
    Lossless stacks give exactly zero (every C^(j) vanishes).  `side` is the
    outer region index, 0 or ctx.n.
    """
    row = ctx.side_row(side)
    if cs is None:
        cs = commutator_set(ctx, stack, q)
    occ = bose(ctx.omega, temperature, hbar, k_b)
    total = 0.0 + 0.0j
    for j in range(cs.n_layers):
        phi = _phi_rows(cs.io, j)[row]
        total += phi @ cs.cmat[j] @ phi.conjugate()
    w = occ * total.real
    scale = max(abs(cs.c_in0), abs(cs.c_inN), abs(total.real), 1e-300)
    if w < -_NEGATIVE_W_TOL * occ * scale:
        raise AccuracyError(
            f"emission spectrum came out negative (w = {w}); convention bug upstream"
        )
    return w


def kirchhoff_residual(ctx: ModeContext, stack: Stack | None = None, q: str = "s",
                       temperature: float = 300.0, side: int = 0,
                       cs: CommutatorSet | None = None) -> float:
    """Relative gap between emission and the absorptivity budget n c_in (1 - |r|^2 - |t|^2).

    Valid for vacuum outer media in the propagating regime, where emissivity
    equals absorptivity exactly; evanescent modes take a different balance
    (output noise against 2 Im r / |beta|) and are rejected here.
    """
    row = ctx.side_row(side)
    for j in (0, ctx.n):
        if ctx.eps[j] != 1.0 + 0.0j:
            raise RegimeError("kirchhoff_residual requires vacuum outer media")
    if regime(ctx, 0) is not Regime.PROPAGATING:
        raise RegimeError("kirchhoff_residual requires the propagating regime (omega/c > k)")
    if cs is None:
        cs = commutator_set(ctx, stack, q)
    occ = bose(ctx.omega, temperature)
    w = emission_w(ctx, stack, q, temperature, side, cs=cs)
    s = cs.io.s_matrix
    c_in = c_in_side(ctx, cs.q, 0)
    budget = occ * c_in * (1.0 - abs(s[row][0]) ** 2 - abs(s[row][1]) ** 2)
    # Normalized against the full input budget n c_in, the emissivity scale;
    # a lossless stack (w = budget = 0 up to rounding) then reports ~0.
    return abs(w - budget) / max(abs(w), occ * c_in, 1e-300)
