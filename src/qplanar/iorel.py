"""k-space input-output relation and field propagation outside the plate.

The 2x2 scattering block maps the input amplitudes at the two boundary
planes (z = 0- on side 0, z = 0+ on side n) to the output amplitudes; the
per-layer noise-coupling rows add the contribution of the intraplate
amplitudes.  Outside the plate the amplitudes obey first-order equations
with drift +/- i beta and a current source term, which are integrated in
closed form for piecewise-constant source profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import C_LIGHT, EPS0
from .errors import ConfigError
from .modes import ModeContext
from .scatter import ScatterSet, scatter_set
from .stack import Stack

MU0 = 1.0 / (EPS0 * C_LIGHT * C_LIGHT)


@dataclass(frozen=True)
class IOMatrix:
    """Scattering block S and per-layer noise couplings for one (omega, k, q)."""

    q: str
    s_matrix: tuple[tuple[complex, complex], tuple[complex, complex]]
    # per layer j = 1..n-1: (phi_0+, phi_0-, phi_n+, phi_n-)
    phi: tuple[tuple[complex, complex, complex, complex], ...]
    warnings: tuple[str, ...] = ()

    @property
    def n_layers(self) -> int:
        return len(self.phi)


def io_matrix(ctx: ModeContext, stack: Stack | None = None, q: str = "s",
              _scatter: ScatterSet | None = None) -> IOMatrix:
    """Assemble the input-output matrix from the generalized coefficients.

    S = [[r_0n, t_n0], [t_0n, r_n0]];
    phi_0+ = t_j0 e^{2 i b d} r_jn / D,  phi_0- = t_j0 / D,
    phi_n+ = t_jn e^{i b d} / D,         phi_n- = t_jn e^{i b d} r_j0 / D.
    """
    ss = _scatter if _scatter is not None else scatter_set(ctx, stack, q)
    s = ((ss.r_0n, ss.t_n0), (ss.t_0n, ss.r_n0))
    phi = []
    for j in range(1, ss.n):
        ph, d = ss.phase[j], ss.d_fp[j]
        phi.append((
            ss.t_to0[j] * ph * ph / d * ss.r_right[j],
            ss.t_to0[j] / d,
            ss.t_toN[j] * ph / d,
            ss.t_toN[j] * ph / d * ss.r_left[j],
        ))
    return IOMatrix(q=ss.q, s_matrix=s, phi=tuple(phi), warnings=ss.warnings)


@dataclass(frozen=True)
class AmplitudeVector:
    """Mean amplitudes driving one polarization block of the IO relation."""

    in0: complex = 0.0
    inN: complex = 0.0
    intra: tuple[tuple[complex, complex], ...] = ()  # per layer (E+, E-)


def mean_out(io: IOMatrix, amps: AmplitudeVector) -> tuple[complex, complex]:
    """Mean output amplitudes out = S in + sum_j Phi^(j) intra^(j)."""
    if len(amps.intra) != io.n_layers:
        raise ConfigError(
            f"amplitude vector has {len(amps.intra)} intraplate entries, stack has {io.n_layers}"
        )
    s = io.s_matrix
    out0 = s[0][0] * amps.in0 + s[0][1] * amps.inN
    outn = s[1][0] * amps.in0 + s[1][1] * amps.inN
    for (p0p, p0m, pnp, pnm), (ep, em) in zip(io.phi, amps.intra):
        out0 += p0p * ep + p0m * em
        outn += pnp * ep + pnm * em
    return out0, outn


@dataclass(frozen=True)
class SourceBlock:
    """Constant current amplitude on a z-interval of a half-space."""

    z_lo: float
    z_hi: float
    current: tuple[complex, complex, complex]  # Cartesian components

    def __post_init__(self):
        if not self.z_lo < self.z_hi:
            raise ConfigError(f"source block needs z_lo < z_hi, got [{self.z_lo}, {self.z_hi}]")


def _segment_integral(c: complex, a: float, b: float) -> complex:
    """integral_a^b e^{c z} dz, exact."""
    if c == 0.0:
        return complex(b - a)
    return (np.exp(c * b) - np.exp(c * a)) / c


def field_outside(ctx: ModeContext, side: int, z: float, q: str,
                  e_in_boundary: complex = 0.0, e_out_boundary: complex = 0.0,
                  sources: Sequence[SourceBlock] = ()) -> tuple[complex, complex]:
    """Input and output amplitudes at position z in a half-space.

    Solves the drift-plus-source propagation away from the boundary plane in
    closed form: homogeneous factors e^{+/- i beta z} plus exact exponential
    integrals of the piecewise-constant source terms.

    Parameters
    ----------
    side : 0 or the rightmost region index (ctx.n); selects the half-space.
    z : coordinate in that half-space (z <= 0 for side 0, z >= 0 for side n).
    e_in_boundary, e_out_boundary : amplitudes at the boundary plane.
    sources : constant current blocks, each inside the chosen half-space.
    """
    s = 2 * ctx.side_row(side) - 1  # direction pointing away from the plate
    if s * z < 0.0:
        raise ConfigError(f"z = {z} is not in half-space {side} (z {'<=' if s < 0 else '>='} 0)")
    beta = ctx.beta[side]
    amp = MU0 * ctx.omega / (2.0 * beta)
    # The input wave travels toward the plate, the output wave away from it:
    # E_in(z) = e^{-s i b z} [E_in(0) + A int e^{s i b z'} (j . e_in) dz']
    # E_out(z) = e^{s i b z} [E_out(0) - A int e^{-s i b z'} (j . e_out) dz']
    # with the integrals over the part of each block between the plate and z.
    e_in_pol = ctx.pol_vector(q, side, -s)
    e_out_pol = ctx.pol_vector(q, side, s)
    isb = (1j if s > 0 else -1j) * beta
    acc_in = 0.0 + 0.0j
    acc_out = 0.0 + 0.0j
    for blk in sources:
        if s * (blk.z_lo if s > 0 else blk.z_hi) < 0.0:
            raise ConfigError(f"side-{side} source blocks must lie in half-space {side}")
        lo, hi = max(blk.z_lo, min(z, 0.0)), min(blk.z_hi, max(z, 0.0))
        if lo >= hi:
            continue
        j_vec = np.array(blk.current, dtype=complex)
        acc_in += (j_vec @ e_in_pol) * _segment_integral(isb, lo, hi)
        acc_out += (j_vec @ e_out_pol) * _segment_integral(-isb, lo, hi)
    e_in = np.exp(-isb * z) * (e_in_boundary + amp * acc_in)
    e_out = np.exp(isb * z) * (e_out_boundary - amp * acc_out)
    return complex(e_in), complex(e_out)
