"""k-space input-output relation and field propagation outside the plate.

The 2x2 scattering block maps the input amplitudes at the two boundary
planes (z = 0- on side 0, z = 0+ on side n) to the output amplitudes; the
per-layer 2x2 noise couplings add the contribution of the intraplate
amplitudes.  Every block shares one layout: row `ctx.side_row(side)` is the
output of that side (0 for side 0, 1 for side n); the columns are the
inputs (in0, inN) for S and the intraplate amplitudes (E+, E-) for Phi.
The k axes of the context come before the 2x2 block axes.

Outside the plate the amplitudes obey first-order equations with drift
+/- i beta and a current source term, which are integrated in closed form
for piecewise-constant source profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import C_LIGHT, EPS0
from .errors import ConfigError
from .modes import ModeContext
from .scatter import ScatterSet

MU0 = 1.0 / (EPS0 * C_LIGHT * C_LIGHT)


def _block2(a, b, c, d) -> np.ndarray:
    """Complex 2x2 blocks [[a, b], [c, d]] over the broadcast leading axes, shape (..., 2, 2)."""
    out = np.empty(np.broadcast_shapes(*map(np.shape, (a, b, c, d))) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def _matmul2(x, y) -> np.ndarray:
    """Products x @ y of complex 2x2 blocks over the broadcast leading axes, entry by entry
    (several times faster than a stacked @ on 2x2 blocks)."""
    (x00, x01), (x10, x11) = np.moveaxis(x, (-2, -1), (0, 1))
    (y00, y01), (y10, y11) = np.moveaxis(y, (-2, -1), (0, 1))
    return _block2(x00 * y00 + x01 * y10, x00 * y01 + x01 * y11,
                   x10 * y00 + x11 * y10, x10 * y01 + x11 * y11)


@dataclass(frozen=True)
class IOMatrix:
    """Scattering block S and per-layer noise couplings of one polarization for every k."""

    q: str
    s_matrix: np.ndarray  # k.shape + (2, 2): rows (out0, outN), cols (in0, inN)
    phi: np.ndarray       # (n-1, *k.shape, 2, 2), layer j at [j-1]: rows (out0, outN), cols (E+, E-)

    @property
    def n_layers(self) -> int:
        return len(self.phi)


def io_matrix(ss: ScatterSet) -> IOMatrix:
    """Assemble the input-output matrix from the generalized coefficients.

    S = [[r_0n, t_n0], [t_0n, r_n0]];
    phi_0+ = t_j0 e^{2 i b d} r_jn / D,  phi_0- = t_j0 / D,
    phi_n+ = t_jn e^{i b d} / D,         phi_n- = t_jn e^{i b d} r_j0 / D.
    """
    layers = slice(1, ss.n)
    ph, d = ss.phase[layers], ss.d_fp[layers]
    t0, tn = ss.t_to0[layers], ss.t_toN[layers]
    phi = _block2(t0 * ph * ph / d * ss.r_right[layers], t0 / d,
                  tn * ph / d, tn * ph / d * ss.r_left[layers])
    return IOMatrix(q=ss.q, s_matrix=_block2(ss.r_0n, ss.t_n0, ss.t_0n, ss.r_n0), phi=phi)


@dataclass(frozen=True)
class AmplitudeVector:
    """Mean amplitudes driving one polarization block of the IO relation."""

    in0: complex = 0.0
    inN: complex = 0.0
    intra: tuple[tuple[complex, complex], ...] = ()  # per layer (E+, E-)


def mean_out(io: IOMatrix, amps: AmplitudeVector) -> tuple[complex, complex]:
    """Mean output amplitudes out = S in + sum_j Phi^(j) intra^(j), one pair per k."""
    if len(amps.intra) != io.n_layers:
        raise ConfigError(
            f"amplitude vector has {len(amps.intra)} intraplate entries, stack has {io.n_layers}"
        )
    intra = np.asarray(amps.intra, dtype=complex).reshape(-1, 2)
    out = io.s_matrix @ np.array([amps.in0, amps.inN]) + np.einsum("j...rc,jc->...r", io.phi, intra)
    return out[..., 0], out[..., 1]


@dataclass(frozen=True)
class SourceBlock:
    """Constant current amplitude on a z-interval of a half-space."""

    z_lo: float
    z_hi: float
    current: tuple[complex, complex, complex]  # Cartesian components

    def __post_init__(self):
        if not self.z_lo < self.z_hi:
            raise ConfigError(f"source block needs z_lo < z_hi, got [{self.z_lo}, {self.z_hi}]")


def _segment_integral(c, a: float, b: float):
    """integral_a^b e^{c z} dz, exact (elementwise in c)."""
    safe = np.where(c == 0.0, 1.0, c)
    return np.where(c == 0.0, b - a, (np.exp(c * b) - np.exp(c * a)) / safe)


def field_outside(ctx: ModeContext, side: int, z: float, q: str,
                  e_in_boundary: complex = 0.0, e_out_boundary: complex = 0.0,
                  sources: Sequence[SourceBlock] = ()) -> tuple[complex, complex]:
    """Input and output amplitudes at position z in a half-space, one pair per k.

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
        acc_in += (e_in_pol @ j_vec) * _segment_integral(isb, lo, hi)
        acc_out += (e_out_pol @ j_vec) * _segment_integral(-isb, lo, hi)
    e_in = np.exp(-isb * z) * (e_in_boundary + amp * acc_in)
    e_out = np.exp(isb * z) * (e_out_boundary - amp * acc_out)
    return e_in, e_out
