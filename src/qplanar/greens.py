"""Planar Green kernel in the 2D-Fourier domain and its integral identity.

The kernel g^(j j')(z, z', k, omega) is assembled from unit-strength waves
reflected at the stack boundaries; the delta-function local term of the
full Green tensor is excluded throughout (it never contributes to the
in/out fields this package computes).

At coincident same-region coordinates the step functions are taken
symmetric, Theta(0) = 1/2; the one-sided values are available through the
`tie` argument.  The symmetric convention is the one under which the
absorption integral identity holds pointwise at the boundary planes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT
from .errors import ConfigError, RegimeError
from .modes import ModeContext
from .scatter import ScatterSet, scatter_set

_EZ = np.array([0.0, 0.0, 1.0], dtype=complex)
_SIGMA = {"p": 1.0, "s": -1.0}


def _z_range_check(ctx: ModeContext, j: int, z: np.ndarray):
    """Raise ConfigError unless every entry of z lies in region j (NaN never does)."""
    lo = -np.inf if j == 0 else 0.0
    hi = 0.0 if j == 0 else np.inf if j == ctx.n else ctx.d[j]
    bad = ~((lo <= z) & (z <= hi))
    if np.any(bad):
        raise ConfigError(f"z = {z[bad].flat[0]} outside region {j} ({lo} <= z <= {hi})")


def wavefun(ctx: ModeContext, ss: ScatterSet, j: int, direction: str, z,
            k_sign: int = +1) -> np.ndarray:
    """Unit-strength wave in region j, reflected at the stack boundary.

    direction '>' : rightward wave referenced at the right interface,
        e_+ e^{i beta (z - d_j)} + r[j->n] e_- e^{-i beta (z - d_j)}
    direction '<' : leftward wave referenced at the left interface,
        e_- e^{-i beta z} + r[j->0] e_+ e^{i beta z}

    `z` may be an array; the result has shape z.shape + (3,).  k_sign = -1
    evaluates the polarization vectors at -k.
    """
    z = np.asarray(z, dtype=float)
    _z_range_check(ctx, j, z)
    khat = (k_sign * ctx.khat[0], k_sign * ctx.khat[1])
    e_plus = ctx.pol_vector(ss.q, j, +1, khat)
    e_minus = ctx.pol_vector(ss.q, j, -1, khat)
    b = ctx.beta[j]
    if direction == ">":
        zref = (z - ctx.d[j])[..., None]
        return e_plus * np.exp(1j * b * zref) + ss.r_right[j] * e_minus * np.exp(-1j * b * zref)
    if direction == "<":
        z = z[..., None]
        return e_minus * np.exp(-1j * b * z) + ss.r_left[j] * e_plus * np.exp(1j * b * z)
    raise ConfigError(f"direction must be '>' or '<', got {direction!r}")


def green_kernel(ctx: ModeContext, j: int = 0, jp: int = 0, z: float = 0.0, zp=0.0,
                 tie=0.5) -> np.ndarray:
    """Scattering part of the planar Green kernel, complex 3x3.

    First index follows the field point (region j, coordinate z), second the
    source point (region jp, zp).  `tie` is the Theta(0) weight used only
    when j == jp and z == zp: 0.5 symmetric, 1.0 selects the z > z' branch,
    0.0 the z < z' branch.  `zp` and `tie` may be arrays (broadcast against
    each other); the result has shape zp.shape + (3, 3).
    """
    zp, tie = np.broadcast_arrays(np.asarray(zp, dtype=float), np.asarray(tie, dtype=float))
    if j != jp:
        w_up = 1.0 if j > jp else 0.0
    else:
        w_up = np.where(z > zp, 1.0, np.where(z < zp, 0.0, tie))
    w_dn = 1.0 - w_up
    out = np.zeros(zp.shape + (3, 3), dtype=complex)
    # Every branch taken evaluates both waves, so wavefun checks z and zp.  A
    # branch whose weight is zero at every node is skipped: its waves grow
    # away from the plate.
    for ss in (scatter_set(ctx, "s"), scatter_set(ctx, "p")):
        if np.any(w_up):
            term = (wavefun(ctx, ss, j, ">", z)[:, None]
                    * wavefun(ctx, ss, jp, "<", zp, k_sign=-1)[..., None, :])
            out += np.asarray(w_up * _SIGMA[ss.q] * ss.xi(j, jp))[..., None, None] * term
        if np.any(w_dn):
            term = (wavefun(ctx, ss, j, "<", z)[:, None]
                    * wavefun(ctx, ss, jp, ">", zp, k_sign=-1)[..., None, :])
            out += np.asarray(w_dn * _SIGMA[ss.q] * ss.xi(jp, j))[..., None, None] * term
    return 0.5j * out


@dataclass(frozen=True)
class GreenIdentityResult:
    lhs: np.ndarray
    rhs: np.ndarray
    residual: float


def verify_green_identity(ctx: ModeContext, j: int = 0, jp: int = 0,
                          z: float = 0.0, zp: float = 0.0,
                          nodes_per_layer: int = 200) -> GreenIdentityResult:
    """Numerically verify the absorption integral identity for the kernel.

    lhs: sum over all regions of int dz'' (w/c)^2 eps'' g^(j,j'')(z, z'')
    contracted with g^(j',j'')*(z', z''); the semi-infinite outer-region
    tails are integrated in closed form (the integrand is a single decaying
    exponential there), interior layers by composite Simpson with
    `nodes_per_layer` (>= 2) subintervals per layer, split at interior field
    points so the step-function kink never sits inside a panel.

    rhs: (g - g^+)/2i at the field points plus the two eps''/eps boundary
    terms, with the symmetric Theta convention at coincident coordinates.

    Requires absorbing outer media (Im eps > 0 in regions 0 and n) so the
    tails converge.
    """
    n = ctx.n
    for m in (0, n):
        if ctx.eps[m].imag <= 0.0:
            raise RegimeError(
                f"outer region {m} has Im eps = {ctx.eps[m].imag}; the identity's "
                "semi-infinite integrals need Im eps > 0 in both outer media"
            )
    if nodes_per_layer < 2:
        raise ConfigError(f"need at least 2 quadrature nodes per layer, got {nodes_per_layer}")
    w_c2 = (ctx.omega / C_LIGHT) ** 2

    def integrand(jpp: int, zpp, tie) -> np.ndarray:
        # tie is read only by a factor whose field point shares the region and coordinate.
        a = green_kernel(ctx, j, jpp, z, zpp, tie)
        b = green_kernel(ctx, jp, jpp, zp, zpp, tie)
        return w_c2 * ctx.eps[jpp].imag * (a @ np.swapaxes(b, -1, -2).conjugate())

    def panel(jpp: int, a: float, b: float, m: int) -> np.ndarray:
        """Composite Simpson over [a, b] in region jpp with m (rounded up to even) subintervals."""
        m += m % 2
        nodes = np.linspace(a, b, m + 1)
        weights = np.full(m + 1, 2.0)
        weights[1::2] = 4.0
        weights[0] = weights[-1] = 1.0
        # A node on a field point is approached from inside [a, b]: it takes
        # the side of the panel it closes.
        vals = integrand(jpp, nodes, nodes == b)
        return np.tensordot(weights * ((b - a) / m / 3.0), vals, axes=1)

    lhs = np.zeros((3, 3), dtype=complex)

    # Interior layers.
    for jpp in range(1, n):
        d = ctx.d[jpp]
        pts = {0.0, d}
        if jpp == j and 0.0 < z < d:
            pts.add(z)
        if jpp == jp and 0.0 < zp < d:
            pts.add(zp)
        edges = sorted(pts)
        for a, b in zip(edges, edges[1:]):
            lhs += panel(jpp, a, b, max(4, int(round(nodes_per_layer * (b - a) / d))))

    # Half-spaces 0 and n: Simpson out to the farthest field point, the tail
    # beyond it in closed form.  The tail's z'' lies below every field point
    # in region 0 (upper branch) and above every one in region n (lower branch).
    for jpp, s in ((0, -1.0), (n, 1.0)):
        edges = sorted({0.0} | {zz for jj, zz in ((j, z), (jp, zp)) if jj == jpp and s * zz > 0.0})
        for a, b in zip(edges, edges[1:]):
            lhs += panel(jpp, a, b, max(8, nodes_per_layer))
        far, tie = (edges[0], 1.0) if jpp == 0 else (edges[-1], 0.0)
        lhs += integrand(jpp, far, tie) / (2.0 * ctx.beta[jpp].imag)

    # Right-hand side of the identity.
    g_fwd = green_kernel(ctx, j, jp, z, zp)
    g_rev = green_kernel(ctx, jp, j, zp, z)
    rhs = (g_fwd - g_rev.conjugate().T) / 2j
    rhs = rhs + (ctx.eps[jp].imag / ctx.eps[jp].conjugate()) * np.outer(g_fwd @ _EZ, _EZ)
    rhs = rhs + (ctx.eps[j].imag / ctx.eps[j]) * np.outer(_EZ, (g_rev @ _EZ).conjugate())
    scale = max(float(np.max(np.abs(rhs))), float(np.max(np.abs(lhs))), 1e-300)
    residual = float(np.max(np.abs(lhs - rhs))) / scale
    return GreenIdentityResult(lhs, rhs, residual)
