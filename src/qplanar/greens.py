"""Planar Green kernel in the 2D-Fourier domain and its integral identity.

The kernel g^(j j')(z, z', k, omega) is assembled from unit-strength waves
reflected at the stack boundaries; the delta-function local term of the
full Green tensor is excluded throughout (it never contributes to the
in/out fields this package computes).

At coincident same-region coordinates the step functions are taken
symmetric, Theta(0) = 1/2; the one-sided values are available through the
`tie` argument.  The symmetric convention is the one under which the
absorption integral identity holds pointwise at the boundary planes.

The identity's quadrature evaluates the kernel on whole node arrays, one
call per panel and field point for every mode of a context; at coincident
field points a single call serves both factors and both kernels of the
right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .commutators import _dagger
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

    `z` may be an array; the result has shape k.shape + z.shape + (3,), one
    wave per mode of the context.  k_sign = -1 evaluates the polarization
    vectors at -k.
    """
    z = np.asarray(z, dtype=float)
    _z_range_check(ctx, j, z)
    khat = (k_sign * ctx.khat[0], k_sign * ctx.khat[1])
    lead = ctx.k.shape + (1,) * z.ndim
    e_plus = ctx.pol_vector(ss.q, j, +1, khat).reshape(lead + (3,))
    e_minus = ctx.pol_vector(ss.q, j, -1, khat).reshape(lead + (3,))
    b = ctx.beta[j].reshape(lead + (1,))
    if direction == ">":
        zref = (z - ctx.d[j])[..., None]
        r = ss.r_right[j].reshape(lead + (1,))
        return e_plus * np.exp(1j * b * zref) + r * e_minus * np.exp(-1j * b * zref)
    if direction == "<":
        z = z[..., None]
        r = ss.r_left[j].reshape(lead + (1,))
        return e_minus * np.exp(-1j * b * z) + r * e_plus * np.exp(1j * b * z)
    raise ConfigError(f"direction must be '>' or '<', got {direction!r}")


def green_kernel(ctx: ModeContext, pair: tuple[ScatterSet, ScatterSet], j: int = 0,
                 jp: int = 0, z: float = 0.0, zp=0.0, tie=0.5) -> np.ndarray:
    """Scattering part of the planar Green kernel, complex 3x3 per mode.

    `pair` is the s and p ScatterSet of `ctx`.  First index follows the field
    point (region j, coordinate z), second the source point (region jp, zp).
    `tie` is the Theta(0) weight used only when j == jp and z == zp: 0.5
    symmetric, 1.0 selects the z > z' branch, 0.0 the z < z' branch.  `zp`
    and `tie` may be arrays, broadcast together; the result is
    k.shape + zp.shape + (3, 3).
    """
    zp, tie = np.broadcast_arrays(np.asarray(zp, dtype=float), np.asarray(tie, dtype=float))
    if j != jp:
        w_up = 1.0 if j > jp else 0.0
    else:
        w_up = np.where(z > zp, 1.0, np.where(z < zp, 0.0, tie))
    w_dn = 1.0 - w_up
    out = np.zeros(ctx.k.shape + zp.shape + (3, 3), dtype=complex)
    lead = ctx.k.shape + (1,) * zp.ndim   # per-mode values against the zp axes
    # Every branch taken evaluates both waves, so wavefun checks z and zp.  A
    # branch whose weight is zero at every node is skipped: its waves grow
    # away from the plate.
    for ss in pair:
        for w, field, source, xi in ((w_up, ">", "<", ss.xi(j, jp)), (w_dn, "<", ">", ss.xi(jp, j))):
            if np.any(w):
                term = (wavefun(ctx, ss, j, field, z).reshape(lead + (3, 1))
                        * wavefun(ctx, ss, jp, source, zp, k_sign=-1)[..., None, :])
                out += (w * _SIGMA[ss.q] * xi.reshape(lead))[..., None, None] * term
    return 0.5j * out


@dataclass(frozen=True)
class GreenIdentityResult:
    lhs: np.ndarray        # k.shape + (3, 3)
    rhs: np.ndarray        # k.shape + (3, 3)
    residual: np.ndarray   # k.shape: max |lhs - rhs| over the larger of max |lhs|, max |rhs|


def verify_green_identity(ctx: ModeContext, j: int = 0, jp: int = 0,
                          z: float = 0.0, zp: float = 0.0,
                          nodes_per_layer: int = 200) -> GreenIdentityResult:
    """Numerically verify the absorption integral identity for the kernel, at every mode of ctx.

    lhs: sum over all regions of int dz'' (w/c)^2 eps'' g^(j,j'')(z, z'')
    contracted with g^(j',j'')*(z', z''); the semi-infinite outer-region
    tails are integrated in closed form (the integrand is a single decaying
    exponential there), interior layers by composite Simpson with
    `nodes_per_layer` (>= 2) subintervals per layer, split at interior field
    points so the step-function kink never sits inside a panel.  The z''
    nodes depend only on the thicknesses, so all modes share them: each
    panel is one `green_kernel` call per field point for the whole context,
    and one call in all where (j, z) == (jp, zp).

    rhs: (g - g^+)/2i at the field points plus the two eps''/eps boundary
    terms, with the symmetric Theta convention at coincident coordinates.

    Requires absorbing outer media (Im eps > 0 in regions 0 and n) at every
    mode, so the tails converge.
    """
    n = ctx.n
    for m in (0, n):
        lossless = ctx.eps[m].imag <= 0.0
        if lossless.any():
            at = np.unravel_index(np.argmax(lossless), lossless.shape)
            raise RegimeError(
                f"outer region {m} has Im eps = {ctx.eps[m][at].imag} at {ctx.mode(at)}; the "
                "identity's semi-infinite integrals need Im eps > 0 in both outer media"
            )
    if nodes_per_layer < 2:
        raise ConfigError(f"need at least 2 quadrature nodes per layer, got {nodes_per_layer}")
    w_c2 = (ctx.omega / C_LIGHT) ** 2
    pair = (scatter_set(ctx, "s"), scatter_set(ctx, "p"))

    coincident = (j, z) == (jp, zp)   # then both factors, and g and g_rev below, are one call

    def integrand(jpp: int, zpp: np.ndarray, tie) -> np.ndarray:
        # tie is read only by a factor whose field point shares the region and coordinate.
        a = green_kernel(ctx, pair, j, jpp, z, zpp, tie)
        b = a if coincident else green_kernel(ctx, pair, jp, jpp, zp, zpp, tie)
        # a b^+ entry by entry, (a b^+)[r, c] = sum_m a[r, m] b[c, m]^*, in order of m.
        bc = b.conjugate()
        ab = a[..., :, None, 0] * bc[..., None, :, 0]
        ab += a[..., :, None, 1] * bc[..., None, :, 1]
        ab += a[..., :, None, 2] * bc[..., None, :, 2]
        ab *= (w_c2 * ctx.eps[jpp].imag)[..., None, None, None]
        return ab

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
        # A sum over the node axis adds each mode's nodes in order, whatever the other modes.
        return np.sum(vals * (weights * ((b - a) / m / 3.0))[:, None, None], axis=-3)

    lhs = np.zeros(ctx.k.shape + (3, 3), dtype=complex)

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
        tail = integrand(jpp, np.array([far]), tie)[..., 0, :, :]
        lhs += tail / (2.0 * ctx.beta[jpp].imag)[..., None, None]

    # Right-hand side of the identity.
    g_fwd = green_kernel(ctx, pair, j, jp, z, zp)
    g_rev = g_fwd if coincident else green_kernel(ctx, pair, jp, j, zp, z)
    rhs = (g_fwd - _dagger(g_rev)) / 2j
    fwd_z = (g_fwd @ _EZ)[..., :, None] * _EZ
    rev_z = _EZ[:, None] * (g_rev @ _EZ).conjugate()[..., None, :]
    rhs = rhs + (ctx.eps[jp].imag / ctx.eps[jp].conjugate())[..., None, None] * fwd_z
    rhs = rhs + (ctx.eps[j].imag / ctx.eps[j])[..., None, None] * rev_z
    largest = np.maximum(np.max(np.abs(rhs), axis=(-2, -1)), np.max(np.abs(lhs), axis=(-2, -1)))
    residual = np.max(np.abs(lhs - rhs), axis=(-2, -1)) / np.maximum(largest, 1e-300)
    return GreenIdentityResult(lhs, rhs, residual)
