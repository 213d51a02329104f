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


def _pol_vec(ctx: ModeContext, q: str, j: int, sign: int, k_sign: int) -> np.ndarray:
    """Polarization vector e_q,sign at +k or -k (k_sign = +1 / -1)."""
    if q == "s":
        v = ctx.e_s()
        return v if k_sign > 0 else -v
    return ctx.e_p(j, sign if k_sign > 0 else -sign)


def _z_range_check(ctx: ModeContext, j: int, z: float):
    n = ctx.n
    if j == 0:
        if z > 0.0:
            raise ConfigError(f"z = {z} outside region 0 (z <= 0)")
    elif j == n:
        if z < 0.0:
            raise ConfigError(f"z = {z} outside region {n} (z >= 0)")
    else:
        d = ctx.stack.thickness(j)
        if not (0.0 <= z <= d):
            raise ConfigError(f"z = {z} outside layer {j} (0 <= z <= {d})")


def wavefun(ctx: ModeContext, ss: ScatterSet, j: int, direction: str, z: float,
            k_sign: int = +1) -> np.ndarray:
    """Unit-strength wave in region j, reflected at the stack boundary.

    direction '>' : rightward wave referenced at the right interface,
        e_+ e^{i beta (z - d_j)} + r[j->n] e_- e^{-i beta (z - d_j)}
    direction '<' : leftward wave referenced at the left interface,
        e_- e^{-i beta z} + r[j->0] e_+ e^{i beta z}
    """
    _z_range_check(ctx, j, z)
    q = ss.q
    b = ctx.beta[j]
    if direction == ">":
        zref = z - ctx.stack.thickness(j)
        return (
            _pol_vec(ctx, q, j, +1, k_sign) * np.exp(1j * b * zref)
            + ss.r_right[j] * _pol_vec(ctx, q, j, -1, k_sign) * np.exp(-1j * b * zref)
        )
    if direction == "<":
        return (
            _pol_vec(ctx, q, j, -1, k_sign) * np.exp(-1j * b * z)
            + ss.r_left[j] * _pol_vec(ctx, q, j, +1, k_sign) * np.exp(1j * b * z)
        )
    raise ConfigError(f"direction must be '>' or '<', got {direction!r}")


def _scatter_pair(ctx: ModeContext) -> tuple[ScatterSet, ScatterSet]:
    return scatter_set(ctx, "s"), scatter_set(ctx, "p")


def green_kernel(ctx: ModeContext, j: int = 0, jp: int = 0, z: float = 0.0, zp: float = 0.0,
                 tie: float = 0.5, _pair: tuple[ScatterSet, ScatterSet] | None = None) -> np.ndarray:
    """Scattering part of the planar Green kernel, complex 3x3.

    First index follows the field point (region j, coordinate z), second the
    source point (region jp, zp).  `tie` is the Theta(0) weight used only
    when j == jp and z == zp: 0.5 symmetric, 1.0 selects the z > z' branch,
    0.0 the z < z' branch.
    """
    pair = _pair if _pair is not None else _scatter_pair(ctx)
    _z_range_check(ctx, j, z)
    _z_range_check(ctx, jp, zp)
    out = np.zeros((3, 3), dtype=complex)
    if j > jp:
        w_up, w_dn = 1.0, 0.0
    elif j < jp:
        w_up, w_dn = 0.0, 1.0
    elif z > zp:
        w_up, w_dn = 1.0, 0.0
    elif z < zp:
        w_up, w_dn = 0.0, 1.0
    else:
        w_up, w_dn = tie, 1.0 - tie
    for ss in pair:
        sig = _SIGMA[ss.q]
        if w_up:
            term = np.outer(wavefun(ctx, ss, j, ">", z), wavefun(ctx, ss, jp, "<", zp, k_sign=-1))
            out += w_up * sig * ss.xi(j, jp) * term
        if w_dn:
            term = np.outer(wavefun(ctx, ss, j, "<", z), wavefun(ctx, ss, jp, ">", zp, k_sign=-1))
            out += w_dn * sig * ss.xi(jp, j) * term
    return 0.5j * out


@dataclass(frozen=True)
class GreenIdentityResult:
    lhs: np.ndarray
    rhs: np.ndarray
    residual: float


def _simpson_tensor(fvals: list[np.ndarray], a: float, b: float) -> np.ndarray:
    """Composite Simpson over pre-evaluated values on an even uniform grid."""
    m = len(fvals) - 1
    h = (b - a) / m
    acc = fvals[0] + fvals[-1]
    acc = acc + 4.0 * sum(fvals[1:-1:2]) + 2.0 * sum(fvals[2:-2:2])
    return acc * (h / 3.0)


def verify_green_identity(ctx: ModeContext, j: int = 0, jp: int = 0,
                          z: float = 0.0, zp: float = 0.0,
                          nodes_per_layer: int | tuple[int, ...] = 200) -> GreenIdentityResult:
    """Numerically verify the absorption integral identity for the kernel.

    lhs: sum over all regions of int dz'' (w/c)^2 eps'' g^(j,j'')(z, z'')
    contracted with g^(j',j'')*(z', z''); the semi-infinite outer-region
    tails are integrated in closed form (the integrand is a single decaying
    exponential there), interior layers by composite Simpson with
    `nodes_per_layer` subintervals (an int, or one count per layer), split
    at interior field points so the step-function kink never sits inside a
    panel.

    rhs: (g - g^+)/2i at the field points plus the two eps''/eps boundary
    terms, with the symmetric Theta convention at coincident coordinates.

    Requires absorbing outer media (Im eps > 0 in regions 0 and n) so the
    tails converge.
    """
    stack = ctx.stack
    n = ctx.n
    for m in (0, n):
        if ctx.eps[m].imag <= 0.0:
            raise RegimeError(
                f"outer region {m} has Im eps = {ctx.eps[m].imag}; the identity's "
                "semi-infinite integrals need Im eps > 0 in both outer media"
            )
    if isinstance(nodes_per_layer, int):
        layer_nodes = (nodes_per_layer,) * max(n - 1, 1)
    else:
        layer_nodes = tuple(nodes_per_layer)
        if len(layer_nodes) != n - 1:
            raise ConfigError(f"need {n - 1} per-layer node counts, got {len(layer_nodes)}")
    outer_nodes = max(layer_nodes)
    pair = _scatter_pair(ctx)
    w_c2 = (ctx.omega / C_LIGHT) ** 2

    def g1(jpp: int, zpp: float, tie: float) -> np.ndarray:
        return green_kernel(ctx, j, jpp, z, zpp, tie=tie, _pair=pair)

    def g2(jpp: int, zpp: float, tie: float) -> np.ndarray:
        return green_kernel(ctx, jp, jpp, zp, zpp, tie=tie, _pair=pair)

    def integrand(jpp: int, zpp: float, tie: float) -> np.ndarray:
        # tie applies to whichever factor shares the region with the node.
        a = g1(jpp, zpp, tie if jpp == j else 0.5)
        b = g2(jpp, zpp, tie if jpp == jp else 0.5)
        return w_c2 * ctx.eps[jpp].imag * (a @ b.conjugate().T)

    def panel(jpp: int, a: float, b: float, m: int) -> np.ndarray:
        """Composite Simpson over [a, b] in region jpp with m (rounded up to even) subintervals."""
        m += m % 2
        vals = []
        for znode in np.linspace(a, b, m + 1):
            # A node equal to a field point is approached from inside [a, b].
            if jpp in (j, jp) and (znode == z or znode == zp):
                tie = 1.0 if znode == b else 0.0
            else:
                tie = 0.5
            vals.append(integrand(jpp, float(znode), tie))
        return _simpson_tensor(vals, a, b)

    lhs = np.zeros((3, 3), dtype=complex)

    # Interior layers.
    for jpp in range(1, n):
        d = stack.thickness(jpp)
        pts = {0.0, d}
        if jpp == j and 0.0 < z < d:
            pts.add(z)
        if jpp == jp and 0.0 < zp < d:
            pts.add(zp)
        edges = sorted(pts)
        for a, b in zip(edges, edges[1:]):
            lhs += panel(jpp, a, b, max(4, int(round(layer_nodes[jpp - 1] * (b - a) / d))))

    # Half-spaces 0 and n: Simpson out to the farthest field point, the tail
    # beyond it in closed form.  The tail's z'' lies below every field point
    # in region 0 (upper branch) and above every one in region n (lower branch).
    for jpp, s in ((0, -1.0), (n, 1.0)):
        edges = sorted({0.0} | {zz for jj, zz in ((j, z), (jp, zp)) if jj == jpp and s * zz > 0.0})
        for a, b in zip(edges, edges[1:]):
            lhs += panel(jpp, a, b, max(8, outer_nodes))
        far, tie = (edges[0], 1.0) if jpp == 0 else (edges[-1], 0.0)
        lhs += integrand(jpp, far, tie) / (2.0 * ctx.beta[jpp].imag)

    # Right-hand side of the identity.
    g_fwd = green_kernel(ctx, j, jp, z, zp, tie=0.5, _pair=pair)
    g_rev = green_kernel(ctx, jp, j, zp, z, tie=0.5, _pair=pair)
    rhs = (g_fwd - g_rev.conjugate().T) / 2j
    rhs = rhs + (ctx.eps[jp].imag / ctx.eps[jp].conjugate()) * np.outer(g_fwd @ _EZ, _EZ)
    rhs = rhs + (ctx.eps[j].imag / ctx.eps[j]) * np.outer(_EZ, (g_rev @ _EZ).conjugate())
    scale = max(float(np.max(np.abs(rhs))), float(np.max(np.abs(lhs))), 1e-300)
    residual = float(np.max(np.abs(lhs - rhs))) / scale
    return GreenIdentityResult(lhs, rhs, residual)
